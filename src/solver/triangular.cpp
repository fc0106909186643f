#include "solver/triangular.hpp"

#include <algorithm>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/dense.hpp"

namespace mgko::solver {


template <typename ValueType, typename IndexType, bool Lower>
TriangularSolver<ValueType, IndexType, Lower>::TriangularSolver(
    std::shared_ptr<const Executor> exec, triangular_parameters params,
    std::shared_ptr<const Csr<ValueType, IndexType>> matrix)
    : LinOp{std::move(exec), matrix->get_size()},
      params_{params},
      matrix_{std::move(matrix)}
{
    MGKO_ENSURE(matrix_->get_size().rows == matrix_->get_size().cols,
                "triangular solve requires a square matrix");
    MGKO_ENSURE(matrix_->is_sorted_by_column_index(),
                "triangular solve requires sorted column indices");
    build_level_schedule();
}


template <typename ValueType, typename IndexType, bool Lower>
void TriangularSolver<ValueType, IndexType, Lower>::build_level_schedule()
{
    const auto n = matrix_->get_size().rows;
    const auto* row_ptrs = matrix_->get_const_row_ptrs();
    const auto* col_idxs = matrix_->get_const_col_idxs();

    // level[row] = 1 + max(level[dependency]); dependencies are the strictly
    // lower (upper) entries of the row.
    std::vector<size_type> level(static_cast<std::size_t>(n), 0);
    size_type max_level = 0;
    auto visit = [&](size_type row) {
        size_type lvl = 0;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            const bool is_dep = Lower ? col < row : col > row;
            if (is_dep) {
                lvl = std::max(lvl, level[static_cast<std::size_t>(col)] + 1);
            }
        }
        level[static_cast<std::size_t>(row)] = lvl;
        max_level = std::max(max_level, lvl);
    };
    if (Lower) {
        for (size_type row = 0; row < n; ++row) {
            visit(row);
        }
    } else {
        for (size_type row = n; row-- > 0;) {
            visit(row);
        }
    }

    // Bucket rows by level (counting sort keeps it O(n + nnz)).
    level_offsets_.assign(static_cast<std::size_t>(max_level) + 2, 0);
    for (size_type row = 0; row < n; ++row) {
        ++level_offsets_[static_cast<std::size_t>(
            level[static_cast<std::size_t>(row)] + 1)];
    }
    for (std::size_t l = 1; l < level_offsets_.size(); ++l) {
        level_offsets_[l] += level_offsets_[l - 1];
    }
    level_rows_.resize(static_cast<std::size_t>(n));
    std::vector<size_type> cursor(level_offsets_.begin(),
                                  level_offsets_.end() - 1);
    for (size_type row = 0; row < n; ++row) {
        auto& pos = cursor[static_cast<std::size_t>(
            level[static_cast<std::size_t>(row)])];
        level_rows_[static_cast<std::size_t>(pos++)] =
            static_cast<IndexType>(row);
    }
}


namespace trs_kernels {

template <typename V, typename I, bool Lower>
inline void solve_row(const V* values, const I* col_idxs, const I* row_ptrs,
                      const V* b, size_type b_stride, V* x,
                      size_type x_stride, size_type row, size_type vec_cols,
                      bool unit_diagonal)
{
    for (size_type c = 0; c < vec_cols; ++c) {
        using acc_t = accumulate_t<V>;
        acc_t acc = static_cast<acc_t>(b[row * b_stride + c]);
        V diag = one<V>();
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            if (col == row) {
                diag = values[k];
            } else if (Lower ? col < row : col > row) {
                acc -= static_cast<acc_t>(values[k]) *
                       static_cast<acc_t>(x[col * x_stride + c]);
            }
        }
        x[row * x_stride + c] =
            unit_diagonal ? V{acc} : V{acc} / diag;
    }
}

}  // namespace trs_kernels


template <typename ValueType, typename IndexType, bool Lower>
void TriangularSolver<ValueType, IndexType, Lower>::apply_impl(
    const LinOp* b, LinOp* x) const
{
    log::ScopedSpan apply_span{this, this->get_executor().get(),
                               "solver.trs.apply"};
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto vec_cols = dense_b->get_size().cols;
    const auto* values = matrix_->get_const_values();
    const auto* col_idxs = matrix_->get_const_col_idxs();
    const auto* row_ptrs = matrix_->get_const_row_ptrs();
    const auto n = matrix_->get_size().rows;
    const auto nnz = matrix_->get_num_stored_elements();
    const bool unit = params_.unit_diagonal;

    auto serial_sweep = [&] {
        if (Lower) {
            for (size_type row = 0; row < n; ++row) {
                trs_kernels::solve_row<ValueType, IndexType, Lower>(
                    values, col_idxs, row_ptrs, dense_b->get_const_values(),
                    dense_b->get_stride(), dense_x->get_values(),
                    dense_x->get_stride(), row, vec_cols, unit);
            }
        } else {
            for (size_type row = n; row-- > 0;) {
                trs_kernels::solve_row<ValueType, IndexType, Lower>(
                    values, col_idxs, row_ptrs, dense_b->get_const_values(),
                    dense_b->get_stride(), dense_x->get_values(),
                    dense_x->get_stride(), row, vec_cols, unit);
            }
        }
    };

    // Cost: stream the factor once and b and x once per right-hand side.
    auto profile = [&](double efficiency) {
        return sim::profile_stream(
            static_cast<double>(nnz) *
                    (sizeof(ValueType) + sizeof(IndexType)) +
                static_cast<double>(2 * n * sizeof(ValueType)) *
                    static_cast<double>(vec_cols),
            2.0 * static_cast<double>(nnz) * static_cast<double>(vec_cols),
            efficiency);
    };
    // The reference executor sweeps the rows in order; every other backend
    // runs the level-scheduled sweep.
    get_executor()->run("trs_solve", [&](const Executor* e) {
        if (e->kind() == exec_kind::reference) {
            serial_sweep();
            mgko::kernels::tick(e, profile(0.7));
            return;
        }
        const int nt = e->real_threads();
        const auto levels = num_levels();
        for (size_type l = 0; l < levels; ++l) {
            const auto begin = level_offsets_[static_cast<std::size_t>(l)];
            const auto end = level_offsets_[static_cast<std::size_t>(l + 1)];
#pragma omp parallel for num_threads(nt) if (nt > 1 && end - begin > 64)
            for (size_type i = begin; i < end; ++i) {
                trs_kernels::solve_row<ValueType, IndexType, Lower>(
                    values, col_idxs, row_ptrs, dense_b->get_const_values(),
                    dense_b->get_stride(), dense_x->get_values(),
                    dense_x->get_stride(),
                    static_cast<size_type>(
                        level_rows_[static_cast<std::size_t>(i)]),
                    vec_cols, unit);
            }
        }
        // One launch per level beyond the first: the latency wall of
        // sparse triangular solves.
        auto level_profile = profile(0.6);
        level_profile.extra_launches =
            static_cast<int>(levels > 0 ? levels - 1 : 0);
        mgko::kernels::tick(e, level_profile);
    });
}


template <typename ValueType, typename IndexType, bool Lower>
void TriangularSolver<ValueType, IndexType, Lower>::apply_impl(
    const LinOp* alpha, const LinOp* b, const LinOp* beta, LinOp* x) const
{
    auto dense_x = as_dense<ValueType>(x);
    auto* tmp = detail::ensure_vec(adv_tmp_, get_executor(),
                                   dense_x->get_size());
    apply_impl(b, tmp);
    dense_x->scale(as_dense<ValueType>(beta));
    dense_x->add_scaled(as_dense<ValueType>(alpha), tmp);
}


#define MGKO_DECLARE_TRS(ValueType, IndexType)                        \
    template class TriangularSolver<ValueType, IndexType, true>;     \
    template class TriangularSolver<ValueType, IndexType, false>;    \
    template class LowerTrs<ValueType, IndexType>;                    \
    template class UpperTrs<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_TRS);


}  // namespace mgko::solver
