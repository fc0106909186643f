#include "solver/triangular.hpp"

#include <algorithm>
#include <string>
#include <vector>

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
    // lower (upper) entries of the row.  The walk visits rows in sweep
    // order, so a missing diagonal is reported at the first row the sweep
    // would divide by it.
    std::vector<size_type> level(static_cast<std::size_t>(n), 0);
    size_type max_level = 0;
    auto visit = [&](size_type row) {
        size_type lvl = 0;
        bool has_diag = false;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            has_diag = has_diag || col == row;
            const bool is_dep = Lower ? col < row : col > row;
            if (is_dep) {
                lvl = std::max(lvl, level[static_cast<std::size_t>(col)] + 1);
            }
        }
        if (!has_diag && !params_.unit_diagonal) {
            throw NumericalError(
                __FILE__, __LINE__,
                "triangular solve requires a stored diagonal entry in every "
                "row (missing at row " +
                    std::to_string(row) + ")");
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
    num_levels_ = max_level + 1;
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
    const auto* bv = dense_b->get_const_values();
    auto* xv = dense_x->get_values();
    const auto b_stride = dense_b->get_stride();
    const auto x_stride = dense_x->get_stride();
    const auto n = matrix_->get_size().rows;
    const auto nnz = matrix_->get_num_stored_elements();
    const bool unit = params_.unit_diagonal;

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
    // Every backend sweeps the rows in order on the calling thread.  A row
    // reads only rows that are already final and sums its own entries in
    // stored order, so the answer is bitwise that of a level-by-level sweep,
    // which was no faster on the host in 10 of 12 measured cases (DESIGN.md
    // section 3).  The reference executor charges the sweep itself; the
    // others charge the level-scheduled sweep a device would run, one launch
    // per level beyond the first.
    get_executor()->run("trs_solve", [&](const Executor* e) {
        auto solve = [&](size_type row) {
            trs_kernels::solve_row<ValueType, IndexType, Lower>(
                values, col_idxs, row_ptrs, bv, b_stride, xv, x_stride, row,
                vec_cols, unit);
        };
        if (Lower) {
            for (size_type row = 0; row < n; ++row) {
                solve(row);
            }
        } else {
            for (size_type row = n; row-- > 0;) {
                solve(row);
            }
        }
        if (e->kind() == exec_kind::reference) {
            mgko::kernels::tick(e, profile(0.7));
            return;
        }
        auto level_profile = profile(0.6);
        level_profile.extra_launches = static_cast<int>(num_levels() - 1);
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
