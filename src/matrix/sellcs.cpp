#include "matrix/sellcs.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace mgko {

namespace kernels::sellcs {

// Slice-local column-major SELL-C-σ: slot k of lane i in slice s lives at
// (slice_sets[s] + k) * C + i, so each k step reads one contiguous C-wide
// stripe of values/col_idxs — the per-slice vectorizable access the format
// exists for.  `perm[storage_row] = original_row` undoes the σ-window sort
// on the output side.
template <typename V, typename I>
void spmv(int nt, const V* values, const I* col_idxs, const I* slice_sets,
          const I* perm, size_type rows, size_type slice_size,
          size_type num_slices, const V* b, size_type b_stride, V* x,
          size_type x_stride, size_type vec_cols, bool advanced, V alpha,
          V beta)
{
    parallel_for(nt, num_slices, [&](size_type s) {
        using acc_t = accumulate_t<V>;
        const auto set = static_cast<size_type>(slice_sets[s]);
        const auto width = static_cast<size_type>(slice_sets[s + 1]) - set;
        const auto base = s * slice_size;
        const auto lanes = std::min(slice_size, rows - base);
        acc_t acc[SellCs<V, I>::max_slice_size];
        for (size_type c = 0; c < vec_cols; ++c) {
            for (size_type i = 0; i < lanes; ++i) {
                acc[i] = acc_t{};
            }
            for (size_type k = 0; k < width; ++k) {
                const auto stripe = (set + k) * slice_size;
#pragma omp simd
                for (size_type i = 0; i < lanes; ++i) {
                    const auto col =
                        static_cast<size_type>(col_idxs[stripe + i]);
                    acc[i] += static_cast<acc_t>(values[stripe + i]) *
                              static_cast<acc_t>(b[col * b_stride + c]);
                }
            }
            for (size_type i = 0; i < lanes; ++i) {
                const auto row = static_cast<size_type>(perm[base + i]);
                auto& out = x[row * x_stride + c];
                // beta == 0 must not read `out` (may be uninitialized).
                out = !advanced           ? V{acc[i]}
                      : beta == zero<V>() ? alpha * V{acc[i]}
                                          : alpha * V{acc[i]} + beta * out;
            }
        }
    });
}

}  // namespace kernels::sellcs


template <typename ValueType, typename IndexType>
SellCs<ValueType, IndexType>::SellCs(std::shared_ptr<const Executor> exec,
                                     dim2 size, size_type slice_size,
                                     size_type sorting_window)
    : LinOp{exec, size},
      values_{exec, 0},
      col_idxs_{exec, 0},
      slice_sets_{exec, 0},
      perm_{exec, 0},
      slice_size_{slice_size},
      sorting_window_{sorting_window}
{
    MGKO_ENSURE(slice_size_ >= 1 && slice_size_ <= max_slice_size,
                "SELL-C-σ slice size must be in [1, 256]");
    MGKO_ENSURE(sorting_window_ >= 1,
                "SELL-C-σ sorting window must be positive");
}


template <typename ValueType, typename IndexType>
std::unique_ptr<SellCs<ValueType, IndexType>>
SellCs<ValueType, IndexType>::create(std::shared_ptr<const Executor> exec,
                                     dim2 size, size_type slice_size,
                                     size_type sorting_window)
{
    return std::unique_ptr<SellCs>{
        new SellCs{std::move(exec), size, slice_size, sorting_window}};
}


template <typename ValueType, typename IndexType>
std::unique_ptr<SellCs<ValueType, IndexType>>
SellCs<ValueType, IndexType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<ValueType, IndexType>& data, size_type slice_size,
    size_type sorting_window)
{
    auto result = create(std::move(exec), data.size, slice_size,
                         sorting_window);
    result->read(data);
    return result;
}


template <typename ValueType, typename IndexType>
void SellCs<ValueType, IndexType>::read(
    const matrix_data<ValueType, IndexType>& data)
{
    data.validate();
    auto sorted = data;
    sorted.sort_row_major();
    sorted.sum_duplicates();

    set_size(data.size);
    const auto rows = data.size.rows;
    std::vector<size_type> row_nnz(static_cast<std::size_t>(rows), 0);
    for (const auto& e : sorted.entries) {
        ++row_nnz[static_cast<std::size_t>(e.row)];
    }
    // Row offsets into the sorted entry list (CSR-style prefix sum).
    std::vector<size_type> row_begin(static_cast<std::size_t>(rows) + 1, 0);
    for (size_type r = 0; r < rows; ++r) {
        row_begin[static_cast<std::size_t>(r) + 1] =
            row_begin[static_cast<std::size_t>(r)] +
            row_nnz[static_cast<std::size_t>(r)];
    }

    // σ-window sort: within each window of `sorting_window_` rows, order
    // rows by descending length (stable, so ties keep the natural order);
    // a window larger than the matrix degenerates to one global sort.
    std::vector<IndexType> perm(static_cast<std::size_t>(rows));
    std::iota(perm.begin(), perm.end(), IndexType{});
    for (size_type w = 0; w < rows; w += sorting_window_) {
        const auto end = std::min(rows, w + sorting_window_);
        std::stable_sort(perm.begin() + w, perm.begin() + end,
                         [&](IndexType a, IndexType b) {
                             return row_nnz[static_cast<std::size_t>(a)] >
                                    row_nnz[static_cast<std::size_t>(b)];
                         });
    }

    const auto num_slices = ceildiv(rows, slice_size_);
    slice_sets_.resize_and_reset(num_slices + 1);
    auto* sets = slice_sets_.get_data();
    sets[0] = IndexType{};
    for (size_type s = 0; s < num_slices; ++s) {
        size_type width = 0;
        const auto base = s * slice_size_;
        const auto lanes = std::min(slice_size_, rows - base);
        for (size_type i = 0; i < lanes; ++i) {
            width = std::max(
                width, row_nnz[static_cast<std::size_t>(
                           perm[static_cast<std::size_t>(base + i)])]);
        }
        sets[s + 1] = sets[s] + static_cast<IndexType>(width);
    }

    const auto stored =
        static_cast<size_type>(sets[num_slices]) * slice_size_;
    values_.resize_and_reset(stored);
    col_idxs_.resize_and_reset(stored);
    std::fill_n(values_.get_data(), values_.size(), zero<ValueType>());
    // Padding points at column 0 with value 0, keeping reads in bounds.
    std::fill_n(col_idxs_.get_data(), col_idxs_.size(), IndexType{});

    perm_.resize_and_reset(rows);
    std::copy(perm.begin(), perm.end(), perm_.get_data());
    for (size_type s = 0; s < num_slices; ++s) {
        const auto base = s * slice_size_;
        const auto lanes = std::min(slice_size_, rows - base);
        for (size_type i = 0; i < lanes; ++i) {
            const auto row = static_cast<size_type>(
                perm[static_cast<std::size_t>(base + i)]);
            const auto begin = row_begin[static_cast<std::size_t>(row)];
            const auto len = row_nnz[static_cast<std::size_t>(row)];
            for (size_type k = 0; k < len; ++k) {
                const auto idx =
                    (static_cast<size_type>(sets[s]) + k) * slice_size_ + i;
                values_.get_data()[idx] =
                    sorted.entries[static_cast<std::size_t>(begin + k)].value;
                col_idxs_.get_data()[idx] =
                    sorted.entries[static_cast<std::size_t>(begin + k)].col;
            }
        }
    }
    nnz_ = static_cast<size_type>(sorted.entries.size());
    miss_rate_ = -1.0;
}


template <typename ValueType, typename IndexType>
matrix_data<ValueType, IndexType> SellCs<ValueType, IndexType>::to_data()
    const
{
    matrix_data<ValueType, IndexType> result{get_size()};
    const auto rows = get_size().rows;
    const auto* sets = slice_sets_.get_const_data();
    for (size_type s = 0; s < get_num_slices(); ++s) {
        const auto base = s * slice_size_;
        const auto lanes = std::min(slice_size_, rows - base);
        const auto width =
            static_cast<size_type>(sets[s + 1]) - static_cast<size_type>(sets[s]);
        for (size_type i = 0; i < lanes; ++i) {
            const auto row = perm_.get_const_data()[base + i];
            for (size_type k = 0; k < width; ++k) {
                const auto idx =
                    (static_cast<size_type>(sets[s]) + k) * slice_size_ + i;
                const auto v = values_.get_const_data()[idx];
                if (v != zero<ValueType>()) {
                    result.add(row, col_idxs_.get_const_data()[idx], v);
                }
            }
        }
    }
    result.sort_row_major();
    return result;
}


template <typename ValueType, typename IndexType>
sim::kernel_profile SellCs<ValueType, IndexType>::spmv_profile(
    const sim::MachineModel& m, size_type vec_cols, bool advanced) const
{
    if (miss_rate_ < 0.0) {
        miss_rate_ = sim::locality_miss_rate(get_const_col_idxs(),
                                             col_idxs_.size(),
                                             get_size().cols);
    }
    return sim::assemble_spmv_profile(
        sim::spmv_strategy::sellcs, m, get_size().rows, nnz_,
        static_cast<size_type>(sizeof(ValueType)),
        static_cast<size_type>(sizeof(IndexType)), miss_rate_, 1.0, vec_cols,
        advanced, get_num_stored_elements());
}


namespace {

template <typename V, typename I>
void sellcs_apply(const SellCs<V, I>* mat, const LinOp* b, LinOp* x,
                  bool advanced, V alpha, V beta)
{
    auto dense_b = as_dense<V>(b);
    auto dense_x = as_dense<V>(x);
    const auto vec_cols = dense_b->get_size().cols;
    mat->get_executor()->run("sellcs_spmv", [&](const Executor* e) {
        kernels::sellcs::spmv(
            e->real_threads(), mat->get_const_values(),
            mat->get_const_col_idxs(), mat->get_const_slice_sets(),
            mat->get_const_permutation(), mat->get_size().rows,
            mat->get_slice_size(), mat->get_num_slices(),
            dense_b->get_const_values(), dense_b->get_stride(),
            dense_x->get_values(), dense_x->get_stride(), vec_cols, advanced,
            alpha, beta);
        kernels::tick(e, mat->spmv_profile(e->model(), vec_cols, advanced));
    });
}

}  // namespace


template <typename ValueType, typename IndexType>
void SellCs<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    sellcs_apply(this, b, x, false, one<ValueType>(), zero<ValueType>());
}


template <typename ValueType, typename IndexType>
void SellCs<ValueType, IndexType>::apply_impl(const LinOp* alpha,
                                              const LinOp* b,
                                              const LinOp* beta,
                                              LinOp* x) const
{
    sellcs_apply(this, b, x, true, as_dense<ValueType>(alpha)->at(0, 0),
                 as_dense<ValueType>(beta)->at(0, 0));
}


template <typename ValueType, typename IndexType>
void SellCs<ValueType, IndexType>::convert_to(
    Csr<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


#define MGKO_DECLARE_SELLCS(ValueType, IndexType) \
    template class SellCs<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_SELLCS);


}  // namespace mgko
