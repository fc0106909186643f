#include "matrix/ell.hpp"

#include <algorithm>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace mgko {

namespace kernels::ell {

// Column-major ELL: slot k of row r lives at [k * rows + r].
template <typename V, typename I>
void spmv(int nt, const V* values, const I* col_idxs, size_type rows,
          size_type width, const V* b, size_type b_stride, V* x,
          size_type x_stride, size_type vec_cols, bool advanced, V alpha,
          V beta)
{
    parallel_for(nt, rows, [&](size_type row) {
        for (size_type c = 0; c < vec_cols; ++c) {
            using acc_t = accumulate_t<V>;
            acc_t acc{};
            for (size_type k = 0; k < width; ++k) {
                const auto idx = k * rows + row;
                const auto col = static_cast<size_type>(col_idxs[idx]);
                acc += static_cast<acc_t>(values[idx]) *
                       static_cast<acc_t>(b[col * b_stride + c]);
            }
            auto& out = x[row * x_stride + c];
            // beta == 0 must not read `out` (may be uninitialized).
            out = !advanced           ? V{acc}
                  : beta == zero<V>() ? alpha * V{acc}
                                      : alpha * V{acc} + beta * out;
        }
    });
}

}  // namespace kernels::ell


template <typename ValueType, typename IndexType>
Ell<ValueType, IndexType>::Ell(std::shared_ptr<const Executor> exec, dim2 size,
                               size_type width)
    : LinOp{exec, size},
      values_{exec, size.rows * width},
      col_idxs_{exec, size.rows * width},
      width_{width}
{}


template <typename ValueType, typename IndexType>
std::unique_ptr<Ell<ValueType, IndexType>> Ell<ValueType, IndexType>::create(
    std::shared_ptr<const Executor> exec, dim2 size,
    size_type num_stored_per_row)
{
    return std::unique_ptr<Ell>{
        new Ell{std::move(exec), size, num_stored_per_row}};
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Ell<ValueType, IndexType>>
Ell<ValueType, IndexType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<ValueType, IndexType>& data)
{
    auto result = create(std::move(exec), data.size);
    result->read(data);
    return result;
}


template <typename ValueType, typename IndexType>
void Ell<ValueType, IndexType>::read(
    const matrix_data<ValueType, IndexType>& data)
{
    data.validate();
    auto sorted = data;
    sorted.sort_row_major();
    sorted.sum_duplicates();

    // Width = longest row.
    std::vector<size_type> row_nnz(static_cast<std::size_t>(data.size.rows),
                                   0);
    for (const auto& e : sorted.entries) {
        ++row_nnz[static_cast<std::size_t>(e.row)];
    }
    const auto width =
        data.size.rows == 0
            ? size_type{0}
            : *std::max_element(row_nnz.begin(), row_nnz.end());

    set_size(data.size);
    width_ = width;
    const auto rows = data.size.rows;
    values_.resize_and_reset(rows * width);
    col_idxs_.resize_and_reset(rows * width);
    std::fill_n(values_.get_data(), values_.size(), zero<ValueType>());
    // Padding points at column 0 with value 0, keeping reads in bounds.
    std::fill_n(col_idxs_.get_data(), col_idxs_.size(), IndexType{});

    std::vector<size_type> slot(static_cast<std::size_t>(rows), 0);
    for (const auto& e : sorted.entries) {
        const auto r = static_cast<size_type>(e.row);
        const auto k = slot[static_cast<std::size_t>(r)]++;
        values_.get_data()[k * rows + r] = e.value;
        col_idxs_.get_data()[k * rows + r] = e.col;
    }
    miss_rate_ = -1.0;
}


template <typename ValueType, typename IndexType>
matrix_data<ValueType, IndexType> Ell<ValueType, IndexType>::to_data() const
{
    matrix_data<ValueType, IndexType> result{get_size()};
    const auto rows = get_size().rows;
    for (size_type r = 0; r < rows; ++r) {
        for (size_type k = 0; k < width_; ++k) {
            const auto v = values_.get_const_data()[k * rows + r];
            if (v != zero<ValueType>()) {
                result.add(static_cast<IndexType>(r),
                           col_idxs_.get_const_data()[k * rows + r], v);
            }
        }
    }
    return result;
}


template <typename ValueType, typename IndexType>
ValueType Ell<ValueType, IndexType>::value_at(size_type row,
                                              size_type slot) const
{
    return values_.at(slot * get_size().rows + row);
}


template <typename ValueType, typename IndexType>
IndexType Ell<ValueType, IndexType>::col_at(size_type row,
                                            size_type slot) const
{
    return col_idxs_.at(slot * get_size().rows + row);
}


template <typename ValueType, typename IndexType>
sim::kernel_profile Ell<ValueType, IndexType>::spmv_profile(
    const sim::MachineModel& m, size_type vec_cols, bool advanced) const
{
    if (miss_rate_ < 0.0) {
        miss_rate_ = sim::locality_miss_rate(get_const_col_idxs(),
                                             col_idxs_.size(),
                                             get_size().cols);
    }
    return sim::assemble_spmv_profile(
        sim::spmv_strategy::ell_rowmajor, m, get_size().rows,
        get_size().rows * width_, static_cast<size_type>(sizeof(ValueType)),
        static_cast<size_type>(sizeof(IndexType)), miss_rate_, 1.0, vec_cols,
        advanced, width_);
}


namespace {

template <typename V, typename I>
void ell_apply(const Ell<V, I>* mat, const LinOp* b, LinOp* x, bool advanced,
               V alpha, V beta)
{
    auto dense_b = as_dense<V>(b);
    auto dense_x = as_dense<V>(x);
    const auto vec_cols = dense_b->get_size().cols;
    mat->get_executor()->run("ell_spmv", [&](const Executor* e) {
        kernels::ell::spmv(e->real_threads(), mat->get_const_values(),
                           mat->get_const_col_idxs(), mat->get_size().rows,
                           mat->get_num_stored_per_row(),
                           dense_b->get_const_values(), dense_b->get_stride(),
                           dense_x->get_values(), dense_x->get_stride(),
                           vec_cols, advanced, alpha, beta);
        kernels::tick(e, mat->spmv_profile(e->model(), vec_cols, advanced));
    });
}

}  // namespace


template <typename ValueType, typename IndexType>
void Ell<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    ell_apply(this, b, x, false, one<ValueType>(), zero<ValueType>());
}


template <typename ValueType, typename IndexType>
void Ell<ValueType, IndexType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                           const LinOp* beta, LinOp* x) const
{
    ell_apply(this, b, x, true, as_dense<ValueType>(alpha)->at(0, 0),
              as_dense<ValueType>(beta)->at(0, 0));
}


template <typename ValueType, typename IndexType>
void Ell<ValueType, IndexType>::convert_to(
    Csr<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


#define MGKO_DECLARE_ELL(ValueType, IndexType) \
    template class Ell<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_ELL);


}  // namespace mgko
