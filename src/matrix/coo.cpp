#include "matrix/coo.hpp"

#include <algorithm>
#include <numeric>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/coo_kernels.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace mgko {


template <typename ValueType, typename IndexType>
Coo<ValueType, IndexType>::Coo(std::shared_ptr<const Executor> exec, dim2 size,
                               size_type nnz)
    : LinOp{exec, size},
      values_{exec, nnz},
      row_idxs_{exec, nnz},
      col_idxs_{exec, nnz}
{}


template <typename ValueType, typename IndexType>
std::unique_ptr<Coo<ValueType, IndexType>> Coo<ValueType, IndexType>::create(
    std::shared_ptr<const Executor> exec, dim2 size, size_type nnz)
{
    return std::unique_ptr<Coo>{new Coo{std::move(exec), size, nnz}};
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Coo<ValueType, IndexType>>
Coo<ValueType, IndexType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<ValueType, IndexType>& data)
{
    auto result = create(std::move(exec), data.size);
    result->read(data);
    return result;
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::read(
    const matrix_data<ValueType, IndexType>& data)
{
    data.validate();
    auto sorted = data;
    sorted.sort_row_major();
    sorted.sum_duplicates();

    set_size(data.size);
    const auto nnz = sorted.num_stored();
    values_.resize_and_reset(nnz);
    row_idxs_.resize_and_reset(nnz);
    col_idxs_.resize_and_reset(nnz);
    for (size_type i = 0; i < nnz; ++i) {
        const auto& e = sorted.entries[static_cast<std::size_t>(i)];
        values_.get_data()[i] = e.value;
        row_idxs_.get_data()[i] = e.row;
        col_idxs_.get_data()[i] = e.col;
    }
    miss_rate_ = -1.0;
}


template <typename ValueType, typename IndexType>
matrix_data<ValueType, IndexType> Coo<ValueType, IndexType>::to_data() const
{
    matrix_data<ValueType, IndexType> result{get_size()};
    result.entries.reserve(static_cast<std::size_t>(values_.size()));
    for (size_type k = 0; k < values_.size(); ++k) {
        result.add(row_idxs_.get_const_data()[k],
                   col_idxs_.get_const_data()[k],
                   values_.get_const_data()[k]);
    }
    return result;
}


template <typename ValueType, typename IndexType>
sim::kernel_profile Coo<ValueType, IndexType>::spmv_profile(
    sim::spmv_strategy s, const sim::MachineModel& m, size_type vec_cols,
    bool advanced) const
{
    if (miss_rate_ < 0.0) {
        miss_rate_ = sim::locality_miss_rate(get_const_col_idxs(),
                                             values_.size(), get_size().cols);
    }
    return sim::assemble_spmv_profile(
        s, m, get_size().rows, values_.size(),
        static_cast<size_type>(sizeof(ValueType)),
        static_cast<size_type>(sizeof(IndexType)), miss_rate_,
        sim::strategy_imbalance<IndexType>(s, m, get_size().rows, nullptr),
        vec_cols, advanced);
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto dense_x = as_dense<ValueType>(x);
    dense_x->fill(zero<ValueType>());
    // COO SpMV naturally accumulates: x += A b.
    apply_accumulate(b, dense_x);
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                           const LinOp* beta, LinOp* x) const
{
    auto dense_x = as_dense<ValueType>(x);
    // x = alpha * A * b + beta * x: scale x by beta, accumulate alpha-scaled
    // product through a temporary.
    auto tmp = Dense<ValueType>::create(get_executor(), dense_x->get_size());
    tmp->fill(zero<ValueType>());
    apply_accumulate(b, tmp.get());
    dense_x->scale(as_dense<ValueType>(beta));
    dense_x->add_scaled(as_dense<ValueType>(alpha), tmp.get());
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::apply_accumulate(const LinOp* b,
                                                 Dense<ValueType>* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    const auto nnz = values_.size();
    const auto vec_cols = dense_b->get_size().cols;
    const auto* values = get_const_values();
    const auto* row_idxs = get_const_row_idxs();
    const auto* col_idxs = get_const_col_idxs();

    // The reference executor sums in serial order; every other backend
    // runs the flat atomic kernel over the nonzeros.
    get_executor()->run("coo_spmv", [&](const Executor* e) {
        const bool serial = e->kind() == exec_kind::reference;
        if (serial) {
            kernels::coo::spmv_serial(values, row_idxs, col_idxs, nnz,
                                      dense_b->get_const_values(),
                                      dense_b->get_stride(), x->get_values(),
                                      x->get_stride(), vec_cols);
        } else {
            kernels::coo::spmv_flat(e->real_threads(), values, row_idxs,
                                    col_idxs, nnz, dense_b->get_const_values(),
                                    dense_b->get_stride(), x->get_values(),
                                    x->get_stride(), vec_cols);
        }
        kernels::tick(e, spmv_profile(serial
                                          ? sim::spmv_strategy::serial
                                          : sim::spmv_strategy::coo_flat_atomic,
                                      e->model(), vec_cols, false));
    });
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Coo<ValueType, IndexType>> Coo<ValueType, IndexType>::clone_to(
    std::shared_ptr<const Executor> exec) const
{
    auto result = create(exec, get_size(), values_.size());
    result->values_ = array<ValueType>{exec, values_};
    result->row_idxs_ = array<IndexType>{exec, row_idxs_};
    result->col_idxs_ = array<IndexType>{exec, col_idxs_};
    return result;
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::convert_to(
    Csr<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


template <typename ValueType, typename IndexType>
void Coo<ValueType, IndexType>::convert_to(Dense<ValueType>* result) const
{
    result->read(to_data().template cast<ValueType, int64>());
}


#define MGKO_DECLARE_COO(ValueType, IndexType) \
    template class Coo<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_COO);


}  // namespace mgko
