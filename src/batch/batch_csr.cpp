#include "batch/batch_csr.hpp"

#include <algorithm>

#include "batch/batch_dense.hpp"
#include "batch/batch_kernels.hpp"
#include "core/kernel_utils.hpp"
#include "matrix/csr.hpp"

namespace mgko::batch {

template <typename ValueType, typename IndexType>
Csr<ValueType, IndexType>::Csr(std::shared_ptr<const Executor> exec,
                               batch_dim size, size_type nnz)
    : BatchLinOp{exec, size},
      values_{exec, size.num_systems * nnz},
      col_idxs_{exec, nnz},
      row_ptrs_{exec, size.common.rows + 1}
{}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> Csr<ValueType, IndexType>::create(
    std::shared_ptr<const Executor> exec, batch_dim size, size_type nnz)
{
    return std::unique_ptr<Csr>{new Csr{std::move(exec), size, nnz}};
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::create_duplicate(
    std::shared_ptr<const Executor> exec, size_type num_systems,
    const matrix_data<ValueType, IndexType>& data)
{
    // The single-system builder owns the sort/merge logic; reuse it to
    // assemble the shared pattern, then fan the values out across systems.
    auto pattern = mgko::Csr<ValueType, IndexType>::create_from_data(exec, data);
    const auto nnz = pattern->get_num_stored_elements();
    auto result =
        create(exec, batch_dim{num_systems, data.size}, nnz);
    std::copy_n(pattern->get_const_row_ptrs(), data.size.rows + 1,
                result->get_row_ptrs());
    std::copy_n(pattern->get_const_col_idxs(), nnz, result->get_col_idxs());
    for (size_type s = 0; s < num_systems; ++s) {
        std::copy_n(pattern->get_const_values(), nnz,
                    result->system_values(s));
    }
    return result;
}


template <typename ValueType, typename IndexType>
std::unique_ptr<mgko::Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::extract_system(size_type s) const
{
    MGKO_ENSURE(s >= 0 && s < get_num_systems(),
                "system index out of bounds");
    const auto nnz = get_num_stored_elements_per_system();
    auto result = mgko::Csr<ValueType, IndexType>::create(
        get_executor(), get_common_size(), nnz);
    std::copy_n(get_const_row_ptrs(), get_common_size().rows + 1,
                result->get_row_ptrs());
    std::copy_n(get_const_col_idxs(), nnz, result->get_col_idxs());
    std::copy_n(system_const_values(s), nnz, result->get_values());
    return result;
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::clone() const
{
    const auto nnz = get_num_stored_elements_per_system();
    auto result = create(get_executor(), get_size(), nnz);
    std::copy_n(get_const_row_ptrs(), get_common_size().rows + 1,
                result->get_row_ptrs());
    std::copy_n(get_const_col_idxs(), nnz, result->get_col_idxs());
    std::copy_n(get_const_values(), get_num_stored_elements(),
                result->get_values());
    return result;
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::apply_raw(const std::uint8_t* active,
                                          const ValueType* b,
                                          ValueType* x) const
{
    const auto rows = get_common_size().rows;
    const auto nnz = get_num_stored_elements_per_system();
    const auto active_systems =
        kernels::batch::count_active(active, get_num_systems());
    get_executor()->run("batch_csr_spmv", [&](const Executor* e) {
        kernels::batch::csr_spmv(e->real_threads(), get_num_systems(),
                                 active, get_const_row_ptrs(),
                                 get_const_col_idxs(), get_const_values(),
                                 rows, nnz, b, x);
        kernels::tick(
            e, kernels::batch::batch_stream_profile(
                   active_systems,
                   static_cast<double>(nnz) *
                           (sizeof(ValueType) + sizeof(IndexType)) +
                       2.0 * static_cast<double>(rows) * sizeof(ValueType),
                   2.0 * static_cast<double>(nnz)));
    });
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::residual_raw(const std::uint8_t* active,
                                             const ValueType* b,
                                             const ValueType* x,
                                             ValueType* r) const
{
    const auto rows = get_common_size().rows;
    const auto nnz = get_num_stored_elements_per_system();
    const auto active_systems =
        kernels::batch::count_active(active, get_num_systems());
    get_executor()->run("batch_csr_residual", [&](const Executor* e) {
        kernels::batch::csr_residual(
            e->real_threads(), get_num_systems(), active,
            get_const_row_ptrs(), get_const_col_idxs(), get_const_values(),
            rows, nnz, b, x, r);
        kernels::tick(
            e,
            kernels::batch::batch_stream_profile(
                active_systems,
                static_cast<double>(nnz) *
                        (sizeof(ValueType) + sizeof(IndexType)) +
                    3.0 * static_cast<double>(rows) * sizeof(ValueType),
                2.0 * static_cast<double>(nnz) +
                    static_cast<double>(rows)));
    });
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::apply_impl(const BatchLinOp* b,
                                           BatchLinOp* x) const
{
    auto batch_b = as_batch_dense<ValueType>(b);
    auto batch_x = as_batch_dense<ValueType>(x);
    MGKO_ENSURE(batch_b->get_common_size().cols == 1 &&
                    batch_x->get_common_size().cols == 1,
                "batched SpMV supports single-column vectors");
    apply_raw(nullptr, batch_b->get_const_values(), batch_x->get_values());
}


template <typename ValueType, typename IndexType>
Csr<ValueType, IndexType>* as_batch_csr(BatchLinOp* op)
{
    auto result = dynamic_cast<Csr<ValueType, IndexType>*>(op);
    if (result == nullptr) {
        MGKO_NOT_SUPPORTED(
            "operand is not a batch::Csr of the expected value/index types");
    }
    return result;
}


template <typename ValueType, typename IndexType>
const Csr<ValueType, IndexType>* as_batch_csr(const BatchLinOp* op)
{
    return as_batch_csr<ValueType, IndexType>(const_cast<BatchLinOp*>(op));
}


#define MGKO_DECLARE_BATCH_CSR(ValueType, IndexType)                     \
    template class Csr<ValueType, IndexType>;                            \
    template Csr<ValueType, IndexType>*                                  \
    as_batch_csr<ValueType, IndexType>(BatchLinOp*);                     \
    template const Csr<ValueType, IndexType>*                            \
    as_batch_csr<ValueType, IndexType>(const BatchLinOp*)
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_BATCH_CSR);


}  // namespace mgko::batch
