#include "batch/batch_jacobi.hpp"

#include <utility>

#include "batch/batch_csr.hpp"
#include "batch/batch_dense.hpp"
#include "batch/batch_kernels.hpp"
#include "core/kernel_utils.hpp"
#include "core/math.hpp"

namespace mgko::batch {

namespace {

/// Extracts the inverted per-system diagonals of a shared-pattern batch CSR.
template <typename V, typename I>
bool extract_inv_diag_csr(const BatchLinOp* system, array<V>& inv_diag)
{
    auto csr = dynamic_cast<const Csr<V, I>*>(system);
    if (csr == nullptr) {
        return false;
    }
    const auto n = csr->get_common_size().rows;
    const auto nnz = csr->get_num_stored_elements_per_system();
    const auto* row_ptrs = csr->get_const_row_ptrs();
    const auto* col_idxs = csr->get_const_col_idxs();
    auto* out = inv_diag.get_data();
    for (size_type s = 0; s < csr->get_num_systems(); ++s) {
        const auto* values = csr->get_const_values() + s * nnz;
        for (size_type row = 0; row < n; ++row) {
            V diag = zero<V>();
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                if (static_cast<size_type>(col_idxs[k]) == row) {
                    diag = values[k];
                }
            }
            out[s * n + row] = safe_reciprocal(diag);
        }
    }
    return true;
}


template <typename V>
bool extract_inv_diag_dense(const BatchLinOp* system, array<V>& inv_diag)
{
    auto dense = dynamic_cast<const Dense<V>*>(system);
    if (dense == nullptr) {
        return false;
    }
    const auto n = dense->get_common_size().rows;
    auto* out = inv_diag.get_data();
    for (size_type s = 0; s < dense->get_num_systems(); ++s) {
        for (size_type row = 0; row < n; ++row) {
            out[s * n + row] = safe_reciprocal(dense->at(s, row, row));
        }
    }
    return true;
}

}  // namespace


template <typename ValueType>
Jacobi<ValueType>::Jacobi(std::shared_ptr<const Executor> exec,
                          batch_dim size, array<ValueType> inv_diag)
    : BatchLinOp{std::move(exec), size}, inv_diag_{std::move(inv_diag)}
{}


template <typename ValueType>
void Jacobi<ValueType>::apply_raw(const std::uint8_t* active,
                                  const ValueType* b, ValueType* x) const
{
    const auto n = get_common_size().rows;
    const auto active_systems =
        kernels::batch::count_active(active, get_num_systems());
    get_executor()->run("batch_jacobi_apply", [&](const Executor* e) {
        kernels::batch::jacobi_apply(e->real_threads(),
                                     get_num_systems(), active,
                                     inv_diag_.get_const_data(), b, x, n);
        kernels::tick(e, kernels::batch::batch_stream_profile(
                             active_systems,
                             3.0 * static_cast<double>(n) *
                                 sizeof(ValueType),
                             static_cast<double>(n)));
    });
}


template <typename ValueType>
void Jacobi<ValueType>::residual_raw(const std::uint8_t* active,
                                     const ValueType* b, const ValueType* x,
                                     ValueType* r) const
{
    const auto n = get_common_size().rows;
    const auto num = get_num_systems();
    get_executor()->run("batch_jacobi_residual", [&](const Executor* e) {
        const auto nt = e->real_threads();
        const auto* inv_diag = inv_diag_.get_const_data();
#pragma omp parallel for num_threads(nt) if (nt > 1)
        for (size_type s = 0; s < num; ++s) {
            if (active != nullptr && !active[s]) {
                continue;
            }
            for (size_type i = 0; i < n; ++i) {
                const auto idx = s * n + i;
                // The stored data is the inverse diagonal, so the
                // operator's diagonal entry is its reciprocal.
                r[idx] = b[idx] -
                         safe_reciprocal(inv_diag[idx]) * x[idx];
            }
        }
        kernels::tick(
            e, kernels::batch::batch_stream_profile(
                   kernels::batch::count_active(active, num),
                   4.0 * static_cast<double>(n) * sizeof(ValueType),
                   2.0 * static_cast<double>(n)));
    });
}


template <typename ValueType>
void Jacobi<ValueType>::apply_impl(const BatchLinOp* b, BatchLinOp* x) const
{
    auto batch_b = as_batch_dense<ValueType>(b);
    auto batch_x = as_batch_dense<ValueType>(x);
    MGKO_ENSURE(batch_b->get_common_size().cols == 1 &&
                    batch_x->get_common_size().cols == 1,
                "batched Jacobi supports single-column vectors");
    apply_raw(nullptr, batch_b->get_const_values(), batch_x->get_values());
}


template <typename ValueType>
std::unique_ptr<BatchLinOp> JacobiFactory<ValueType>::generate_impl(
    std::shared_ptr<const BatchLinOp> system) const
{
    MGKO_ENSURE(
        system->get_common_size().rows == system->get_common_size().cols,
        "batched Jacobi requires square systems");
    const auto size = system->get_size();
    array<ValueType> inv_diag{get_executor(),
                              size.num_systems * size.common.rows};
    if (!extract_inv_diag_csr<ValueType, int32>(system.get(), inv_diag) &&
        !extract_inv_diag_csr<ValueType, int64>(system.get(), inv_diag) &&
        !extract_inv_diag_dense<ValueType>(system.get(), inv_diag)) {
        MGKO_NOT_SUPPORTED(
            "batched Jacobi requires a batch::Csr or batch::Dense system "
            "of the preconditioner's value type");
    }
    // Generate-time cost: one sweep over the batch diagonal.
    get_executor()->clock().tick(
        static_cast<double>(inv_diag.bytes()) /
        get_executor()->model().bandwidth_gbps);
    return std::unique_ptr<BatchLinOp>{new Jacobi<ValueType>{
        get_executor(), batch_dim{size.num_systems, size.common},
        std::move(inv_diag)}};
}


#define MGKO_DECLARE_BATCH_JACOBI(ValueType)      \
    template class Jacobi<ValueType>;             \
    template class JacobiFactory<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_BATCH_JACOBI);


}  // namespace mgko::batch
