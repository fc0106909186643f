#include "solver/direct.hpp"

#include <cmath>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "sim/cost_model.hpp"

namespace mgko::solver {


template <typename ValueType, typename IndexType>
Direct<ValueType, IndexType>::Direct(
    std::shared_ptr<const Executor> exec,
    std::shared_ptr<const Csr<ValueType, IndexType>> system)
    : LinOp{exec, system->get_size()}
{
    const auto n = system->get_size().rows;
    MGKO_ENSURE(system->get_size().rows == system->get_size().cols,
                "direct solver requires a square system");
    MGKO_ENSURE(n <= max_dimension,
                "direct solver densifies the system; dimension exceeds the "
                "guard rail");
    lu_ = Dense<ValueType>::create(exec, dim2{n});
    system->convert_to(lu_.get());
    pivots_.resize(static_cast<std::size_t>(n));

    // LU factorization with partial pivoting (accumulated in the value
    // type, as a device implementation would).
    auto* a = lu_->get_values();
    const auto stride = lu_->get_stride();
    for (size_type col = 0; col < n; ++col) {
        size_type pivot = col;
        double best = std::abs(to_float(a[col * stride + col]));
        for (size_type r = col + 1; r < n; ++r) {
            const double candidate = std::abs(to_float(a[r * stride + col]));
            if (candidate > best) {
                best = candidate;
                pivot = r;
            }
        }
        if (best == 0.0) {
            throw NumericalError(__FILE__, __LINE__,
                                 "singular matrix in direct solver at column " +
                                     std::to_string(col));
        }
        pivots_[static_cast<std::size_t>(col)] = pivot;
        if (pivot != col) {
            for (size_type c = 0; c < n; ++c) {
                std::swap(a[col * stride + c], a[pivot * stride + c]);
            }
        }
        const auto diag = a[col * stride + col];
        for (size_type r = col + 1; r < n; ++r) {
            const auto factor = a[r * stride + col] / diag;
            a[r * stride + col] = factor;
            if (factor != zero<ValueType>()) {
                for (size_type c = col + 1; c < n; ++c) {
                    a[r * stride + c] -= factor * a[col * stride + c];
                }
            }
        }
    }
    // Generate-time cost: the O(2/3 n^3) factorization.
    const double nd = static_cast<double>(n);
    exec->clock().tick(
        sim::profile_stream(nd * nd * sizeof(ValueType) * 2.0,
                            2.0 / 3.0 * nd * nd * nd, 0.8)
            .time_ns(exec->model()));
}


template <typename ValueType, typename IndexType>
void Direct<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    log::ScopedSpan apply_span{this, this->get_executor().get(),
                               "solver.direct.apply"};
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto n = get_size().rows;
    const auto vec_cols = dense_b->get_size().cols;
    dense_x->copy_from(dense_b);
    auto* xv = dense_x->get_values();
    const auto xs = dense_x->get_stride();
    const auto* a = lu_->get_const_values();
    const auto stride = lu_->get_stride();

    get_executor()->run("direct_solve", [&](const Executor* e) {
        // apply the pivot permutation
        for (size_type col = 0; col < n; ++col) {
            const auto p = pivots_[static_cast<std::size_t>(col)];
            if (p != col) {
                for (size_type c = 0; c < vec_cols; ++c) {
                    std::swap(xv[col * xs + c], xv[p * xs + c]);
                }
            }
        }
        // forward substitution (unit lower)
        for (size_type r = 1; r < n; ++r) {
            for (size_type c = 0; c < vec_cols; ++c) {
                using acc_t = accumulate_t<ValueType>;
                acc_t acc = static_cast<acc_t>(xv[r * xs + c]);
                for (size_type j = 0; j < r; ++j) {
                    acc -= static_cast<acc_t>(a[r * stride + j]) *
                           static_cast<acc_t>(xv[j * xs + c]);
                }
                xv[r * xs + c] = ValueType{acc};
            }
        }
        // backward substitution
        for (size_type r = n; r-- > 0;) {
            for (size_type c = 0; c < vec_cols; ++c) {
                using acc_t = accumulate_t<ValueType>;
                acc_t acc = static_cast<acc_t>(xv[r * xs + c]);
                for (size_type j = r + 1; j < n; ++j) {
                    acc -= static_cast<acc_t>(a[r * stride + j]) *
                           static_cast<acc_t>(xv[j * xs + c]);
                }
                xv[r * xs + c] =
                    ValueType{acc} / a[r * stride + r];
            }
        }
        const double nd = static_cast<double>(n);
        mgko::kernels::tick(
            e, sim::profile_stream(nd * nd * sizeof(ValueType),
                                   2.0 * nd * nd *
                                       static_cast<double>(vec_cols),
                                   0.8));
    });
}


template <typename ValueType, typename IndexType>
void Direct<ValueType, IndexType>::apply_impl(const LinOp* alpha,
                                              const LinOp* b,
                                              const LinOp* beta,
                                              LinOp* x) const
{
    auto dense_x = as_dense<ValueType>(x);
    auto* tmp = detail::ensure_vec(adv_tmp_, get_executor(),
                                   dense_x->get_size());
    apply_impl(b, tmp);
    dense_x->scale(as_dense<ValueType>(beta));
    dense_x->add_scaled(as_dense<ValueType>(alpha), tmp);
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp> Direct<ValueType, IndexType>::Factory::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    auto csr =
        std::dynamic_pointer_cast<const Csr<ValueType, IndexType>>(system);
    if (!csr) {
        MGKO_NOT_SUPPORTED(
            "Direct requires a Csr system of matching value/index type");
    }
    return std::unique_ptr<LinOp>{
        new Direct{this->get_executor(), std::move(csr)}};
}


#define MGKO_DECLARE_DIRECT(ValueType, IndexType) \
    template class Direct<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_DIRECT);


}  // namespace mgko::solver
