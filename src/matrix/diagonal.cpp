#include "matrix/diagonal.hpp"

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace mgko {


template <typename ValueType>
Diagonal<ValueType>::Diagonal(std::shared_ptr<const Executor> exec,
                              size_type n)
    : LinOp{exec, dim2{n}}, values_{exec, n}
{}


template <typename ValueType>
std::unique_ptr<Diagonal<ValueType>> Diagonal<ValueType>::create(
    std::shared_ptr<const Executor> exec, size_type n)
{
    return std::unique_ptr<Diagonal>{new Diagonal{std::move(exec), n}};
}


template <typename ValueType>
std::unique_ptr<Diagonal<ValueType>> Diagonal<ValueType>::create_from_values(
    std::shared_ptr<const Executor> exec,
    const std::vector<ValueType>& values)
{
    auto result = create(std::move(exec),
                         static_cast<size_type>(values.size()));
    std::copy(values.begin(), values.end(), result->get_values());
    return result;
}


template <typename ValueType>
std::unique_ptr<Diagonal<ValueType>> Diagonal<ValueType>::inverse() const
{
    auto result = create(get_executor(), get_size().rows);
    for (size_type i = 0; i < get_size().rows; ++i) {
        result->get_values()[i] =
            safe_reciprocal(values_.get_const_data()[i]);
    }
    get_executor()->clock().tick(
        sim::profile_stream(static_cast<double>(2 * values_.bytes()), 0.0)
            .time_ns(get_executor()->model()));
    return result;
}


namespace {

template <typename V>
void diagonal_apply(const Executor* exec, const V* diag, const Dense<V>* b,
                    Dense<V>* x, size_type n, bool advanced, V alpha, V beta)
{
    const auto vec_cols = b->get_size().cols;
    kernels::parallel_for(exec->real_threads(), n, [&](size_type i) {
        for (size_type c = 0; c < vec_cols; ++c) {
            const V term =
                diag[i] *
                b->get_const_values()[i * b->get_stride() + c];
            auto& out = x->get_values()[i * x->get_stride() + c];
            out = !advanced           ? term
                  : beta == zero<V>() ? alpha * term
                                      : alpha * term + beta * out;
        }
    });
    kernels::tick(exec,
                  sim::profile_stream(
                      static_cast<double>((3 * n * vec_cols + n) * sizeof(V)),
                      2.0 * static_cast<double>(n * vec_cols)));
}

}  // namespace


template <typename ValueType>
void Diagonal<ValueType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    get_executor()->run("diagonal_apply", [&](const Executor* e) {
        diagonal_apply(e, values_.get_const_data(), dense_b, dense_x,
                       get_size().rows, false, one<ValueType>(),
                       zero<ValueType>());
    });
}


template <typename ValueType>
void Diagonal<ValueType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                     const LinOp* beta, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto a = as_dense<ValueType>(alpha)->at(0, 0);
    const auto bt = as_dense<ValueType>(beta)->at(0, 0);
    get_executor()->run("diagonal_apply", [&](const Executor* e) {
        diagonal_apply(e, values_.get_const_data(), dense_b, dense_x,
                       get_size().rows, true, a, bt);
    });
}


#define MGKO_DECLARE_DIAGONAL(ValueType) template class Diagonal<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_DIAGONAL);


}  // namespace mgko
