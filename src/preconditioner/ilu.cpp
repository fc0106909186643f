#include "preconditioner/ilu.hpp"

namespace mgko::preconditioner {


template <typename ValueType, typename IndexType>
Ilu<ValueType, IndexType>::Ilu(
    std::shared_ptr<const Executor> exec,
    std::shared_ptr<const Csr<ValueType, IndexType>> system)
    : solver::EnableAdvancedApply<ValueType>{exec, system->get_size()},
      factors_{factorization::factorize_ilu0(system.get())}
{
    lower_solve_ = solver::LowerTrs<ValueType, IndexType>::build()
                       .with_unit_diagonal(true)
                       .on(exec)
                       ->generate(factors_.lower);
    upper_solve_ = solver::UpperTrs<ValueType, IndexType>::build().on(exec)
                       ->generate(factors_.upper);
}


template <typename ValueType, typename IndexType>
void Ilu<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto* y = solver::detail::ensure_vec(
        mid_, this->get_executor(),
        dim2{this->get_size().rows, b->get_size().cols});
    lower_solve_->apply(b, y);
    upper_solve_->apply(y, x);
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp> Ilu<ValueType, IndexType>::Factory::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    auto csr =
        std::dynamic_pointer_cast<const Csr<ValueType, IndexType>>(system);
    if (!csr) {
        MGKO_NOT_SUPPORTED(
            "Ilu requires a Csr system of matching value/index type");
    }
    return std::unique_ptr<LinOp>{
        new Ilu{this->get_executor(), std::move(csr)}};
}


template <typename ValueType, typename IndexType>
Ic<ValueType, IndexType>::Ic(
    std::shared_ptr<const Executor> exec,
    std::shared_ptr<const Csr<ValueType, IndexType>> system)
    : solver::EnableAdvancedApply<ValueType>{exec, system->get_size()},
      lower_{factorization::factorize_ic0(system.get())}
{
    upper_ = lower_->transpose();
    lower_solve_ = solver::LowerTrs<ValueType, IndexType>::build().on(exec)
                       ->generate(lower_);
    upper_solve_ = solver::UpperTrs<ValueType, IndexType>::build().on(exec)
                       ->generate(upper_);
}


template <typename ValueType, typename IndexType>
void Ic<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto* y = solver::detail::ensure_vec(
        mid_, this->get_executor(),
        dim2{this->get_size().rows, b->get_size().cols});
    lower_solve_->apply(b, y);
    upper_solve_->apply(y, x);
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp> Ic<ValueType, IndexType>::Factory::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    auto csr =
        std::dynamic_pointer_cast<const Csr<ValueType, IndexType>>(system);
    if (!csr) {
        MGKO_NOT_SUPPORTED(
            "Ic requires a Csr system of matching value/index type");
    }
    return std::unique_ptr<LinOp>{new Ic{this->get_executor(), std::move(csr)}};
}


#define MGKO_DECLARE_ILU_IC(ValueType, IndexType) \
    template class Ilu<ValueType, IndexType>;     \
    template class Ic<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_ILU_IC);


}  // namespace mgko::preconditioner
