#include "multigrid/amg_solver.hpp"

#include <cmath>

#include "solver/detail.hpp"

namespace mgko::multigrid {

namespace {

enum amg_slots : std::size_t {
    ws_r,
    ws_reduce,
    ws_one,
    ws_neg_one,
};

template <typename ValueType, typename IndexType>
std::shared_ptr<const Csr<ValueType, IndexType>> require_csr(
    const std::shared_ptr<const LinOp>& system)
{
    auto csr =
        std::dynamic_pointer_cast<const Csr<ValueType, IndexType>>(system);
    if (!csr) {
        MGKO_NOT_SUPPORTED(
            "AMG requires a Csr system of matching value/index type");
    }
    return csr;
}

}  // namespace


template <typename ValueType, typename IndexType>
AmgSolver<ValueType, IndexType>::AmgSolver(
    std::shared_ptr<const Executor> exec, amg_solver_parameters params,
    std::shared_ptr<const LinOp> system)
    : solver::IterativeSolver<ValueType>{exec, params, system},
      amg_params_{params.amg},
      hierarchy_{std::make_unique<Hierarchy<ValueType, IndexType>>(
          exec, params.amg, require_csr<ValueType, IndexType>(system))}
{}


template <typename ValueType, typename IndexType>
void AmgSolver<ValueType, IndexType>::apply_impl(const LinOp* b,
                                                 LinOp* x) const
{
    auto apply_span = this->make_span("solver.amg.apply");
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    this->validate_single_column(dense_b);
    this->logger_->reset();

    const auto n = this->get_size().rows;
    auto& ws = this->workspace_;
    auto* r = ws.vec(ws_r, dim2{n, 1});
    auto* reduce = ws.vec(ws_reduce, dim2{1, 1});
    auto* one_s = ws.scalar(ws_one, 1.0);
    auto* neg_one_s = ws.scalar(ws_neg_one, -1.0);

    const double b_norm = solver::detail::norm2(dense_b, reduce);
    double r_norm = solver::detail::compute_residual(
        this->system_.get(), dense_b, dense_x, r, one_s, neg_one_s, reduce);
    auto criterion = this->bind_criterion(b_norm, r_norm);
    this->log_iteration(0, r_norm);

    size_type iter = 0;
    while (!criterion->is_satisfied(iter, r_norm)) {
        auto iteration_span = this->make_span("solver.amg.iteration");
        hierarchy_->cycle(dense_b, dense_x, this);
        r_norm = solver::detail::compute_residual(this->system_.get(),
                                                  dense_b, dense_x, r, one_s,
                                                  neg_one_s, reduce);
        ++iter;
        this->log_iteration(iter, r_norm);
        if (!std::isfinite(r_norm)) {
            this->log_stop(iter, false, "breakdown: non-finite residual");
            return;
        }
    }
    this->log_stop(iter, criterion->indicates_convergence(),
                   criterion->reason());
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp> AmgSolverFactory<ValueType, IndexType>::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    return std::unique_ptr<LinOp>{new AmgSolver<ValueType, IndexType>{
        get_executor(), params_, std::move(system)}};
}


template <typename ValueType, typename IndexType>
AmgPreconditioner<ValueType, IndexType>::AmgPreconditioner(
    std::shared_ptr<const Executor> exec, amg_parameters params,
    std::shared_ptr<const Csr<ValueType, IndexType>> system)
    : LinOp{exec, system->get_size()},
      params_{params},
      hierarchy_{std::make_unique<Hierarchy<ValueType, IndexType>>(
          exec, params, std::move(system))}
{
    MGKO_ENSURE(params_.cycles >= 1,
                "AMG preconditioner needs at least one cycle");
}


template <typename ValueType, typename IndexType>
void AmgPreconditioner<ValueType, IndexType>::apply_impl(const LinOp* b,
                                                         LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    // The first cycle starts from x = 0 whatever x holds on entry.
    hierarchy_->run_cycle(dense_b, dense_x, this, true);
    for (size_type c = 1; c < params_.cycles; ++c) {
        hierarchy_->cycle(dense_b, dense_x, this);
    }
}


template <typename ValueType, typename IndexType>
void AmgPreconditioner<ValueType, IndexType>::apply_impl(const LinOp* alpha,
                                                         const LinOp* b,
                                                         const LinOp* beta,
                                                         LinOp* x) const
{
    auto dense_x = as_dense<ValueType>(x);
    auto* tmp = solver::detail::ensure_vec(adv_tmp_, get_executor(),
                                           dense_x->get_size());
    apply_impl(b, tmp);
    dense_x->scale(as_dense<ValueType>(beta));
    dense_x->add_scaled(as_dense<ValueType>(alpha), tmp);
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp>
AmgPreconditionerFactory<ValueType, IndexType>::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    return std::unique_ptr<LinOp>{new AmgPreconditioner<ValueType, IndexType>{
        get_executor(), params_,
        require_csr<ValueType, IndexType>(system)}};
}


#define MGKO_DECLARE_AMG_SOLVER(ValueType, IndexType)              \
    template class AmgSolver<ValueType, IndexType>;                \
    template class AmgSolverFactory<ValueType, IndexType>;         \
    template class AmgPreconditioner<ValueType, IndexType>;        \
    template class AmgPreconditionerFactory<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_AMG_SOLVER);


}  // namespace mgko::multigrid
