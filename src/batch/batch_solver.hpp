// Shared machinery of the batched iterative solvers: the parameter/builder
// pattern, the factory template, and the common solver state — the batched
// mirror of solver/solver_base.hpp.
//
//   auto solver = mgko::batch::Cg<double>::build()
//                     .with_criteria(stop::iteration(200))
//                     .with_criteria(stop::residual_norm(1e-8))
//                     .with_preconditioner(batch::Jacobi<double>::build()
//                                              .on(exec))
//                     .on(exec)
//                     ->generate(A);          // A: batch::Csr / batch::Dense
//   solver->apply(b, x);                      // advances ALL systems
//   auto logger = solver->get_batch_logger(); // per-system diagnostics
//
// The same stop::CriterionFactory objects the single-system solvers take
// are bound once *per system* at the start of every batched apply, each to
// its own right-hand-side norm and initial residual — per-system
// convergence falls out of per-system criteria.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "batch/batch_kernels.hpp"
#include "batch/batch_lin_op.hpp"
#include "batch/batch_log.hpp"
#include "batch/batch_strided_op.hpp"
#include "core/kernel_utils.hpp"
#include "solver/workspace.hpp"
#include "stop/criterion.hpp"

namespace mgko::batch {


/// Parameters shared by the batched iterative solvers.
struct batch_parameters {
    std::vector<std::shared_ptr<const stop::CriterionFactory>> criteria;
    /// Generated per batch system matrix at generate() time.
    std::shared_ptr<const BatchLinOpFactory> preconditioner;
    /// When non-zero, generate() rejects systems whose batch size differs —
    /// the `"batch": N` key of config::solve lands here.
    size_type expected_batch{0};
};


template <typename Solver>
class BatchSolverFactory;

/// Fluent builder over batch_parameters, terminated by .on(exec).
template <typename Solver>
class batch_builder : public batch_parameters {
public:
    batch_builder& with_criteria(
        std::shared_ptr<const stop::CriterionFactory> c)
    {
        criteria.push_back(std::move(c));
        return *this;
    }
    batch_builder& with_preconditioner(
        std::shared_ptr<const BatchLinOpFactory> factory)
    {
        preconditioner = std::move(factory);
        return *this;
    }
    batch_builder& with_batch_size(size_type num_systems)
    {
        expected_batch = num_systems;
        return *this;
    }

    std::shared_ptr<BatchSolverFactory<Solver>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<BatchSolverFactory<Solver>>(std::move(exec),
                                                            *this);
    }
};


template <typename Solver>
class BatchSolverFactory : public BatchLinOpFactory {
public:
    BatchSolverFactory(std::shared_ptr<const Executor> exec,
                       batch_parameters params)
        : BatchLinOpFactory{std::move(exec)}, params_{std::move(params)}
    {}

    const batch_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<BatchLinOp> generate_impl(
        std::shared_ptr<const BatchLinOp> system) const override
    {
        return std::unique_ptr<BatchLinOp>{
            new Solver{get_executor(), params_, std::move(system)}};
    }

private:
    batch_parameters params_;
};


namespace detail {

/// Runs `fn(nt)` as a named executor operation and charges one batched
/// streaming kernel over `active_systems` systems onto the SimClock — the
/// batched solvers' analogue of the Dense kernels' dispatch + tick.
template <typename Fn>
void run_kernel(const std::shared_ptr<const Executor>& exec, const char* name,
                size_type active_systems, double bytes_per_system,
                double flops_per_system, Fn&& fn)
{
    exec->run(name, [&](const Executor* e) {
        fn(e->real_threads());
        kernels::tick(e,
                      kernels::batch::batch_stream_profile(
                          active_systems, bytes_per_system, flops_per_system));
    });
}

}  // namespace detail


/// Common state and helpers of the batched iterative solvers.
template <typename ValueType>
class BatchIterativeSolver : public BatchLinOp {
public:
    using value_type = ValueType;

    std::shared_ptr<const BatchLinOp> get_system_matrix() const
    {
        return system_;
    }
    std::shared_ptr<const BatchLinOp> get_preconditioner() const
    {
        return precond_;
    }
    /// Per-system diagnostics of the most recent apply.
    std::shared_ptr<BatchConvergenceLogger> get_batch_logger() const
    {
        return logger_;
    }
    const batch_parameters& get_parameters() const { return params_; }

protected:
    BatchIterativeSolver(std::shared_ptr<const Executor> exec,
                         batch_parameters params,
                         std::shared_ptr<const BatchLinOp> system)
        : BatchLinOp{exec, system->get_size()},
          params_{std::move(params)},
          system_{std::move(system)},
          logger_{std::make_shared<BatchConvergenceLogger>()},
          workspace_{exec}
    {
        MGKO_ENSURE(
            system_->get_common_size().rows == system_->get_common_size().cols,
            "batched iterative solvers require square systems");
        MGKO_ENSURE(!params_.criteria.empty(),
                    "batched solver requires at least one stopping criterion");
        MGKO_ENSURE(params_.expected_batch == 0 ||
                        params_.expected_batch == system_->get_num_systems(),
                    "system batch size does not match the configured one");
        system_ops_ =
            dynamic_cast<const StridedBatchOp<ValueType>*>(system_.get());
        if (system_ops_ == nullptr) {
            MGKO_NOT_SUPPORTED(
                "batched solvers require a batch::Csr or batch::Dense "
                "system of the solver's value type");
        }
        if (params_.preconditioner) {
            precond_ = params_.preconditioner->generate(system_);
            precond_ops_ =
                dynamic_cast<const StridedBatchOp<ValueType>*>(precond_.get());
            if (precond_ops_ == nullptr) {
                MGKO_NOT_SUPPORTED(
                    "batched solvers require a strided batched "
                    "preconditioner (batch::Jacobi) of the solver's "
                    "value type");
            }
        }
    }

    /// Binds the configured criteria once per system: system s stops
    /// against its own right-hand-side norm and initial residual.
    std::vector<std::unique_ptr<stop::Criterion>> bind_criteria(
        const double* rhs_norms, const double* initial_resnorms) const
    {
        const auto num = this->get_num_systems();
        std::vector<std::unique_ptr<stop::Criterion>> result;
        result.reserve(num);
        for (size_type s = 0; s < num; ++s) {
            result.push_back(stop::Combined{params_.criteria}.create(
                rhs_norms[s], initial_resnorms[s]));
        }
        return result;
    }

    /// z = M^{-1} r over the active systems; identity (copy) when no
    /// preconditioner is configured.
    void apply_preconditioner(const std::uint8_t* active, const ValueType* r,
                              ValueType* z, size_type n) const
    {
        if (precond_ops_ != nullptr) {
            precond_ops_->apply_raw(active, r, z);
        } else {
            const auto num = this->get_num_systems();
            detail::run_kernel(
                this->get_executor(), "batch_identity_apply",
                kernels::batch::count_active(active, num),
                2.0 * static_cast<double>(n) * sizeof(ValueType), 0.0,
                [&](int nt) {
                    kernels::batch::copy(nt, num, active, r, z, n);
                });
        }
    }

    /// Invokes `fn` on every event logger attached to this solver and to
    /// its executor, mirroring the single-system broadcast.
    template <typename Fn>
    void broadcast_event(Fn&& fn) const
    {
        for (const auto& logger : this->get_loggers()) {
            fn(*logger);
        }
        for (const auto& logger : this->get_executor()->get_loggers()) {
            fn(*logger);
        }
    }

    /// Opens a span visible from both attachment points broadcast_event
    /// reaches; the batched solvers bracket their apply
    /// ("batch.<name>.apply") and each round ("batch.<name>.round").
    log::ScopedSpan make_span(const char* name) const
    {
        return log::ScopedSpan{this, this->get_executor().get(), name};
    }

    /// Broadcasts one batch iteration: `active_systems` systems advanced
    /// through `iteration`, the worst of them at `max_residual_norm`.
    void log_batch_iteration(size_type iteration, size_type active_systems,
                             double max_residual_norm) const
    {
        broadcast_event([&](log::EventLogger& l) {
            l.on_batch_iteration_complete(this, iteration, active_systems,
                                          max_residual_norm);
        });
    }

    /// Broadcasts the end of a batched apply, handing loggers the
    /// per-system convergence log so they can label the batch with its
    /// stop reasons.
    void log_batch_stop() const
    {
        broadcast_event([&](log::EventLogger& l) {
            l.on_batch_solver_stop(this, this->get_num_systems(),
                                   logger_->num_converged(),
                                   logger_->max_iterations(), logger_.get());
        });
    }

    batch_parameters params_;
    std::shared_ptr<const BatchLinOp> system_;
    std::shared_ptr<const BatchLinOp> precond_;
    /// The system / preconditioner seen through the raw strided interface
    /// the iteration kernels need (resolved once at generate time).
    const StridedBatchOp<ValueType>* system_ops_{nullptr};
    const StridedBatchOp<ValueType>* precond_ops_{nullptr};
    std::shared_ptr<BatchConvergenceLogger> logger_;
    /// All batched Krylov temporaries live here as flat slots
    /// (num_systems * n values each), allocated on the first apply and
    /// reused by every later one — steady-state batched applies perform
    /// zero executor allocations, exactly like the single-system solvers.
    mutable solver::Workspace<ValueType> workspace_;
    /// Per-system active mask: 1 while a system is still iterating, 0 once
    /// it converged or broke down (host-side, persistent across applies).
    mutable std::vector<std::uint8_t> active_;
};


}  // namespace mgko::batch
