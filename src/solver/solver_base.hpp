// Shared machinery for iterative solvers: the parameter/builder pattern,
// the solver factory template, and the common solver state (system matrix,
// preconditioner, criteria, logger).
//
// Usage (mirrors Ginkgo's factory idiom, which pyGinkgo's solver bindings
// wrap — Figure 2 of the paper):
//
//   auto solver = mgko::solver::Cg<double>::build()
//                     .with_criteria(stop::iteration(1000))
//                     .with_criteria(stop::residual_norm(1e-6))
//                     .with_preconditioner(jacobi_factory)
//                     .on(exec)
//                     ->generate(A);
//   solver->apply(b, x);
//   auto logger = solver->get_logger();
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lin_op.hpp"
#include "core/types.hpp"
#include "log/event_logger.hpp"
#include "log/logger.hpp"
#include "matrix/dense.hpp"
#include "solver/workspace.hpp"
#include "stop/criterion.hpp"

namespace mgko::solver {


/// Working precision of a solver's inner stage.  Used by mixed-precision
/// IR (config key "inner_precision"): the outer residual stays in the
/// solver's value type while the inner correction solve runs reduced.
enum class precision { full, single, half_prec };

std::string to_string(precision p);
/// Parses "double"/"full", "float"/"single", "half"; throws BadParameter
/// on anything else.
precision precision_from_string(const std::string& name);


/// Parameters shared by the iterative solvers.  Solvers ignore the fields
/// they do not use (krylov_dim by CG, etc.); the config layer refuses a key
/// that the chosen solver would ignore (config/config_solver.cpp).
struct iterative_parameters {
    std::vector<std::shared_ptr<const stop::CriterionFactory>> criteria;
    /// Generated per system matrix at generate() time.
    std::shared_ptr<const LinOpFactory> preconditioner;
    /// Used directly (overrides `preconditioner`).
    std::shared_ptr<const LinOp> generated_preconditioner;
    /// GMRES restart length (paper default: 30).
    size_type krylov_dim{30};
    /// Richardson relaxation factor.
    double relaxation_factor{1.0};
    /// Inner-stage working precision (mixed-precision IR).
    precision inner_precision{precision::full};
};


/// Fluent builder over iterative_parameters, terminated by .on(exec).
template <typename Solver>
class SolverFactory;

template <typename Solver>
class builder : public iterative_parameters {
public:
    builder& with_criteria(std::shared_ptr<const stop::CriterionFactory> c)
    {
        criteria.push_back(std::move(c));
        return *this;
    }
    builder& with_preconditioner(std::shared_ptr<const LinOpFactory> factory)
    {
        preconditioner = std::move(factory);
        return *this;
    }
    builder& with_generated_preconditioner(std::shared_ptr<const LinOp> op)
    {
        generated_preconditioner = std::move(op);
        return *this;
    }
    builder& with_krylov_dim(size_type dim)
    {
        krylov_dim = dim;
        return *this;
    }
    builder& with_relaxation_factor(double factor)
    {
        relaxation_factor = factor;
        return *this;
    }
    builder& with_inner_precision(precision p)
    {
        inner_precision = p;
        return *this;
    }

    std::shared_ptr<SolverFactory<Solver>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<SolverFactory<Solver>>(std::move(exec), *this);
    }
};


template <typename Solver>
class SolverFactory : public LinOpFactory {
public:
    SolverFactory(std::shared_ptr<const Executor> exec,
                  iterative_parameters params)
        : LinOpFactory{std::move(exec)}, params_{std::move(params)}
    {}

    const iterative_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override
    {
        return std::unique_ptr<LinOp>{
            new Solver{get_executor(), params_, std::move(system)}};
    }

private:
    iterative_parameters params_;
};


/// Common state and helpers of the iterative solvers.
template <typename ValueType>
class IterativeSolver : public EnableAdvancedApply<ValueType, true> {
public:
    using value_type = ValueType;

    std::shared_ptr<const LinOp> get_system_matrix() const { return system_; }
    std::shared_ptr<const LinOp> get_preconditioner() const
    {
        return precond_;
    }
    /// Diagnostics of the most recent apply (paper §3.5: apply returns a
    /// logger alongside the solution).
    std::shared_ptr<log::ConvergenceLogger> get_logger() const
    {
        return logger_;
    }
    const iterative_parameters& get_parameters() const { return params_; }

protected:
    IterativeSolver(std::shared_ptr<const Executor> exec,
                    iterative_parameters params,
                    std::shared_ptr<const LinOp> system)
        : EnableAdvancedApply<ValueType, true>{exec, system->get_size()},
          params_{std::move(params)},
          system_{std::move(system)},
          logger_{std::make_shared<log::ConvergenceLogger>()},
          workspace_{exec}
    {
        MGKO_ENSURE(system_->get_size().rows == system_->get_size().cols,
                    "iterative solvers require a square system");
        MGKO_ENSURE(!params_.criteria.empty(),
                    "solver requires at least one stopping criterion");
        if (params_.generated_preconditioner) {
            MGKO_ASSERT_EQUAL_DIMENSIONS(
                "preconditioner", params_.generated_preconditioner->get_size(),
                system_->get_size());
            precond_ = params_.generated_preconditioner;
        } else if (params_.preconditioner) {
            precond_ = params_.preconditioner->generate(system_);
        } else {
            precond_ = Identity::create(exec, system_->get_size().rows);
        }
    }

    /// Binds the configured criteria to this solve's baselines.
    std::unique_ptr<stop::Criterion> bind_criterion(
        double rhs_norm, double initial_resnorm) const
    {
        return stop::Combined{params_.criteria}.create(rhs_norm,
                                                       initial_resnorm);
    }

    /// Invokes `fn` on every event logger attached to this solver and to
    /// its executor — solver progress is visible from either attachment
    /// point.  One empty check per layer when nothing is attached.
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
    /// reaches (the solver and its executor); destruction closes it, so
    /// early returns keep the trace well nested.  Solvers bracket their
    /// apply ("solver.<name>.apply") and each iteration
    /// ("solver.<name>.iteration") with one of these.
    log::ScopedSpan make_span(const char* name) const
    {
        return log::ScopedSpan{this, this->get_executor().get(), name};
    }

    /// Records one iteration on the ConvergenceLogger and broadcasts it as
    /// an event.  Solvers call this (not logger_ directly) so both sinks
    /// stay consistent; the history convention is one entry per iteration
    /// with entry 0 the initial residual.
    void log_iteration(size_type iteration, double residual_norm) const
    {
        logger_->log_iteration(iteration, residual_norm);
        broadcast_event([&](log::EventLogger& l) {
            l.on_iteration_complete(this, iteration, residual_norm);
        });
    }

    /// Records the stop decision and broadcasts it as an event.
    void log_stop(size_type iteration, bool converged,
                  const std::string& reason) const
    {
        logger_->log_stop(iteration, converged, reason);
        broadcast_event([&](log::EventLogger& l) {
            l.on_solver_stop(this, iteration, converged, reason.c_str());
        });
    }

    /// Replaces the most recently logged residual with a later, more
    /// accurate value (GMRES overwrites the Givens estimate with the true
    /// norm it computes at the restart boundary).
    void update_last_residual(double residual_norm) const
    {
        logger_->update_last(residual_norm);
    }

    /// Krylov solvers here handle one right-hand side per apply.
    static void validate_single_column(const Dense<ValueType>* b)
    {
        if (b->get_size().cols != 1) {
            MGKO_NOT_SUPPORTED(
                "iterative solvers support a single right-hand side column");
        }
    }

    iterative_parameters params_;
    std::shared_ptr<const LinOp> system_;
    std::shared_ptr<const LinOp> precond_;
    std::shared_ptr<log::ConvergenceLogger> logger_;
    /// All Krylov temporaries live here, allocated on first apply() and
    /// reused by every subsequent one (resized only when the system
    /// dimension changes).  Mutable because apply() is logically const.
    mutable Workspace<ValueType> workspace_;
};


}  // namespace mgko::solver
