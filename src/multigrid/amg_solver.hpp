// Standalone AMG V-cycle solver and the AMG preconditioner (DESIGN.md §16).
//
//   auto solver = multigrid::AmgSolver<double>::build()
//                     .with_criteria(stop::iteration(50))
//                     .with_criteria(stop::residual_norm(1e-10))
//                     .with_theta(0.08)
//                     .on(exec)->generate(A);
//   solver->apply(b, x);
//
//   auto cg = solver::Cg<double>::build()
//                 .with_criteria(stop::residual_norm(1e-10))
//                 .with_preconditioner(
//                     multigrid::AmgPreconditioner<double>::build().on(exec))
//                 .on(exec)->generate(A);
//
// Both own a multigrid::Hierarchy; its per-level workspace persists across
// applies, so the steady-state apply() of either is zero-allocation.
#pragma once

#include <memory>

#include "multigrid/amg_hierarchy.hpp"
#include "solver/solver_base.hpp"

namespace mgko::multigrid {


/// Iterative stopping parameters plus the hierarchy knobs.
struct amg_solver_parameters : solver::iterative_parameters {
    amg_parameters amg;
};


template <typename ValueType, typename IndexType>
class AmgSolver;

template <typename ValueType, typename IndexType>
class AmgSolverFactory : public LinOpFactory {
public:
    AmgSolverFactory(std::shared_ptr<const Executor> exec,
                     amg_solver_parameters params)
        : LinOpFactory{std::move(exec)}, params_{std::move(params)}
    {}
    const amg_solver_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override;

private:
    amg_solver_parameters params_;
};

template <typename ValueType, typename IndexType>
class amg_solver_builder : public amg_solver_parameters {
public:
    amg_solver_builder& with_criteria(
        std::shared_ptr<const stop::CriterionFactory> c)
    {
        criteria.push_back(std::move(c));
        return *this;
    }
    amg_solver_builder& with_theta(double theta)
    {
        amg.theta = theta;
        return *this;
    }
    amg_solver_builder& with_max_levels(size_type levels)
    {
        amg.max_levels = levels;
        return *this;
    }
    amg_solver_builder& with_min_coarse_rows(size_type rows)
    {
        amg.min_coarse_rows = rows;
        return *this;
    }
    amg_solver_builder& with_smoother(smoother_type s)
    {
        amg.smoother = s;
        return *this;
    }
    amg_solver_builder& with_pre_sweeps(size_type sweeps)
    {
        amg.pre_sweeps = sweeps;
        return *this;
    }
    amg_solver_builder& with_post_sweeps(size_type sweeps)
    {
        amg.post_sweeps = sweeps;
        return *this;
    }
    amg_solver_builder& with_jacobi_weight(double weight)
    {
        amg.jacobi_weight = weight;
        return *this;
    }
    amg_solver_builder& with_smoothed_prolongation(bool smoothed)
    {
        amg.smoothed_prolongation = smoothed;
        return *this;
    }

    std::shared_ptr<AmgSolverFactory<ValueType, IndexType>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<AmgSolverFactory<ValueType, IndexType>>(
            std::move(exec), *this);
    }
};


/// V-cycle iteration as an IterativeSolver: each outer iteration runs one
/// V-cycle and logs the true residual norm, so the residual-history
/// invariant and the convergence logger work exactly as for the Krylov
/// solvers.
template <typename ValueType = double, typename IndexType = int32>
class AmgSolver : public solver::IterativeSolver<ValueType> {
public:
    using index_type = IndexType;

    static amg_solver_builder<ValueType, IndexType> build() { return {}; }

    const Hierarchy<ValueType, IndexType>& get_hierarchy() const
    {
        return *hierarchy_;
    }
    const amg_parameters& get_amg_parameters() const { return amg_params_; }

protected:
    friend class AmgSolverFactory<ValueType, IndexType>;
    AmgSolver(std::shared_ptr<const Executor> exec,
              amg_solver_parameters params,
              std::shared_ptr<const LinOp> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using solver::IterativeSolver<ValueType>::apply_impl;

private:
    amg_parameters amg_params_;
    std::unique_ptr<const Hierarchy<ValueType, IndexType>> hierarchy_;
};


template <typename ValueType, typename IndexType>
class AmgPreconditioner;

template <typename ValueType, typename IndexType>
class AmgPreconditionerFactory : public LinOpFactory {
public:
    AmgPreconditionerFactory(std::shared_ptr<const Executor> exec,
                             amg_parameters params)
        : LinOpFactory{std::move(exec)}, params_{params}
    {}
    const amg_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override;

private:
    amg_parameters params_;
};

template <typename ValueType, typename IndexType>
class amg_precond_builder : public amg_parameters {
public:
    amg_precond_builder& with_theta(double t)
    {
        theta = t;
        return *this;
    }
    amg_precond_builder& with_max_levels(size_type levels)
    {
        max_levels = levels;
        return *this;
    }
    amg_precond_builder& with_min_coarse_rows(size_type rows)
    {
        min_coarse_rows = rows;
        return *this;
    }
    amg_precond_builder& with_smoother(smoother_type s)
    {
        smoother = s;
        return *this;
    }
    amg_precond_builder& with_cycles(size_type c)
    {
        cycles = c;
        return *this;
    }
    amg_precond_builder& with_smoothed_prolongation(bool smoothed)
    {
        smoothed_prolongation = smoothed;
        return *this;
    }
    std::shared_ptr<AmgPreconditionerFactory<ValueType, IndexType>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<
            AmgPreconditionerFactory<ValueType, IndexType>>(std::move(exec),
                                                            *this);
    }
};


/// Fixed number of V-cycles from a zero initial guess — a fixed linear
/// operator, symmetric for the symmetric smoothing schemes above, so it
/// plugs into CG/FCG/GMRES/BiCGStab wherever Jacobi/ILU do.
template <typename ValueType = double, typename IndexType = int32>
class AmgPreconditioner : public solver::EnableAdvancedApply<ValueType> {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    static amg_precond_builder<ValueType, IndexType> build() { return {}; }

    const Hierarchy<ValueType, IndexType>& get_hierarchy() const
    {
        return *hierarchy_;
    }
    const amg_parameters& get_parameters() const { return params_; }

protected:
    friend class AmgPreconditionerFactory<ValueType, IndexType>;
    AmgPreconditioner(std::shared_ptr<const Executor> exec,
                      amg_parameters params,
                      std::shared_ptr<const Csr<ValueType, IndexType>> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using solver::EnableAdvancedApply<ValueType>::apply_impl;

private:
    amg_parameters params_;
    std::unique_ptr<const Hierarchy<ValueType, IndexType>> hierarchy_;
};


}  // namespace mgko::multigrid
