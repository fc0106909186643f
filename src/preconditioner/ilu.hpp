// ILU and IC preconditioners: incomplete factorization at generate time,
// two triangular solves per application (paper Listing 1 uses Ilu + GMRES).
#pragma once

#include <memory>

#include "core/lin_op.hpp"
#include "factorization/ilu.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/triangular.hpp"
#include "solver/workspace.hpp"

namespace mgko::preconditioner {


/// Applies (LU)^{-1}: y = L^{-1} b (unit diagonal), x = U^{-1} y.
template <typename ValueType = double, typename IndexType = int32>
class Ilu : public solver::EnableAdvancedApply<ValueType> {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    class Factory : public LinOpFactory {
    public:
        explicit Factory(std::shared_ptr<const Executor> exec)
            : LinOpFactory{std::move(exec)}
        {}

    protected:
        std::unique_ptr<LinOp> generate_impl(
            std::shared_ptr<const LinOp> system) const override;
    };

    static std::shared_ptr<Factory> build_on(
        std::shared_ptr<const Executor> exec)
    {
        return std::make_shared<Factory>(std::move(exec));
    }

    /// Paper-style convenience: pg.preconditioner.Ilu(dev, mtx).
    static std::unique_ptr<Ilu> create(
        std::shared_ptr<const Executor> exec,
        std::shared_ptr<const Csr<ValueType, IndexType>> system)
    {
        return std::unique_ptr<Ilu>{new Ilu{std::move(exec), std::move(system)}};
    }

    std::shared_ptr<const Csr<ValueType, IndexType>> lower_factor() const
    {
        return factors_.lower;
    }
    std::shared_ptr<const Csr<ValueType, IndexType>> upper_factor() const
    {
        return factors_.upper;
    }

protected:
    Ilu(std::shared_ptr<const Executor> exec,
        std::shared_ptr<const Csr<ValueType, IndexType>> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using solver::EnableAdvancedApply<ValueType>::apply_impl;

private:
    factorization::lu_factors<ValueType, IndexType> factors_;
    std::unique_ptr<LinOp> lower_solve_;
    std::unique_ptr<LinOp> upper_solve_;
    /// Cached intermediate (y = L^{-1} b), reused across calls.
    mutable std::unique_ptr<Dense<ValueType>> mid_;
};


/// Applies (L Lᵀ)^{-1} for SPD systems.
template <typename ValueType = double, typename IndexType = int32>
class Ic : public solver::EnableAdvancedApply<ValueType> {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    class Factory : public LinOpFactory {
    public:
        explicit Factory(std::shared_ptr<const Executor> exec)
            : LinOpFactory{std::move(exec)}
        {}

    protected:
        std::unique_ptr<LinOp> generate_impl(
            std::shared_ptr<const LinOp> system) const override;
    };

    static std::shared_ptr<Factory> build_on(
        std::shared_ptr<const Executor> exec)
    {
        return std::make_shared<Factory>(std::move(exec));
    }

    static std::unique_ptr<Ic> create(
        std::shared_ptr<const Executor> exec,
        std::shared_ptr<const Csr<ValueType, IndexType>> system)
    {
        return std::unique_ptr<Ic>{new Ic{std::move(exec), std::move(system)}};
    }

    std::shared_ptr<const Csr<ValueType, IndexType>> lower_factor() const
    {
        return lower_;
    }

protected:
    Ic(std::shared_ptr<const Executor> exec,
       std::shared_ptr<const Csr<ValueType, IndexType>> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using solver::EnableAdvancedApply<ValueType>::apply_impl;

private:
    std::shared_ptr<Csr<ValueType, IndexType>> lower_;
    std::shared_ptr<Csr<ValueType, IndexType>> upper_;  // Lᵀ
    std::unique_ptr<LinOp> lower_solve_;
    std::unique_ptr<LinOp> upper_solve_;
    /// Cached intermediate (y = L^{-1} b), reused across calls.
    mutable std::unique_ptr<Dense<ValueType>> mid_;
};


}  // namespace mgko::preconditioner
