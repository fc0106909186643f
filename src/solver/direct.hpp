// Direct solver (dense LU with partial pivoting) — one of the explicitly
// bound solvers in the paper's Figure 2 ("GMRES, the direct solver, and
// triangular solvers").
//
// The sparse system is densified and factorized at generate() time; each
// apply performs the permuted forward/backward substitution.  Intended for
// small/moderate systems (the factorization is O(n^3)); generation throws
// for n beyond a guard rail.
#pragma once

#include <memory>
#include <vector>

#include "core/lin_op.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/workspace.hpp"

namespace mgko::solver {


template <typename ValueType = double, typename IndexType = int32>
class Direct : public EnableAdvancedApply<ValueType> {
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

    /// Largest system the densifying direct solver accepts.
    static constexpr size_type max_dimension = 16384;

protected:
    friend class Factory;
    Direct(std::shared_ptr<const Executor> exec,
           std::shared_ptr<const Csr<ValueType, IndexType>> system);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    using EnableAdvancedApply<ValueType>::apply_impl;

private:
    /// Packed LU factors (unit lower + upper) and the pivot permutation.
    std::unique_ptr<Dense<ValueType>> lu_;
    std::vector<size_type> pivots_;
};


}  // namespace mgko::solver
