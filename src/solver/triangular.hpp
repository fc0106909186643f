// Sparse triangular solvers (LowerTrs / UpperTrs), the building blocks of
// the ILU and IC preconditioners (paper Figure 2 lists triangular solvers
// among the explicitly bound solvers).
//
// Every backend runs the substitution sweep in row order on the calling
// thread (ascending rows for lower, descending for upper).  The level
// schedule (rows grouped into dependency levels) is still computed: the
// parallel backends charge the SimClock a level-scheduled sweep, one
// launch per level, which models why sparse triangular solves are
// latency-bound on GPUs.  A non-unit solver refuses, at generate, a row
// with no stored diagonal.
#pragma once

#include <memory>

#include "core/lin_op.hpp"
#include "core/types.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/workspace.hpp"

namespace mgko::solver {


struct triangular_parameters {
    /// Treat the diagonal as 1 (stored diagonal entries are ignored).
    bool unit_diagonal{false};
};


template <typename Trs>
class TrsFactory;

template <typename Trs>
class trs_builder : public triangular_parameters {
public:
    trs_builder& with_unit_diagonal(bool value)
    {
        unit_diagonal = value;
        return *this;
    }
    std::shared_ptr<TrsFactory<Trs>> on(
        std::shared_ptr<const Executor> exec) const
    {
        return std::make_shared<TrsFactory<Trs>>(std::move(exec), *this);
    }
};

template <typename Trs>
class TrsFactory : public LinOpFactory {
public:
    TrsFactory(std::shared_ptr<const Executor> exec,
               triangular_parameters params)
        : LinOpFactory{std::move(exec)}, params_{params}
    {}
    const triangular_parameters& get_parameters() const { return params_; }

protected:
    std::unique_ptr<LinOp> generate_impl(
        std::shared_ptr<const LinOp> system) const override
    {
        auto csr = std::dynamic_pointer_cast<
            const Csr<typename Trs::value_type, typename Trs::index_type>>(
            system);
        if (!csr) {
            MGKO_NOT_SUPPORTED(
                "triangular solvers require a Csr system matrix of matching "
                "value/index type");
        }
        return std::unique_ptr<LinOp>{
            new Trs{get_executor(), params_, std::move(csr)}};
    }

private:
    triangular_parameters params_;
};


/// Common state: the factor matrix plus its level count.
template <typename ValueType, typename IndexType, bool Lower>
class TriangularSolver : public LinOp {
public:
    using value_type = ValueType;
    using index_type = IndexType;

    std::shared_ptr<const Csr<ValueType, IndexType>> get_system_matrix() const
    {
        return matrix_;
    }
    size_type num_levels() const { return num_levels_; }
    bool unit_diagonal() const { return params_.unit_diagonal; }

protected:
    TriangularSolver(std::shared_ptr<const Executor> exec,
                     triangular_parameters params,
                     std::shared_ptr<const Csr<ValueType, IndexType>> matrix);

    void apply_impl(const LinOp* b, LinOp* x) const override;
    void apply_impl(const LinOp* alpha, const LinOp* b, const LinOp* beta,
                    LinOp* x) const override;

private:
    void build_level_schedule();

    triangular_parameters params_;
    std::shared_ptr<const Csr<ValueType, IndexType>> matrix_;
    /// Dependency levels of the level-scheduled sweep the SimClock charges.
    size_type num_levels_{};
    /// Cached temporary of the advanced apply, reused across calls.
    mutable std::unique_ptr<Dense<ValueType>> adv_tmp_;
};


template <typename ValueType = double, typename IndexType = int32>
class LowerTrs final
    : public TriangularSolver<ValueType, IndexType, true> {
public:
    static trs_builder<LowerTrs> build() { return {}; }

protected:
    friend class TrsFactory<LowerTrs>;
    LowerTrs(std::shared_ptr<const Executor> exec,
             triangular_parameters params,
             std::shared_ptr<const Csr<ValueType, IndexType>> matrix)
        : TriangularSolver<ValueType, IndexType, true>{
              std::move(exec), params, std::move(matrix)}
    {}
};


template <typename ValueType = double, typename IndexType = int32>
class UpperTrs final
    : public TriangularSolver<ValueType, IndexType, false> {
public:
    static trs_builder<UpperTrs> build() { return {}; }

protected:
    friend class TrsFactory<UpperTrs>;
    UpperTrs(std::shared_ptr<const Executor> exec,
             triangular_parameters params,
             std::shared_ptr<const Csr<ValueType, IndexType>> matrix)
        : TriangularSolver<ValueType, IndexType, false>{
              std::move(exec), params, std::move(matrix)}
    {}
};


}  // namespace mgko::solver
