// Persistent solver workspaces: repeated apply() calls must (a) give
// exactly the result a fresh solver would, and (b) perform zero new
// executor (system) allocations once warmed up — the steady-state
// guarantee the pooled allocator + workspace design exists for.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "matgen/matgen.hpp"
#include "multigrid/amg_solver.hpp"
#include "preconditioner/ilu.hpp"
#include "preconditioner/jacobi.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
#include "solver/direct.hpp"
#include "solver/fcg.hpp"
#include "solver/gmres.hpp"
#include "solver/ir.hpp"
#include "solver/triangular.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;

using Mtx = Csr<double, int32>;
using Vec = Dense<double>;

/// Named solver factory: builds a fresh solver on demand so each case can
/// compare a reused instance against a pristine one.
struct solver_case {
    std::string name;
    std::function<std::unique_ptr<LinOp>(std::shared_ptr<const Executor>,
                                         std::shared_ptr<Mtx>)>
        make;
    bool spd;  // needs the SPD system instead of the nonsymmetric one
};

std::vector<solver_case> all_solver_cases()
{
    auto iter = [] { return stop::iteration(300); };
    auto res = [] { return stop::residual_norm(1e-10); };
    return {
        {"cg",
         [=](auto exec, auto a) {
             return solver::Cg<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .on(exec)
                 ->generate(a);
         },
         true},
        {"fcg",
         [=](auto exec, auto a) {
             return solver::Fcg<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .on(exec)
                 ->generate(a);
         },
         true},
        {"cgs",
         [=](auto exec, auto a) {
             return solver::Cgs<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .on(exec)
                 ->generate(a);
         },
         false},
        {"bicgstab",
         [=](auto exec, auto a) {
             return solver::Bicgstab<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .on(exec)
                 ->generate(a);
         },
         false},
        {"gmres",
         [=](auto exec, auto a) {
             return solver::Gmres<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .with_krylov_dim(20)
                 .on(exec)
                 ->generate(a);
         },
         false},
        {"ir",
         [=](auto exec, auto a) {
             return solver::Ir<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .with_relaxation_factor(0.9)
                 .on(exec)
                 ->generate(a);
         },
         true},
        {"gmres+jacobi",
         [=](auto exec, auto a) {
             return solver::Gmres<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .with_krylov_dim(20)
                 .with_preconditioner(
                     preconditioner::Jacobi<double, int32>::build().on(exec))
                 .on(exec)
                 ->generate(a);
         },
         false},
        {"gmres+ilu",
         [=](auto exec, auto a) {
             return solver::Gmres<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .with_krylov_dim(20)
                 .with_preconditioner(
                     preconditioner::Ilu<double, int32>::build_on(exec))
                 .on(exec)
                 ->generate(a);
         },
         false},
        {"cg+jacobi",
         [=](auto exec, auto a) {
             return solver::Cg<double>::build()
                 .with_criteria(iter())
                 .with_criteria(res())
                 .with_preconditioner(
                     preconditioner::Jacobi<double, int32>::build().on(exec))
                 .on(exec)
                 ->generate(a);
         },
         true},
    };
}

std::shared_ptr<Mtx> system_for(const std::shared_ptr<Executor>& exec,
                                bool spd, size_type n)
{
    return spd ? Mtx::create_from_data(exec,
                                       test::laplacian_1d<double, int32>(n))
               : Mtx::create_from_data(
                     exec, test::random_sparse<double, int32>(n, 5, 77));
}


TEST(SolverWorkspace, RepeatedApplyMatchesFreshSolverExactly)
{
    const size_type n = 60;
    for (const auto& sc : all_solver_cases()) {
        auto exec = ReferenceExecutor::create();
        auto a = system_for(exec, sc.spd, n);
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);

        auto reused = sc.make(exec, a);
        auto x1 = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        reused->apply(b.get(), x1.get());
        auto x2 = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        reused->apply(b.get(), x2.get());

        auto fresh = sc.make(exec, a);
        auto x3 = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        fresh->apply(b.get(), x3.get());

        // The workspace must be state-free between applies: bitwise
        // identical to both the first apply and a pristine solver.
        for (size_type i = 0; i < n; ++i) {
            ASSERT_EQ(x2->at(i, 0), x1->at(i, 0))
                << sc.name << ": second apply diverged at row " << i;
            ASSERT_EQ(x2->at(i, 0), x3->at(i, 0))
                << sc.name << ": reused solver differs from fresh at row "
                << i;
        }
    }
}

TEST(SolverWorkspace, SecondApplyPerformsZeroExecutorAllocations)
{
    const size_type n = 60;
    for (const auto& sc : all_solver_cases()) {
        auto exec = ReferenceExecutor::create();
        auto a = system_for(exec, sc.spd, n);
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);

        auto solver = sc.make(exec, a);
        solver->apply(b.get(), x.get());  // warm-up: populates the workspace

        x->fill(0.0);
        const auto system_allocs = exec->num_allocations();
        solver->apply(b.get(), x.get());
        EXPECT_EQ(exec->num_allocations(), system_allocs)
            << sc.name << ": second apply() hit the system allocator";
    }
}

TEST(SolverWorkspace, AdvancedApplyIsAllocationFreeOnceWarm)
{
    const size_type n = 60;
    auto exec = ReferenceExecutor::create();
    auto a = system_for(exec, true, n);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto alpha = Vec::create_scalar(exec, 2.0);
    auto beta = Vec::create_scalar(exec, 0.5);

    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(300))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    // x = alpha * solve(b) + beta * x exercises the advanced-apply
    // temporary on top of the plain-apply workspace.
    solver->apply(alpha.get(), b.get(), beta.get(), x.get());
    const auto system_allocs = exec->num_allocations();
    solver->apply(alpha.get(), b.get(), beta.get(), x.get());
    EXPECT_EQ(exec->num_allocations(), system_allocs);
}

TEST(SolverWorkspace, TriangularSolveReusesAdvancedApplyTemporary)
{
    const size_type n = 40;
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::laplacian_1d<double, int32>(n));
    auto ilu = preconditioner::Ilu<double, int32>::create(exec, a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto alpha = Vec::create_scalar(exec, 1.0);
    auto beta = Vec::create_scalar(exec, 0.0);

    ilu->apply(b.get(), x.get());                            // plain
    ilu->apply(alpha.get(), b.get(), beta.get(), x.get());   // advanced
    const auto system_allocs = exec->num_allocations();
    ilu->apply(b.get(), x.get());
    ilu->apply(alpha.get(), b.get(), beta.get(), x.get());
    EXPECT_EQ(exec->num_allocations(), system_allocs);
}

TEST(SolverWorkspace, WorkspaceResizesWhenRightHandSideGrows)
{
    // A solver pointed at a new, larger system must transparently resize
    // its workspace (fresh allocations) and then go allocation-free again.
    auto exec = ReferenceExecutor::create();
    auto small = system_for(exec, true, 30);
    auto large = system_for(exec, true, 90);
    auto factory = solver::Cg<double>::build()
                       .with_criteria(stop::iteration(300))
                       .with_criteria(stop::residual_norm(1e-10))
                       .on(exec);

    auto solver = factory->generate(small);
    auto b_small = Vec::create_filled(exec, dim2{30, 1}, 1.0);
    auto x_small = Vec::create_filled(exec, dim2{30, 1}, 0.0);
    solver->apply(b_small.get(), x_small.get());

    auto solver_large = factory->generate(large);
    auto b_large = Vec::create_filled(exec, dim2{90, 1}, 1.0);
    auto x_large = Vec::create_filled(exec, dim2{90, 1}, 0.0);
    solver_large->apply(b_large.get(), x_large.get());
    const auto system_allocs = exec->num_allocations();
    x_large->fill(0.0);
    solver_large->apply(b_large.get(), x_large.get());
    EXPECT_EQ(exec->num_allocations(), system_allocs);
}

TEST(SolverWorkspace, EveryAdvancedApplyIsPlainApplyScaleAddScaled)
{
    // x = alpha * op(b) + beta * x is one implementation for every solver
    // and preconditioner: the plain apply into a temporary (seeded from x
    // when x is the solver's initial guess), then scale and add_scaled.
    const auto data = matgen::stencil_2d_5pt(12, 12);
    matrix_data<double, int64> lower{data.size};
    matrix_data<double, int64> upper{data.size};
    for (const auto& e : data.entries) {
        if (e.col <= e.row) {
            lower.entries.push_back(e);
        }
        if (e.col >= e.row) {
            upper.entries.push_back(e);
        }
    }
    using factory_fn = std::function<std::shared_ptr<const LinOpFactory>(
        std::shared_ptr<const Executor>)>;
    struct advanced_case {
        std::string name;
        bool seeds_from_x;
        const matrix_data<double, int64>* system;
        factory_fn factory;
    };
    const std::vector<advanced_case> cases{
        {"cg", true, &data,
         [](auto exec) {
             return solver::Cg<double>::build()
                 .with_criteria(stop::iteration(40))
                 .with_criteria(stop::residual_norm(1e-10))
                 .on(exec);
         }},
        {"direct", false, &data,
         [](auto exec) {
             return solver::Direct<double, int32>::build_on(exec);
         }},
        {"lower_trs", false, &lower,
         [](auto exec) {
             return solver::LowerTrs<double, int32>::build().on(exec);
         }},
        {"upper_trs", false, &upper,
         [](auto exec) {
             return solver::UpperTrs<double, int32>::build().on(exec);
         }},
        {"ilu", false, &data,
         [](auto exec) {
             return preconditioner::Ilu<double, int32>::build_on(exec);
         }},
        {"ic", false, &data,
         [](auto exec) {
             return preconditioner::Ic<double, int32>::build_on(exec);
         }},
        {"jacobi", false, &data,
         [](auto exec) {
             return preconditioner::Jacobi<double, int32>::build().on(exec);
         }},
        {"amg_preconditioner", false, &data,
         [](auto exec) {
             return multigrid::AmgPreconditioner<double, int32>::build()
                 .with_min_coarse_rows(16)
                 .on(exec);
         }},
    };
    for (const auto& exec : std::vector<std::shared_ptr<Executor>>{
             ReferenceExecutor::create(), OmpExecutor::create(2)}) {
        const auto n = data.size.rows;
        const auto b = test::random_vector<double>(exec, n, 11);
        const auto x0 = test::random_vector<double>(exec, n, 12);
        const auto alpha = Vec::create_scalar(exec, 0.75);
        const auto beta = Vec::create_scalar(exec, -1.5);
        for (const auto& [name, seeds_from_x, system, factory] : cases) {
            const auto op = factory(exec)->generate(
                std::shared_ptr<Mtx>{Mtx::create_from_data(exec, *system)});
            auto tmp = Vec::create_filled(exec, dim2{n, 1}, 0.0);
            if (seeds_from_x) {
                tmp->copy_from(x0.get());
            }
            op->apply(b.get(), tmp.get());
            auto expected = Vec::create(exec, dim2{n, 1});
            expected->copy_from(x0.get());
            expected->scale(beta.get());
            expected->add_scaled(alpha.get(), tmp.get());

            auto x = Vec::create(exec, dim2{n, 1});
            x->copy_from(x0.get());
            op->apply(alpha.get(), b.get(), beta.get(), x.get());
            EXPECT_EQ(std::memcmp(x->get_const_values(),
                                  expected->get_const_values(),
                                  sizeof(double) * static_cast<size_t>(n)),
                      0)
                << name;

            x->copy_from(x0.get());
            const auto system_allocs = exec->num_allocations();
            op->apply(alpha.get(), b.get(), beta.get(), x.get());
            EXPECT_EQ(exec->num_allocations(), system_allocs) << name;
            EXPECT_EQ(std::memcmp(x->get_const_values(),
                                  expected->get_const_values(),
                                  sizeof(double) * static_cast<size_t>(n)),
                      0)
                << name << " (second apply)";
        }
    }
}

}  // namespace
