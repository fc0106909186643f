// Solver / preconditioner / factorization correctness: convergence on SPD
// and nonsymmetric systems across executors, triangular solves, ILU/IC
// factor quality, Jacobi variants, stopping criteria, and logger behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "config/config_solver.hpp"
#include "factorization/ilu.hpp"
#include "matgen/matgen.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "preconditioner/ilu.hpp"
#include "preconditioner/jacobi.hpp"
#include "sim/cost_model.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
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


/// ||b - A x|| / ||b||
double relative_residual(const LinOp* a, const Vec* b, const Vec* x)
{
    auto exec = a->get_executor();
    auto r = Vec::create(exec, b->get_size());
    r->copy_from(b);
    auto one_s = Vec::create_scalar(exec, 1.0);
    auto neg_one_s = Vec::create_scalar(exec, -1.0);
    a->apply(neg_one_s.get(), x, one_s.get(), r.get());
    return r->norm2_scalar() / b->norm2_scalar();
}


// --- stopping criteria -------------------------------------------------------

TEST(StopCriteria, IterationFiresAtBudget)
{
    auto crit = stop::Iteration{5}.create(1.0, 1.0);
    EXPECT_FALSE(crit->is_satisfied(4, 1e9));
    EXPECT_TRUE(crit->is_satisfied(5, 1e9));
    EXPECT_FALSE(crit->indicates_convergence());
}

TEST(StopCriteria, ResidualNormBaselines)
{
    // rhs baseline: threshold = 1e-3 * ||b|| = 1e-3 * 10
    auto rhs = stop::ResidualNorm{1e-3, stop::baseline::rhs_norm}.create(10.0, 5.0);
    EXPECT_FALSE(rhs->is_satisfied(0, 0.02));
    EXPECT_TRUE(rhs->is_satisfied(0, 0.005));
    EXPECT_TRUE(rhs->indicates_convergence());

    auto initial =
        stop::ResidualNorm{1e-2, stop::baseline::initial_resnorm}.create(10.0,
                                                                         5.0);
    EXPECT_TRUE(initial->is_satisfied(0, 0.04));
    EXPECT_FALSE(initial->is_satisfied(0, 0.06));

    auto absolute =
        stop::ResidualNorm{1e-4, stop::baseline::absolute}.create(10.0, 5.0);
    EXPECT_TRUE(absolute->is_satisfied(0, 5e-5));
    EXPECT_FALSE(absolute->is_satisfied(0, 5e-4));
}

TEST(StopCriteria, CombinedReportsFiringReason)
{
    auto combined = stop::combine({stop::iteration(3),
                                   stop::residual_norm(1e-6)})
                        ->create(1.0, 1.0);
    EXPECT_FALSE(combined->is_satisfied(1, 1.0));
    EXPECT_TRUE(combined->is_satisfied(3, 1.0));
    EXPECT_NE(combined->reason().find("3 iterations"), std::string::npos);
    EXPECT_FALSE(combined->indicates_convergence());
}

TEST(StopCriteria, RejectsBadParameters)
{
    EXPECT_THROW(stop::ResidualNorm{0.0}, BadParameter);
    EXPECT_THROW(stop::ResidualNorm{-1.0}, BadParameter);
    EXPECT_THROW(stop::Combined{{}}, BadParameter);
}


// --- Krylov solvers across executors ----------------------------------------

class SolversOnExecutors : public ::testing::TestWithParam<int> {
protected:
    std::shared_ptr<Executor> exec_ =
        test::all_executors()[static_cast<std::size_t>(GetParam())];

    std::shared_ptr<Mtx> spd_system(size_type n)
    {
        return Mtx::create_from_data(exec_,
                                     test::laplacian_1d<double, int32>(n));
    }
    std::shared_ptr<Mtx> nonsym_system(size_type n)
    {
        return Mtx::create_from_data(
            exec_, test::random_sparse<double, int32>(n, 5, 77));
    }
};

TEST_P(SolversOnExecutors, CgSolvesSpdSystem)
{
    const size_type n = 100;
    auto a = spd_system(n);
    auto b = Vec::create_filled(exec_, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec_, dim2{n, 1}, 0.0);
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(1000))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec_)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-9);
    auto logger = dynamic_cast<solver::Cg<double>*>(solver.get())->get_logger();
    EXPECT_TRUE(logger->has_converged());
    EXPECT_GT(logger->num_iterations(), 10);  // 1D Laplacian needs ~n/2
    EXPECT_LT(logger->num_iterations(), 1000);
}

TEST_P(SolversOnExecutors, CgsAndBicgstabSolveNonsymmetricSystem)
{
    const size_type n = 120;
    auto a = nonsym_system(n);
    auto b = Vec::create_filled(exec_, dim2{n, 1}, 1.0);

    for (const bool use_cgs : {true, false}) {
        auto x = Vec::create_filled(exec_, dim2{n, 1}, 0.0);
        std::unique_ptr<LinOp> solver;
        if (use_cgs) {
            solver = solver::Cgs<double>::build()
                         .with_criteria(stop::iteration(2000))
                         .with_criteria(stop::residual_norm(1e-10))
                         .on(exec_)
                         ->generate(a);
        } else {
            solver = solver::Bicgstab<double>::build()
                         .with_criteria(stop::iteration(2000))
                         .with_criteria(stop::residual_norm(1e-10))
                         .on(exec_)
                         ->generate(a);
        }
        solver->apply(b.get(), x.get());
        EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-8)
            << (use_cgs ? "cgs" : "bicgstab") << " on " << exec_->name();
    }
}

TEST_P(SolversOnExecutors, GmresSolvesNonsymmetricSystem)
{
    const size_type n = 120;
    auto a = nonsym_system(n);
    auto b = Vec::create_filled(exec_, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec_, dim2{n, 1}, 0.0);
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(1000))
                      .with_criteria(stop::residual_norm(1e-10))
                      .with_krylov_dim(30)
                      .on(exec_)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-8);
}

TEST_P(SolversOnExecutors, FcgMatchesCgOnSpd)
{
    const size_type n = 80;
    auto a = spd_system(n);
    auto b = Vec::create_filled(exec_, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec_, dim2{n, 1}, 0.0);
    auto solver = solver::Fcg<double>::build()
                      .with_criteria(stop::iteration(1000))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec_)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, SolversOnExecutors,
                         ::testing::Range(0, 4), [](const auto& info) {
                             return test::all_executor_names()
                                 [static_cast<std::size_t>(info.param)];
                         });


// --- solver behaviour details -------------------------------------------------

TEST(Solvers, IterationCriterionStopsExactly)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 200;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(7))
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    auto logger =
        dynamic_cast<solver::Cg<double>*>(solver.get())->get_logger();
    EXPECT_EQ(logger->num_iterations(), 7);
    EXPECT_FALSE(logger->has_converged());
}

TEST(Solvers, ResidualHistoryIsMonotoneForCgOnLaplacian)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 64;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-12))
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    const auto& hist = dynamic_cast<solver::Cg<double>*>(solver.get())
                           ->get_logger()
                           ->residual_history();
    ASSERT_GT(hist.size(), 3u);
    EXPECT_LT(hist.back(), 1e-10 * hist.front());
}

TEST(Solvers, SolverRequiresCriteria)
{
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(8));
    EXPECT_THROW(solver::Cg<double>::build().on(exec)->generate(a),
                 BadParameter);
}

TEST(Solvers, SolverRejectsNonSquareAndMultiRhs)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> rect{dim2{4, 3}};
    rect.add(0, 0, 1.0);
    std::shared_ptr<Mtx> non_square = Mtx::create_from_data(exec, rect);
    EXPECT_THROW(solver::Cg<double>::build()
                     .with_criteria(stop::iteration(10))
                     .on(exec)
                     ->generate(non_square),
                 BadParameter);

    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(8));
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(10))
                      .on(exec)
                      ->generate(a);
    auto b = Vec::create_filled(exec, dim2{8, 2}, 1.0);
    auto x = Vec::create_filled(exec, dim2{8, 2}, 0.0);
    EXPECT_THROW(solver->apply(b.get(), x.get()), NotSupported);
}

TEST(Solvers, AdvancedApplyCombinesSolution)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(1000))
                      .with_criteria(stop::residual_norm(1e-12))
                      .on(exec)
                      ->generate(a);
    // reference solution
    auto sol = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), sol.get());
    // x = 2 * solve(b) + 1 * x0 with x0 = 3
    auto x = Vec::create_filled(exec, dim2{n, 1}, 3.0);
    auto alpha = Vec::create_scalar(exec, 2.0);
    auto beta = Vec::create_scalar(exec, 1.0);
    solver->apply(alpha.get(), b.get(), beta.get(), x.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(x->at(i, 0), 2.0 * sol->at(i, 0) + 3.0, 1e-6);
    }
}

TEST(Solvers, IrConvergesWithJacobi)
{
    auto exec = OmpExecutor::create(2);
    const size_type n = 60;
    // Diagonally dominant: Richardson + Jacobi converges.
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::random_sparse<double, int32>(n, 4, 5, true));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver =
        solver::Ir<double>::build()
            .with_criteria(stop::iteration(500))
            .with_criteria(stop::residual_norm(1e-10))
            .with_preconditioner(
                preconditioner::Jacobi<double, int32>::build().on(exec))
            .on(exec)
            ->generate(a);
    solver->apply(b.get(), x.get());
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-9);
}

TEST(Gmres, RestartOnlyCheckStillConverges)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 90;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::random_sparse<double, int32>(n, 5, 13));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(2000))
                      .with_criteria(stop::residual_norm(1e-10))
                      .with_krylov_dim(20)
                      .on(exec)
                      ->generate(a);
    auto* gmres = dynamic_cast<solver::Gmres<double>*>(solver.get());
    gmres->set_check_every_update(false);
    solver->apply(b.get(), x.get());
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-8);
    // Restart-only checking can overshoot, but never stops later than a
    // full extra restart cycle.
    EXPECT_EQ(gmres->get_logger()->num_iterations() % 1, 0);
}

TEST(Gmres, PerUpdateCheckUsesFewerIterationsThanRestartOnly)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 90;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::random_sparse<double, int32>(n, 5, 13));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);

    auto make_solver = [&] {
        return solver::Gmres<double>::build()
            .with_criteria(stop::iteration(2000))
            .with_criteria(stop::residual_norm(1e-10))
            .with_krylov_dim(25)
            .on(exec)
            ->generate(a);
    };
    auto s1 = make_solver();
    auto x1 = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    s1->apply(b.get(), x1.get());
    auto s2 = make_solver();
    auto* g2 = dynamic_cast<solver::Gmres<double>*>(s2.get());
    g2->set_check_every_update(false);
    auto x2 = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    s2->apply(b.get(), x2.get());

    const auto it1 =
        dynamic_cast<solver::Gmres<double>*>(s1.get())->get_logger()
            ->num_iterations();
    const auto it2 = g2->get_logger()->num_iterations();
    EXPECT_LE(it1, it2);
}

TEST(Gmres, HandlesExactKrylovBreakdown)
{
    auto exec = ReferenceExecutor::create();
    // Identity system: converges in one iteration via happy breakdown.
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, matrix_data<double, int32>::diag({1.0, 1.0, 1.0, 1.0}));
    auto b = Vec::create_filled(exec, dim2{4, 1}, 5.0);
    auto x = Vec::create_filled(exec, dim2{4, 1}, 0.0);
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-12))
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_NEAR(x->at(i, 0), 5.0, 1e-12);
    }
}


// --- triangular solvers --------------------------------------------------------

TEST(Triangular, LowerSolveMatchesDirectSubstitution)
{
    for (auto exec : test::all_executors()) {
        matrix_data<double, int32> data{dim2{3, 3}};
        data.add(0, 0, 2.0);
        data.add(1, 0, 1.0);
        data.add(1, 1, 4.0);
        data.add(2, 1, -1.0);
        data.add(2, 2, 5.0);
        auto l = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
        auto solver = solver::LowerTrs<double, int32>::build().on(exec)
                          ->generate(l);
        auto b = Vec::create(exec, dim2{3, 1});
        b->at(0, 0) = 2.0;
        b->at(1, 0) = 9.0;
        b->at(2, 0) = 8.0;
        auto x = Vec::create(exec, dim2{3, 1});
        solver->apply(b.get(), x.get());
        EXPECT_NEAR(x->at(0, 0), 1.0, 1e-14) << exec->name();
        EXPECT_NEAR(x->at(1, 0), 2.0, 1e-14) << exec->name();
        EXPECT_NEAR(x->at(2, 0), 2.0, 1e-14) << exec->name();
    }
}

TEST(Triangular, UpperSolveAndUnitDiagonal)
{
    auto exec = OmpExecutor::create(3);
    matrix_data<double, int32> data{dim2{3, 3}};
    data.add(0, 0, 100.0);  // ignored with unit_diagonal
    data.add(0, 2, 1.0);
    data.add(1, 1, 100.0);
    data.add(1, 2, 2.0);
    data.add(2, 2, 100.0);
    auto u = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto solver = solver::UpperTrs<double, int32>::build()
                      .with_unit_diagonal(true)
                      .on(exec)
                      ->generate(u);
    auto b = Vec::create(exec, dim2{3, 1});
    b->at(0, 0) = 4.0;
    b->at(1, 0) = 7.0;
    b->at(2, 0) = 3.0;
    auto x = Vec::create(exec, dim2{3, 1});
    solver->apply(b.get(), x.get());
    EXPECT_NEAR(x->at(2, 0), 3.0, 1e-14);
    EXPECT_NEAR(x->at(1, 0), 1.0, 1e-14);
    EXPECT_NEAR(x->at(0, 0), 1.0, 1e-14);
}

/// Textbook substitution in the order every backend's sweep must match:
/// rows ascending (lower) or descending (upper), each row's entries in
/// stored order, the last stored diagonal entry as divisor.
template <bool Lower>
std::vector<double> substitute(const Mtx* t, const Vec* b, bool unit)
{
    const auto n = t->get_size().rows;
    const auto cols = b->get_size().cols;
    const auto* row_ptrs = t->get_const_row_ptrs();
    const auto* col_idxs = t->get_const_col_idxs();
    const auto* values = t->get_const_values();
    std::vector<double> x(static_cast<std::size_t>(n * cols));
    for (size_type i = 0; i < n; ++i) {
        const auto row = Lower ? i : n - 1 - i;
        for (size_type c = 0; c < cols; ++c) {
            double acc = b->at(row, c);
            double diag = 1.0;
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                const auto col = static_cast<size_type>(col_idxs[k]);
                if (col == row) {
                    diag = values[k];
                } else if (Lower ? col < row : col > row) {
                    acc -= values[k] *
                           x[static_cast<std::size_t>(col * cols + c)];
                }
            }
            x[static_cast<std::size_t>(row * cols + c)] =
                unit ? acc : acc / diag;
        }
    }
    return x;
}

TEST(Triangular, LevelScheduleCoversAllRowsOnce)
{
    auto exec = ReferenceExecutor::create();
    const auto data = test::random_sparse<double, int32>(50, 4, 31);
    // Lower part of a random matrix.
    matrix_data<double, int32> lower{dim2{50, 50}};
    for (const auto& e : data.entries) {
        if (e.col <= e.row) {
            lower.add(e.row, e.col, e.row == e.col ? 2.0 : e.value);
        }
    }
    auto l = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, lower)};
    auto solver = solver::LowerTrs<double, int32>::build().on(exec)
                      ->generate(l);
    auto* trs =
        dynamic_cast<solver::LowerTrs<double, int32>*>(solver.get());
    EXPECT_GE(trs->num_levels(), 1);
    EXPECT_LE(trs->num_levels(), 50);
    // Solving against L * ones must recover ones.
    auto ones = Vec::create_filled(exec, dim2{50, 1}, 1.0);
    auto b = Vec::create(exec, dim2{50, 1});
    l->apply(ones.get(), b.get());
    auto x = Vec::create(exec, dim2{50, 1});
    solver->apply(b.get(), x.get());
    for (size_type i = 0; i < 50; ++i) {
        EXPECT_NEAR(x->at(i, 0), 1.0, 1e-12);
    }

    // Every backend solves each row once, in sweep order, so its answer is
    // the textbook substitution's bit for bit: the ILU(0) factors of a
    // power-law operator (many narrow levels) and of a 20^3 7-point
    // stencil (fewer, wider levels), lower and upper, unit and non-unit,
    // 1, 3 and 8 right-hand sides, contiguous and strided operands, and
    // NaN entries in b.
    std::vector<std::shared_ptr<const Executor>> execs{
        exec,
        OmpExecutor::create(1),
        OmpExecutor::create(2),
        OmpExecutor::create(4),
        CudaExecutor::create(),
        HipExecutor::create()};
    const matrix_data<double, int64> operators[] = {
        matgen::power_law_rows(3136, 6, 1.6, 1),
        matgen::stencil_3d_7pt(20, 20, 20)};
    for (const auto& op : operators) {
        auto a = Mtx::create_from_data(exec, op);
        const auto factors = factorization::factorize_ilu0(a.get());
        const auto n = a->get_size().rows;
        for (const size_type cols : {1, 3, 8}) {
            auto b_host = Vec::create(exec, dim2{n, cols});
            for (size_type r = 0; r < n; ++r) {
                for (size_type c = 0; c < cols; ++c) {
                    b_host->at(r, c) =
                        std::sin(0.37 * static_cast<double>(r) +
                                 static_cast<double>(c)) +
                        0.5;
                }
            }
            b_host->at(n / 3, 0) = std::nan("");
            b_host->at(n - 7, cols - 1) = std::nan("");
            for (const bool unit : {false, true}) {
                for (const bool is_lower : {true, false}) {
                    const auto* factor =
                        is_lower ? factors.lower.get() : factors.upper.get();
                    const auto expected =
                        is_lower ? substitute<true>(factor, b_host.get(), unit)
                                 : substitute<false>(factor, b_host.get(),
                                                     unit);
                    for (const auto& e : execs) {
                        auto t = std::shared_ptr<Mtx>{Mtx::create_from_data(
                            e, factor->to_data())};
                        std::unique_ptr<LinOp> sweep;
                        if (is_lower) {
                            sweep = solver::LowerTrs<double, int32>::build()
                                        .with_unit_diagonal(unit)
                                        .on(e)
                                        ->generate(t);
                        } else {
                            sweep = solver::UpperTrs<double, int32>::build()
                                        .with_unit_diagonal(unit)
                                        .on(e)
                                        ->generate(t);
                        }
                        for (const bool strided : {false, true}) {
                            // Strided operands are views into blocks two
                            // columns wider than the right-hand side.
                            const size_type stride = strided ? cols + 2 : cols;
                            std::vector<double> b_buf(
                                static_cast<std::size_t>(n * stride), 0.0);
                            std::vector<double> x_buf(
                                static_cast<std::size_t>(n * stride), 0.0);
                            auto b = Vec::create_view(e, dim2{n, cols},
                                                      b_buf.data(), stride);
                            auto xv = Vec::create_view(e, dim2{n, cols},
                                                       x_buf.data(), stride);
                            for (size_type r = 0; r < n; ++r) {
                                for (size_type c = 0; c < cols; ++c) {
                                    b->at(r, c) = b_host->at(r, c);
                                }
                            }
                            sweep->apply(b.get(), xv.get());
                            size_type mismatches = 0;
                            for (size_type r = 0; r < n; ++r) {
                                for (size_type c = 0; c < cols; ++c) {
                                    const double got = xv->at(r, c);
                                    mismatches +=
                                        std::memcmp(
                                            &got,
                                            &expected[static_cast<std::size_t>(
                                                r * cols + c)],
                                            sizeof(double)) != 0;
                                }
                            }
                            EXPECT_EQ(mismatches, 0)
                                << e->name() << " " << n << " rows, "
                                << (is_lower ? "lower" : "upper")
                                << (unit ? " unit" : "") << ", " << cols
                                << " columns" << (strided ? ", strided" : "");
                        }
                    }
                }
            }
        }
    }
}

TEST(Triangular, NonUnitSolverRefusesRowWithoutDiagonal)
{
    for (const auto& exec :
         std::vector<std::shared_ptr<const Executor>>{
             ReferenceExecutor::create(), OmpExecutor::create(1),
             OmpExecutor::create(4)}) {
        // U = [[2, 1], [0, .]] and L = [[., 0], [1, 2]]: row 1 (upper) and
        // row 0 (lower) store no diagonal, which a non-unit sweep would
        // read as 1.
        matrix_data<double, int32> upper{dim2{2, 2}};
        upper.add(0, 0, 2.0);
        upper.add(0, 1, 1.0);
        matrix_data<double, int32> lower{dim2{2, 2}};
        lower.add(1, 0, 1.0);
        lower.add(1, 1, 2.0);
        auto u = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, upper)};
        auto l = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, lower)};
        auto expect_refused = [&](auto&& generate, const char* row) {
            try {
                generate();
                ADD_FAILURE() << exec->name() << ": generate did not throw";
            } catch (const NumericalError& e) {
                EXPECT_NE(std::string{e.what()}.find(
                              std::string{"missing at row "} + row),
                          std::string::npos)
                    << e.what();
            }
        };
        expect_refused(
            [&] {
                solver::UpperTrs<double, int32>::build().on(exec)->generate(u);
            },
            "1");
        expect_refused(
            [&] {
                solver::LowerTrs<double, int32>::build().on(exec)->generate(l);
            },
            "0");
        // A unit-diagonal solver never reads the diagonal: U x = [3, 3]
        // with unit diagonal is x = [0, 3].
        auto unit = solver::UpperTrs<double, int32>::build()
                        .with_unit_diagonal(true)
                        .on(exec)
                        ->generate(u);
        auto b = Vec::create_filled(exec, dim2{2, 1}, 3.0);
        auto x = Vec::create(exec, dim2{2, 1});
        unit->apply(b.get(), x.get());
        EXPECT_EQ(x->at(0, 0), 0.0) << exec->name();
        EXPECT_EQ(x->at(1, 0), 3.0) << exec->name();
    }
}

TEST(Triangular, RequiresSortedSquareCsr)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> rect{dim2{2, 3}};
    rect.add(0, 0, 1.0);
    auto r = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, rect)};
    EXPECT_THROW((solver::LowerTrs<double, int32>::build().on(exec)
                      ->generate(r)),
                 BadParameter);
    auto d = std::shared_ptr<Dense<double>>{
        Dense<double>::create(exec, dim2{3, 3})};
    EXPECT_THROW((solver::LowerTrs<double, int32>::build().on(exec)
                      ->generate(d)),
                 NotSupported);
}

// The three kernels whose algorithm differs by backend pick their variant
// from the executor's kind().  One apply must advance the SimClock by one
// launch plus the modeled time of exactly the strategy that backend runs.
TEST(KernelVariants, EachBackendTicksItsOwnStrategy)
{
    using sim::spmv_strategy;
    // The first 64 rows are much longer than the rest, so the row
    // partitions model different times.
    const size_type n = 512;
    matrix_data<double, int32> full{dim2{n, n}};
    matrix_data<double, int32> lower{dim2{n, n}};
    matrix_data<double, int32> upper{dim2{n, n}};
    for (size_type r = 0; r < n; ++r) {
        const size_type width = r < 64 ? 96 : 3;
        for (size_type k = 0; k < width; ++k) {
            const auto c = static_cast<int32>((r + k * 37) % n);
            full.add(static_cast<int32>(r), c, 1.0 / (1.0 + k));
        }
        lower.add(static_cast<int32>(r), static_cast<int32>(r), 4.0);
        upper.add(static_cast<int32>(r), static_cast<int32>(r), 4.0);
        for (size_type k = 1; k <= 2; ++k) {
            if (r >= 3 * k) {
                lower.add(static_cast<int32>(r), static_cast<int32>(r - 3 * k),
                          -1.0);
                upper.add(static_cast<int32>(r - 3 * k), static_cast<int32>(r),
                          -1.0);
            }
        }
    }
    for (const auto& exec : test::all_executors()) {
        const auto& m = exec->model();
        const auto kind = exec->kind();
        const bool ref = kind == exec_kind::reference;
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
        auto x = Vec::create(exec, dim2{n, 1});
        // Both ticks truncate to whole nanoseconds: the kernel's profile
        // first, then the launch latency.
        auto expected = [&](const sim::kernel_profile& p) {
            return static_cast<std::int64_t>(p.time_ns(m)) +
                   static_cast<std::int64_t>(m.launch_latency_ns);
        };
        auto ticks = [&](auto&& launch) {
            const auto before = exec->clock().now_ns();
            launch();
            return exec->clock().now_ns() - before;
        };

        auto csr = Mtx::create_from_data(exec, full);
        for (const auto s :
             {Mtx::strategy::classical, Mtx::strategy::load_balanced}) {
            csr->set_strategy(s);
            const bool classical = s == Mtx::strategy::classical;
            const auto split = classical ? spmv_strategy::classical_rows
                                         : spmv_strategy::balanced_nnz;
            const auto strategy = ref ? spmv_strategy::serial
                                  : kind == exec_kind::hip
                                      ? spmv_strategy::wavefront64
                                      : split;
            EXPECT_EQ(ticks([&] { csr->apply(b.get(), x.get()); }),
                      expected(csr->spmv_profile(strategy, m, 1, false)))
                << exec->name() << (classical ? " classical" : " balanced");
        }
        // The rows are uneven enough that each parallel backend's
        // alternatives model different times, so ticking the wrong one
        // fails above.
        auto csr_time = [&](spmv_strategy s) {
            return expected(csr->spmv_profile(s, m, 1, false));
        };
        if (!ref) {
            EXPECT_NE(csr_time(spmv_strategy::classical_rows),
                      csr_time(spmv_strategy::balanced_nnz))
                << exec->name();
            EXPECT_NE(csr_time(spmv_strategy::wavefront64),
                      csr_time(spmv_strategy::balanced_nnz))
                << exec->name();
        }

        auto coo = Coo<double, int32>::create_from_data(exec, full);
        x->fill(0.0);
        const auto coo_strategy =
            ref ? spmv_strategy::serial : spmv_strategy::coo_flat_atomic;
        EXPECT_EQ(ticks([&] { coo->apply_accumulate(b.get(), x.get()); }),
                  expected(coo->spmv_profile(coo_strategy, m, 1, false)))
            << exec->name();
        EXPECT_NE(
            expected(coo->spmv_profile(spmv_strategy::serial, m, 1, false)),
            expected(coo->spmv_profile(spmv_strategy::coo_flat_atomic, m, 1,
                                       false)))
            << exec->name();

        // The reference executor sweeps rows in order in one launch; the
        // others sweep level by level and pay a launch per extra level.
        // Either way b and x stream once per right-hand side.
        auto check_trs = [&](const auto* trs, const char* which) {
            const auto levels = trs->num_levels();
            EXPECT_GT(levels, 1) << which;
            const double nnz = static_cast<double>(
                trs->get_system_matrix()->get_num_stored_elements());
            for (const size_type cols : {size_type{1}, size_type{8}}) {
                auto bk = Vec::create_filled(exec, dim2{n, cols}, 1.0);
                auto xk = Vec::create(exec, dim2{n, cols});
                auto profile = sim::profile_stream(
                    nnz * (sizeof(double) + sizeof(int32)) +
                        static_cast<double>(2 * n * sizeof(double)) *
                            static_cast<double>(cols),
                    2.0 * nnz * static_cast<double>(cols), ref ? 0.7 : 0.6);
                if (!ref) {
                    profile.extra_launches = static_cast<int>(levels - 1);
                }
                EXPECT_EQ(ticks([&] { trs->apply(bk.get(), xk.get()); }),
                          expected(profile))
                    << exec->name() << " " << which << ", " << cols
                    << " columns";
            }
        };
        auto l = solver::LowerTrs<double, int32>::build().on(exec)->generate(
            std::shared_ptr<Mtx>{Mtx::create_from_data(exec, lower)});
        check_trs(dynamic_cast<const solver::LowerTrs<double, int32>*>(l.get()),
                  "lower");
        auto u = solver::UpperTrs<double, int32>::build().on(exec)->generate(
            std::shared_ptr<Mtx>{Mtx::create_from_data(exec, upper)});
        check_trs(dynamic_cast<const solver::UpperTrs<double, int32>*>(u.get()),
                  "upper");
    }
}


// --- factorizations -------------------------------------------------------------

TEST(Ilu0, ExactOnMatrixWithNoFillIn)
{
    auto exec = ReferenceExecutor::create();
    // Tridiagonal: ILU(0) == exact LU.
    const size_type n = 20;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto factors = factorization::factorize_ilu0(a.get());

    // L * U must reproduce A exactly (no discarded fill-in).
    auto lu = Vec::create(exec, dim2{n, n});
    auto l_dense = Vec::create(exec, dim2{n, n});
    auto u_dense = Vec::create(exec, dim2{n, n});
    factors.lower->convert_to(l_dense.get());
    factors.upper->convert_to(u_dense.get());
    l_dense->apply(u_dense.get(), lu.get());
    auto a_dense = Vec::create(exec, dim2{n, n});
    a->convert_to(a_dense.get());
    for (size_type i = 0; i < n; ++i) {
        for (size_type j = 0; j < n; ++j) {
            EXPECT_NEAR(lu->at(i, j), a_dense->at(i, j), 1e-12)
                << i << "," << j;
        }
    }
}

TEST(Ilu0, LowerHasUnitDiagonalAndCorrectTriangles)
{
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::random_sparse<double, int32>(40, 5, 17));
    auto factors = factorization::factorize_ilu0(a.get());
    auto l_data = factors.lower->to_data();
    for (const auto& e : l_data.entries) {
        EXPECT_LE(e.col, e.row);
        if (e.col == e.row) {
            EXPECT_DOUBLE_EQ(e.value, 1.0);
        }
    }
    auto u_data = factors.upper->to_data();
    for (const auto& e : u_data.entries) {
        EXPECT_GE(e.col, e.row);
    }
}

TEST(Ilu0, ThrowsOnMissingDiagonal)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{2, 2}};
    data.add(0, 1, 1.0);
    data.add(1, 0, 1.0);  // no diagonal entries
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, data);
    EXPECT_THROW(factorization::factorize_ilu0(a.get()), NumericalError);
}

TEST(Ic0, ReproducesCholeskyOnTridiagonalSpd)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 16;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto l = factorization::factorize_ic0(a.get());
    // L Lᵀ == A exactly for tridiagonal SPD.
    auto lt = l->transpose();
    auto l_dense = Vec::create(exec, dim2{n, n});
    auto lt_dense = Vec::create(exec, dim2{n, n});
    l->convert_to(l_dense.get());
    lt->convert_to(lt_dense.get());
    auto llt = Vec::create(exec, dim2{n, n});
    l_dense->apply(lt_dense.get(), llt.get());
    auto a_dense = Vec::create(exec, dim2{n, n});
    a->convert_to(a_dense.get());
    for (size_type i = 0; i < n; ++i) {
        for (size_type j = 0; j < n; ++j) {
            EXPECT_NEAR(llt->at(i, j), a_dense->at(i, j), 1e-12);
        }
    }
}

TEST(Ic0, ThrowsOnIndefiniteMatrix)
{
    auto exec = ReferenceExecutor::create();
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, matrix_data<double, int32>::diag({1.0, -1.0, 1.0}));
    EXPECT_THROW(factorization::factorize_ic0(a.get()), NumericalError);
}


// --- preconditioners --------------------------------------------------------------

/// Applies `precond` on `exec` to b (n x cols, entry (r, c) from `entry`),
/// once with contiguous operands and once with column views into blocks
/// two columns wider, and checks every result bitwise against `expected`.
template <typename Entry, typename Expected>
void expect_jacobi_bits(const LinOp* precond,
                        std::shared_ptr<const Executor> exec, size_type n,
                        size_type cols, Entry entry, Expected expected)
{
    for (const bool view : {false, true}) {
        const size_type stride = view ? cols + 2 : cols;
        std::vector<double> b_buf(static_cast<std::size_t>(n * stride), 0.0);
        std::vector<double> x_buf(static_cast<std::size_t>(n * stride), 0.0);
        auto b = Vec::create_view(exec, dim2{n, cols}, b_buf.data(), stride);
        auto x = Vec::create_view(exec, dim2{n, cols}, x_buf.data(), stride);
        for (size_type r = 0; r < n; ++r) {
            for (size_type c = 0; c < cols; ++c) {
                b->at(r, c) = entry(r, c);
            }
        }
        precond->apply(b.get(), x.get());
        for (size_type r = 0; r < n; ++r) {
            for (size_type c = 0; c < cols; ++c) {
                const double got = x->at(r, c);
                const double want = expected(b.get(), r, c);
                EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
                    << exec->name() << ", " << cols << " columns"
                    << (view ? ", view" : "") << ", row " << r << ": " << got
                    << " vs " << want;
            }
        }
    }
}

TEST(Jacobi, ScalarAppliesInverseDiagonal)
{
    auto exec = ReferenceExecutor::create();
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(
        exec, matrix_data<double, int32>::diag({2.0, 4.0, 8.0}))};
    auto precond = preconditioner::Jacobi<double, int32>::build().on(exec)
                       ->generate(a);
    auto b = Vec::create_filled(exec, dim2{3, 1}, 8.0);
    auto x = Vec::create(exec, dim2{3, 1});
    precond->apply(b.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(x->at(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(x->at(2, 0), 1.0);

    // On every backend, for one and three right-hand sides, contiguous or
    // column views: x(r, c) = (1 / a_rr) * b(r, c), bit for bit.
    const size_type n = 1001;
    std::vector<double> diag(static_cast<std::size_t>(n));
    for (size_type r = 0; r < n; ++r) {
        diag[static_cast<std::size_t>(r)] = 1.5 + std::sin(0.1 * r);
    }
    for (const auto& e : std::vector<std::shared_ptr<const Executor>>{
             exec, OmpExecutor::create(1), OmpExecutor::create(4),
             CudaExecutor::create(), HipExecutor::create()}) {
        auto m = std::shared_ptr<Mtx>{Mtx::create_from_data(
            e, matrix_data<double, int32>::diag(diag))};
        auto jacobi =
            preconditioner::Jacobi<double, int32>::build().on(e)->generate(m);
        for (const size_type cols : {1, 3}) {
            expect_jacobi_bits(
                jacobi.get(), e, n, cols,
                [](size_type r, size_type c) {
                    return std::cos(0.3 * r + c);
                },
                [&](const Vec* bv, size_type r, size_type c) {
                    return (1.0 / diag[static_cast<std::size_t>(r)]) *
                           bv->at(r, c);
                });
        }
    }
}

TEST(Jacobi, ScalarHandlesZeroDiagonalSafely)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{2, 2}};
    data.add(0, 0, 2.0);
    data.add(1, 0, 1.0);  // zero diagonal at row 1
    data.add(1, 1, 0.0);
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto precond = preconditioner::Jacobi<double, int32>::build().on(exec)
                       ->generate(a);
    auto b = Vec::create_filled(exec, dim2{2, 1}, 1.0);
    auto x = Vec::create(exec, dim2{2, 1});
    precond->apply(b.get(), x.get());
    EXPECT_TRUE(std::isfinite(x->at(1, 0)));
}

TEST(Jacobi, BlockInvertsDiagonalBlocks)
{
    auto exec = ReferenceExecutor::create();
    // Block-diagonal matrix of 2x2 blocks [[2,1],[1,2]].
    matrix_data<double, int32> data{dim2{4, 4}};
    for (int blk = 0; blk < 2; ++blk) {
        const int o = 2 * blk;
        data.add(o, o, 2.0);
        data.add(o, o + 1, 1.0);
        data.add(o + 1, o, 1.0);
        data.add(o + 1, o + 1, 2.0);
    }
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto precond = preconditioner::Jacobi<double, int32>::build()
                       .with_max_block_size(2)
                       .on(exec)
                       ->generate(a);
    // Applying the preconditioner to A*ones must return ones exactly.
    auto ones = Vec::create_filled(exec, dim2{4, 1}, 1.0);
    auto b = Vec::create(exec, dim2{4, 1});
    a->apply(ones.get(), b.get());
    auto x = Vec::create(exec, dim2{4, 1});
    precond->apply(b.get(), x.get());
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_NEAR(x->at(i, 0), 1.0, 1e-14);
    }

    // On every backend, for one and three right-hand sides, contiguous or
    // column views: each row is its block's inverse row times b, summed in
    // ascending column order, bit for bit.  The inverse is read back from
    // the reference preconditioner applied to unit vectors.  Blocks of 3
    // over 1000 rows leave a partial trailing block.
    const size_type n = 1000;
    const size_type bs = 3;
    matrix_data<double, int32> blocks{dim2{n, n}};
    for (size_type r = 0; r < n; ++r) {
        const auto begin = r / bs * bs;
        for (auto c = begin; c < std::min(n, begin + bs); ++c) {
            blocks.add(static_cast<int32>(r), static_cast<int32>(c),
                       r == c ? 4.0 + std::sin(0.7 * r)
                              : 0.5 + 0.1 * static_cast<double>(c % 5));
        }
    }
    auto ref_block = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, blocks)};
    auto ref_jacobi = preconditioner::Jacobi<double, int32>::build()
                          .with_max_block_size(bs)
                          .on(exec)
                          ->generate(ref_block);
    std::vector<double> inverse(static_cast<std::size_t>(n * bs));
    for (size_type j = 0; j < bs; ++j) {
        auto unit = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        for (size_type r = j; r < n; r += bs) {
            unit->at(r, 0) = 1.0;
        }
        auto column = Vec::create(exec, dim2{n, 1});
        ref_jacobi->apply(unit.get(), column.get());
        for (size_type r = 0; r < n; ++r) {
            inverse[static_cast<std::size_t>(r * bs + j)] = column->at(r, 0);
        }
    }
    for (const auto& e : std::vector<std::shared_ptr<const Executor>>{
             exec, OmpExecutor::create(1), OmpExecutor::create(4),
             CudaExecutor::create(), HipExecutor::create()}) {
        auto m = std::shared_ptr<Mtx>{Mtx::create_from_data(e, blocks)};
        auto jacobi = preconditioner::Jacobi<double, int32>::build()
                          .with_max_block_size(bs)
                          .on(e)
                          ->generate(m);
        for (const size_type cols : {1, 3}) {
            expect_jacobi_bits(
                jacobi.get(), e, n, cols,
                [](size_type r, size_type c) {
                    return std::cos(0.3 * r + c);
                },
                [&](const Vec* bv, size_type r, size_type c) {
                    const auto begin = r / bs * bs;
                    double acc = 0.0;
                    for (auto j = begin; j < std::min(n, begin + bs); ++j) {
                        acc += inverse[static_cast<std::size_t>(
                                   r * bs + (j - begin))] *
                               bv->at(j, c);
                    }
                    return acc;
                });
        }
    }
}

TEST(Jacobi, BlockPreconditioningAcceleratesCg)
{
    auto exec = OmpExecutor::create(2);
    const size_type n = 150;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);

    auto solve_with = [&](std::shared_ptr<const LinOpFactory> precond) {
        auto builder = solver::Cg<double>::build();
        builder.with_criteria(stop::iteration(3000))
            .with_criteria(stop::residual_norm(1e-10));
        if (precond) {
            builder.with_preconditioner(precond);
        }
        auto solver = builder.on(exec)->generate(a);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        return dynamic_cast<solver::Cg<double>*>(solver.get())
            ->get_logger()
            ->num_iterations();
    };
    const auto plain = solve_with(nullptr);
    const auto block = solve_with(
        preconditioner::Jacobi<double, int32>::build()
            .with_max_block_size(8)
            .on(exec));
    EXPECT_LT(block, plain);
}

TEST(IluPreconditioner, ActsAsExactSolverWhenNoFillIn)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 24;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto ilu = preconditioner::Ilu<double, int32>::create(exec, a);
    // ILU(0) is exact for tridiagonal: M^{-1} A x == x.
    auto xs = test::random_vector<double>(exec, n);
    auto ax = Vec::create(exec, dim2{n, 1});
    a->apply(xs.get(), ax.get());
    auto recovered = Vec::create(exec, dim2{n, 1});
    ilu->apply(ax.get(), recovered.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(recovered->at(i, 0), xs->at(i, 0), 1e-11);
    }
}

TEST(IluPreconditioner, ReducesGmresIterations)
{
    auto exec = CudaExecutor::create();
    const size_type n = 120;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(
        exec, test::random_sparse<double, int32>(n, 6, 101));

    auto run = [&](bool with_ilu) {
        auto builder = solver::Gmres<double>::build();
        builder.with_criteria(stop::iteration(3000))
            .with_criteria(stop::residual_norm(1e-10))
            .with_krylov_dim(30);
        if (with_ilu) {
            builder.with_preconditioner(
                preconditioner::Ilu<double, int32>::build_on(exec));
        }
        auto solver = builder.on(exec)->generate(a);
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-7);
        return dynamic_cast<solver::Gmres<double>*>(solver.get())
            ->get_logger()
            ->num_iterations();
    };
    EXPECT_LT(run(true), run(false));
}

TEST(IcPreconditioner, AcceleratesCgOnSpd)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 150;
    std::shared_ptr<Mtx> a = Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n));
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);

    auto run = [&](bool with_ic) {
        auto builder = solver::Cg<double>::build();
        builder.with_criteria(stop::iteration(3000))
            .with_criteria(stop::residual_norm(1e-10));
        if (with_ic) {
            builder.with_preconditioner(
                preconditioner::Ic<double, int32>::build_on(exec));
        }
        auto solver = builder.on(exec)->generate(a);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        return dynamic_cast<solver::Cg<double>*>(solver.get())
            ->get_logger()
            ->num_iterations();
    };
    const auto with_ic = run(true);
    const auto without = run(false);
    EXPECT_LT(with_ic, without);
    // IC(0) is exact on tridiagonal SPD: one or two iterations.
    EXPECT_LE(with_ic, 3);
}

// --- residual-history convention ---------------------------------------

// Applies the solver to b with a zero initial guess and checks the
// logging contract: residual_history().size() == num_iterations() + 1,
// with entry 0 holding the initial residual (== ||b|| for x0 = 0).
void check_history_convention(LinOp* solver, std::shared_ptr<const Executor> exec,
                              size_type n)
{
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto* base = dynamic_cast<solver::IterativeSolver<double>*>(solver);
    ASSERT_NE(base, nullptr);
    auto logger = base->get_logger();
    const auto& hist = logger->residual_history();
    ASSERT_EQ(hist.size(),
              static_cast<std::size_t>(logger->num_iterations()) + 1);
    const double b_norm = b->norm2_scalar();
    EXPECT_NEAR(hist.front(), b_norm, 1e-10 * b_norm);
}

TEST_P(SolversOnExecutors, EverySolverKeepsHistoryAlignedWithIterations)
{
    const size_type n = 40;
    auto spd = spd_system(n);
    auto nonsym = nonsym_system(n);
    auto criteria = [](auto builder) {
        return builder.with_criteria(stop::iteration(60))
            .with_criteria(stop::residual_norm(1e-10));
    };

    check_history_convention(
        criteria(solver::Cg<double>::build()).on(exec_)->generate(spd).get(),
        exec_, n);
    check_history_convention(
        criteria(solver::Fcg<double>::build()).on(exec_)->generate(spd).get(),
        exec_, n);
    check_history_convention(
        criteria(solver::Cgs<double>::build()).on(exec_)->generate(nonsym).get(),
        exec_, n);
    check_history_convention(criteria(solver::Bicgstab<double>::build())
                                 .on(exec_)
                                 ->generate(nonsym)
                                 .get(),
                             exec_, n);
    check_history_convention(criteria(solver::Gmres<double>::build())
                                 .with_krylov_dim(10)
                                 .on(exec_)
                                 ->generate(nonsym)
                                 .get(),
                             exec_, n);
    check_history_convention(
        criteria(solver::Ir<double>::build())
            .with_preconditioner(
                preconditioner::Jacobi<double, int32>::build().on(exec_))
            .on(exec_)
            ->generate(spd)
            .get(),
        exec_, n);
    // Preconditioned variants exercise the same contract through the
    // preconditioner-aware paths.
    check_history_convention(
        criteria(solver::Cg<double>::build())
            .with_preconditioner(
                preconditioner::Jacobi<double, int32>::build().on(exec_))
            .on(exec_)
            ->generate(spd)
            .get(),
        exec_, n);
}

TEST(Solvers, BicgstabBreakdownStillLogsTheHalfStepIteration)
{
    // On an identity system the BiCGStab half step lands exactly on the
    // solution: s == 0, so t = A*M*s == 0 and t't == 0 triggers the
    // breakdown exit.  With only an iteration-count criterion active the
    // s-norm check does not fire first, so the breakdown path itself must
    // log the already-counted iteration — before the fix it returned
    // without logging, leaving residual_history() one entry short.
    auto exec = ReferenceExecutor::create();
    const size_type n = 8;
    matrix_data<double, int32> data{dim2{n, n}};
    for (size_type i = 0; i < n; ++i) {
        data.add(static_cast<int32>(i), static_cast<int32>(i), 1.0);
    }
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto solver = solver::Bicgstab<double>::build()
                      .with_criteria(stop::iteration(10))
                      .on(exec)
                      ->generate(a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 3.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto logger =
        dynamic_cast<solver::Bicgstab<double>*>(solver.get())->get_logger();
    EXPECT_EQ(logger->num_iterations(), 1);
    ASSERT_EQ(logger->residual_history().size(), 2u);
    EXPECT_NEAR(logger->residual_history().back(), 0.0, 1e-12);
    EXPECT_FALSE(logger->has_converged());
    EXPECT_NE(logger->stop_reason().find("t't"), std::string::npos);
    // The accepted half step is the exact solution.
    EXPECT_LT(relative_residual(a.get(), b.get(), x.get()), 1e-12);
}

TEST(Solvers, GmresHistoryEndsWithTrueResidualNorm)
{
    // GMRES iterates on the preconditioned system, so its in-cycle Givens
    // estimates track ||M r||, not ||r||.  At every restart boundary the
    // solver recomputes the true residual; the final history entry must be
    // that true norm — with a Jacobi preconditioner on a Laplacian
    // (diagonal 2) the two differ by roughly a factor of two, which is
    // what this guards.
    auto exec = ReferenceExecutor::create();
    const size_type n = 60;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(200))
                      .with_criteria(stop::residual_norm(1e-9))
                      .with_krylov_dim(10)
                      .with_preconditioner(
                          preconditioner::Jacobi<double, int32>::build().on(exec))
                      .on(exec)
                      ->generate(a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto logger =
        dynamic_cast<solver::Gmres<double>*>(solver.get())->get_logger();
    const auto& hist = logger->residual_history();
    ASSERT_EQ(hist.size(),
              static_cast<std::size_t>(logger->num_iterations()) + 1);
    const double true_norm =
        relative_residual(a.get(), b.get(), x.get()) * b->norm2_scalar();
    ASSERT_GT(hist.back(), 0.0);
    EXPECT_NEAR(hist.back(), true_norm, 1e-6 * b->norm2_scalar());
}

TEST(Preconditioners, GeneratedPreconditionerIsReused)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 40;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto ilu = std::shared_ptr<LinOp>{
        preconditioner::Ilu<double, int32>::create(exec, a)};
    auto solver = solver::Gmres<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-10))
                      .with_generated_preconditioner(ilu)
                      .on(exec)
                      ->generate(a);
    EXPECT_EQ(dynamic_cast<solver::Gmres<double>*>(solver.get())
                  ->get_preconditioner()
                  .get(),
              ilu.get());
}



// --- reproducible reductions -------------------------------------------------

/// dense_dot and dense_norm2 add their per-thread partials in thread order,
/// so at a fixed thread count a whole CG+AMG solve (dots, norms, SpMVs,
/// V-cycles) is bitwise reproducible run to run.
TEST(ReproducibleReductions, FourThreadCgAmgSolvesAreBitwiseIdentical)
{
    auto exec = OmpExecutor::create(4);
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(
        exec, matgen::stencil_3d_7pt(16, 16, 16).cast<double, int32>())};
    const auto n = a->get_size().rows;
    auto solver = config::config_solver(
        config::Json::parse(R"({"type": "solver::Cg", "max_iters": 200,
                                "reduction_factor": 1e-10,
                                "preconditioner": {"type": "amg",
                                                   "theta": 0.02}})"),
        exec, a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto first = Vec::create(exec, dim2{n, 1});
    auto x = Vec::create(exec, dim2{n, 1});
    first->fill(0.0);
    solver->apply(b.get(), first.get());
    for (int run = 1; run < 5; ++run) {
        x->fill(0.0);
        solver->apply(b.get(), x.get());
        EXPECT_EQ(std::memcmp(x->get_const_values(),
                              first->get_const_values(),
                              static_cast<std::size_t>(n) * sizeof(double)),
                  0)
            << "solve " << run << " differs from the first";
    }
}

}  // namespace
