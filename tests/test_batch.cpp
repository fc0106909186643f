// The batched subsystem: batch::Dense / batch::Csr layout and kernels,
// batched CG / BiCGStab against a loop of single-system solves across the
// full value x index type grid, per-system convergence tracking, the
// zero-allocation steady state, the batched scalar-Jacobi preconditioner,
// config::solve's "batch": N routing, event logging, and the string
// dispatched batch_* binding surface.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "batch/batch_bicgstab.hpp"
#include "batch/batch_cg.hpp"
#include "batch/batch_csr.hpp"
#include "batch/batch_dense.hpp"
#include "batch/batch_jacobi.hpp"
#include "bindings/registry.hpp"
#include "config/config_solver.hpp"
#include "core/half.hpp"
#include "log/flight_recorder.hpp"
#include "log/metrics.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;
using bind::Value;


/// Per-value-type residual reduction target the batched/single solvers can
/// actually reach: half's ~3 decimal digits cannot chase 1e-6.
template <typename V>
double reduction_target()
{
    return std::is_same_v<V, half> ? 5e-2 : 1e-6;
}


/// A batch where system s is laplacian + s * shift_step * I: the same
/// sparsity pattern with increasingly dominant diagonals, so later systems
/// are better conditioned and converge in fewer iterations.
template <typename V, typename I>
std::unique_ptr<batch::Csr<V, I>> shifted_laplacian_batch(
    std::shared_ptr<const Executor> exec, size_type num_systems, size_type n,
    double shift_step)
{
    const auto data = test::laplacian_1d<V, I>(n);
    auto mat = batch::Csr<V, I>::create_duplicate(std::move(exec),
                                                  num_systems, data);
    const auto* row_ptrs = mat->get_const_row_ptrs();
    const auto* col_idxs = mat->get_const_col_idxs();
    for (size_type s = 0; s < num_systems; ++s) {
        auto* vals = mat->system_values(s);
        for (size_type row = 0; row < n; ++row) {
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                if (col_idxs[k] == static_cast<I>(row)) {
                    vals[k] = static_cast<V>(
                        to_float(vals[k]) +
                        shift_step * static_cast<double>(s));
                }
            }
        }
    }
    return mat;
}


/// The same family as single-system staging data for the reference loop.
template <typename V, typename I>
matrix_data<V, I> shifted_laplacian_data(size_type n, double shift)
{
    auto data = test::laplacian_1d<V, I>(n);
    for (auto& entry : data.entries) {
        if (entry.row == entry.col) {
            entry.value =
                static_cast<V>(to_float(entry.value) + shift);
        }
    }
    return data;
}


/// Distinct, reproducible right-hand side for system s.
double rhs_entry(size_type s, size_type i)
{
    return 1.0 + 0.25 * static_cast<double>((s + i) % 5);
}


/// generate() hands back the base type; the diagnostics live on the solver.
template <typename V = double>
batch::BatchIterativeSolver<V>* as_iterative(batch::BatchLinOp* op)
{
    auto* solver = dynamic_cast<batch::BatchIterativeSolver<V>*>(op);
    EXPECT_NE(solver, nullptr);
    return solver;
}


// --- batch::Dense / batch::Csr format behaviour -----------------------------

TEST(BatchDense, LayoutAndSystemAccess)
{
    auto exec = ReferenceExecutor::create();
    auto b = batch::Dense<double>::create_filled(
        exec, batch::batch_dim{3, dim2{2, 2}}, 1.0);
    EXPECT_EQ(b->get_num_systems(), 3);
    EXPECT_EQ(b->get_common_size(), (dim2{2, 2}));
    EXPECT_EQ(b->get_num_stored_elements(), 12);
    EXPECT_EQ(b->stride(), 4);

    b->at(1, 0, 1) = 7.0;
    // System 1 starts at offset 1 * stride; row-major inside the system.
    EXPECT_DOUBLE_EQ(b->get_const_values()[4 + 1], 7.0);
    EXPECT_DOUBLE_EQ(b->at(0, 0, 1), 1.0);
    EXPECT_DOUBLE_EQ(b->at(2, 0, 1), 1.0);
    EXPECT_THROW(b->at(3, 0, 0), OutOfBounds);
    EXPECT_THROW(b->at(0, 2, 0), OutOfBounds);

    auto extracted = b->extract_system(1);
    EXPECT_DOUBLE_EQ(extracted->at(0, 1), 7.0);
    extracted->at(1, 0) = -2.0;
    b->assign_system(2, extracted.get());
    EXPECT_DOUBLE_EQ(b->at(2, 1, 0), -2.0);
    EXPECT_DOUBLE_EQ(b->at(1, 1, 0), 1.0);
}

TEST(BatchDense, BatchedApplyMatchesPerSystemApply)
{
    const size_type num = 4;
    const size_type n = 8;
    for (auto exec : test::all_executors()) {
        auto a = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, n}});
        auto b = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        auto x = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        for (size_type s = 0; s < num; ++s) {
            for (size_type i = 0; i < n; ++i) {
                for (size_type j = 0; j < n; ++j) {
                    a->at(s, i, j) =
                        0.1 * static_cast<double>((s + i + 2 * j) % 7) - 0.3;
                }
                b->at(s, i, 0) = rhs_entry(s, i);
            }
        }
        a->apply(b.get(), x.get());
        for (size_type s = 0; s < num; ++s) {
            auto as = a->extract_system(s);
            auto bs = b->extract_system(s);
            auto xs = Dense<double>::create(exec, dim2{n, 1});
            as->apply(bs.get(), xs.get());
            for (size_type i = 0; i < n; ++i) {
                EXPECT_NEAR(x->at(s, i, 0), xs->at(i, 0), 1e-12)
                    << "system " << s << " row " << i << " on "
                    << exec->name();
            }
        }
    }
}

TEST(BatchCsr, SharedPatternDuplicatedValues)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 16;
    const auto data = test::laplacian_1d<double, int32>(n);
    auto mat = batch::Csr<double, int32>::create_duplicate(exec, 3, data);
    EXPECT_EQ(mat->get_num_systems(), 3);
    EXPECT_EQ(mat->get_common_size(), (dim2{n, n}));
    const auto nnz = mat->get_num_stored_elements_per_system();
    EXPECT_EQ(nnz, data.entries.size());
    EXPECT_EQ(mat->get_num_stored_elements(), 3 * nnz);

    // All three value slices start out identical...
    for (size_type k = 0; k < nnz; ++k) {
        EXPECT_DOUBLE_EQ(mat->system_values(0)[k], mat->system_values(2)[k]);
    }
    // ...and editing one slice leaves the others (and the pattern) alone.
    mat->system_values(1)[0] = 99.0;
    EXPECT_DOUBLE_EQ(mat->system_values(0)[0], mat->system_values(2)[0]);
    auto sys1 = mat->extract_system(1);
    EXPECT_DOUBLE_EQ(sys1->get_const_values()[0], 99.0);
}

template <typename Tuple>
class BatchTyped : public ::testing::Test {
public:
    using value_type = typename std::tuple_element<0, Tuple>::type;
    using index_type = typename std::tuple_element<1, Tuple>::type;
};

using ValueIndexCombos =
    ::testing::Types<std::tuple<half, int32>, std::tuple<half, int64>,
                     std::tuple<float, int32>, std::tuple<float, int64>,
                     std::tuple<double, int32>, std::tuple<double, int64>>;
TYPED_TEST_SUITE(BatchTyped, ValueIndexCombos);

TYPED_TEST(BatchTyped, BatchedSpmvMatchesPerSystemCsr)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    const size_type num = 5;
    const size_type n = 24;
    for (auto exec : test::all_executors()) {
        auto mat = shifted_laplacian_batch<V, I>(exec, num, n, 0.5);
        auto b = batch::Dense<V>::create(exec,
                                         batch::batch_dim{num, dim2{n, 1}});
        auto x = batch::Dense<V>::create(exec,
                                         batch::batch_dim{num, dim2{n, 1}});
        for (size_type s = 0; s < num; ++s) {
            for (size_type i = 0; i < n; ++i) {
                b->at(s, i, 0) = static_cast<V>(rhs_entry(s, i));
            }
        }
        mat->apply(b.get(), x.get());
        for (size_type s = 0; s < num; ++s) {
            auto as = mat->extract_system(s);
            auto bs = b->extract_system(s);
            auto xs = Dense<V>::create(exec, dim2{n, 1});
            as->apply(bs.get(), xs.get());
            for (size_type i = 0; i < n; ++i) {
                EXPECT_NEAR(to_float(x->at(s, i, 0)), to_float(xs->at(i, 0)),
                            test::tolerance<V>() *
                                (1.0 + std::abs(to_float(xs->at(i, 0)))))
                    << "system " << s << " row " << i << " on "
                    << exec->name();
            }
        }
    }
}


// --- batched solvers vs a loop of single-system solves ----------------------

template <typename V, typename I, typename BatchSolver, typename SingleSolver>
void expect_batch_matches_single_loop()
{
    const size_type num = 6;
    const size_type n = 32;
    const auto rf = reduction_target<V>();
    for (auto exec : test::all_executors()) {
        auto mat = shifted_laplacian_batch<V, I>(exec, num, n, 0.25);
        auto b = batch::Dense<V>::create(exec,
                                         batch::batch_dim{num, dim2{n, 1}});
        auto x = batch::Dense<V>::create(exec,
                                         batch::batch_dim{num, dim2{n, 1}});
        for (size_type s = 0; s < num; ++s) {
            for (size_type i = 0; i < n; ++i) {
                b->at(s, i, 0) = static_cast<V>(rhs_entry(s, i));
            }
        }
        x->fill(zero<V>());
        auto solver = BatchSolver::build()
                          .with_criteria(stop::iteration(400))
                          .with_criteria(stop::residual_norm(rf))
                          .on(exec)
                          ->generate(std::move(mat));
        solver->apply(b.get(), x.get());
        auto log = as_iterative<V>(solver.get())->get_batch_logger();
        ASSERT_EQ(log->num_systems(), num);

        for (size_type s = 0; s < num; ++s) {
            EXPECT_TRUE(log->has_converged(s))
                << "system " << s << " stopped with '" << log->stop_reason(s)
                << "' on " << exec->name();

            // The reference: the single-system solver on system s alone.
            auto as = Csr<V, I>::create_from_data(
                exec, shifted_laplacian_data<V, I>(
                          n, 0.25 * static_cast<double>(s)));
            auto bs = Dense<V>::create(exec, dim2{n, 1});
            for (size_type i = 0; i < n; ++i) {
                bs->at(i, 0) = static_cast<V>(rhs_entry(s, i));
            }
            auto xs = Dense<V>::create(exec, dim2{n, 1});
            xs->fill(zero<V>());
            auto single = SingleSolver::build()
                              .with_criteria(stop::iteration(400))
                              .with_criteria(stop::residual_norm(rf))
                              .on(exec)
                              ->generate(std::move(as));
            single->apply(bs.get(), xs.get());

            // Both solutions sit within the residual target of the exact
            // solution, so they agree to a (condition-scaled) tolerance.
            double x_scale = 0.0;
            for (size_type i = 0; i < n; ++i) {
                x_scale = std::max(
                    x_scale,
                    static_cast<double>(std::abs(to_float(xs->at(i, 0)))));
            }
            const double match_tol =
                200.0 * rf * static_cast<double>(n) * (1.0 + x_scale);
            for (size_type i = 0; i < n; ++i) {
                EXPECT_NEAR(to_float(x->at(s, i, 0)),
                            to_float(xs->at(i, 0)), match_tol)
                    << "system " << s << " row " << i << " on "
                    << exec->name();
            }
        }
    }
}

TYPED_TEST(BatchTyped, CgMatchesSingleSystemLoop)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    expect_batch_matches_single_loop<V, I, batch::Cg<V>, solver::Cg<V>>();
}

TYPED_TEST(BatchTyped, BicgstabMatchesSingleSystemLoop)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    expect_batch_matches_single_loop<V, I, batch::Bicgstab<V>,
                                     solver::Bicgstab<V>>();
}


// --- per-system convergence tracking ----------------------------------------

TEST(BatchSolver, PerSystemIterationCountsTrackConditioning)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 4;
    const size_type n = 48;
    // Large shift step: system 3 has diagonal ~ 2 + 30, near-trivially
    // conditioned, while system 0 is the plain laplacian.
    auto mat = shifted_laplacian_batch<double, int32>(exec, num, n, 10.0);
    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    auto solver = batch::Cg<double>::build()
                      .with_criteria(stop::iteration(1000))
                      .with_criteria(stop::residual_norm(1e-8))
                      .on(exec)
                      ->generate(std::move(mat));
    solver->apply(b.get(), x.get());
    auto log = as_iterative(solver.get())->get_batch_logger();
    ASSERT_TRUE(log->all_converged());
    // Strictly easier systems take strictly fewer (or equal) iterations,
    // and the extremes genuinely differ — the batch did NOT run every
    // system to the slowest system's count.
    EXPECT_GT(log->num_iterations(0), log->num_iterations(3));
    for (size_type s = 0; s + 1 < num; ++s) {
        EXPECT_GE(log->num_iterations(s), log->num_iterations(s + 1));
    }
    EXPECT_EQ(log->max_iterations(), log->num_iterations(0));
    EXPECT_EQ(log->num_converged(), num);
}

TEST(BatchSolver, SingularSystemBreaksDownWithoutStoppingTheBatch)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 3;
    const size_type n = 8;
    auto mat = shifted_laplacian_batch<double, int32>(exec, num, n, 1.0);
    // Zero out system 1 entirely: its p'Ap breaks down immediately.
    auto* vals = mat->system_values(1);
    for (size_type k = 0; k < mat->get_num_stored_elements_per_system();
         ++k) {
        vals[k] = 0.0;
    }
    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    auto solver = batch::Cg<double>::build()
                      .with_criteria(stop::iteration(500))
                      .with_criteria(stop::residual_norm(1e-8))
                      .on(exec)
                      ->generate(std::move(mat));
    solver->apply(b.get(), x.get());
    auto log = as_iterative(solver.get())->get_batch_logger();
    EXPECT_FALSE(log->has_converged(1));
    EXPECT_NE(log->stop_reason(1).find("breakdown"), std::string::npos);
    EXPECT_TRUE(log->has_converged(0));
    EXPECT_TRUE(log->has_converged(2));
    EXPECT_EQ(log->num_converged(), 2);
}


// --- zero-allocation steady state -------------------------------------------

template <typename BatchSolver>
void expect_second_apply_allocation_free()
{
    auto exec = OmpExecutor::create(4);
    const size_type num = 8;
    const size_type n = 32;
    auto mat = shifted_laplacian_batch<double, int32>(exec, num, n, 0.5);
    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    auto solver = BatchSolver::build()
                      .with_criteria(stop::iteration(400))
                      .with_criteria(stop::residual_norm(1e-8))
                      .with_preconditioner(
                          batch::Jacobi<double>::build().on(exec))
                      .on(exec)
                      ->generate(std::move(mat));
    solver->apply(b.get(), x.get());  // warm-up: allocates the workspace

    const auto sys_allocs = exec->num_allocations();
    x->fill(0.0);
    solver->apply(b.get(), x.get());
    EXPECT_EQ(exec->num_allocations() - sys_allocs, 0)
        << "steady-state batched apply reached the system allocator";
}

TEST(BatchSolver, SecondCgApplyIsAllocationFree)
{
    expect_second_apply_allocation_free<batch::Cg<double>>();
}

TEST(BatchSolver, SecondBicgstabApplyIsAllocationFree)
{
    expect_second_apply_allocation_free<batch::Bicgstab<double>>();
}


// --- batched scalar-Jacobi preconditioner -----------------------------------

TEST(BatchJacobi, InvertsPerSystemDiagonals)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 3;
    const size_type n = 16;
    auto mat = shifted_laplacian_batch<double, int32>(exec, num, n, 2.0);
    auto factory = batch::Jacobi<double>::build().on(exec);
    auto precond = factory->generate(
        std::shared_ptr<const batch::BatchLinOp>{std::move(mat)});
    auto* jacobi = dynamic_cast<batch::Jacobi<double>*>(precond.get());
    ASSERT_NE(jacobi, nullptr);
    const auto* inv_diag = jacobi->get_const_inverse_diagonal();
    for (size_type s = 0; s < num; ++s) {
        // Interior diagonal of the shifted laplacian is 2 + 2s.
        const double expected = 1.0 / (2.0 + 2.0 * static_cast<double>(s));
        EXPECT_NEAR(inv_diag[s * n + n / 2], expected, 1e-14) << "system "
                                                              << s;
    }

    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto z = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(3.0);
    precond->apply(b.get(), z.get());
    EXPECT_NEAR(z->at(1, n / 2, 0), 3.0 / 4.0, 1e-14);
}

TEST(BatchJacobi, AcceleratesBatchedCg)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 4;
    const size_type n = 64;
    // Symmetrically scaled laplacian D A D with wildly varying D: Jacobi
    // undoes the scaling and recovers the plain laplacian's convergence,
    // while unpreconditioned CG fights the squared scaling ratio.
    matrix_data<double, int32> data{dim2{n}};
    auto d = [](size_type i) { return (i % 2 == 0) ? 1.0 : 100.0; };
    for (size_type i = 0; i < n; ++i) {
        data.add(static_cast<int32>(i), static_cast<int32>(i),
                 2.0 * d(i) * d(i));
        if (i + 1 < n) {
            data.add(static_cast<int32>(i), static_cast<int32>(i + 1),
                     -d(i) * d(i + 1));
            data.add(static_cast<int32>(i + 1), static_cast<int32>(i),
                     -d(i) * d(i + 1));
        }
    }
    data.sort_row_major();
    auto run = [&](bool precond) {
        auto mat =
            batch::Csr<double, int32>::create_duplicate(exec, num, data);
        auto b = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        auto x = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        b->fill(1.0);
        x->fill(0.0);
        auto builder = batch::Cg<double>::build()
                           .with_criteria(stop::iteration(2000))
                           .with_criteria(stop::residual_norm(1e-10));
        if (precond) {
            builder.with_preconditioner(
                batch::Jacobi<double>::build().on(exec));
        }
        auto solver = builder.on(exec)->generate(std::move(mat));
        solver->apply(b.get(), x.get());
        auto log = as_iterative(solver.get())->get_batch_logger();
        EXPECT_TRUE(log->all_converged());
        return log->max_iterations();
    };
    const auto plain = run(false);
    const auto jacobi = run(true);
    EXPECT_LT(jacobi, plain);
}


// --- config::solve routing ---------------------------------------------------

TEST(BatchConfig, BatchKeyRoutesToBatchedSolver)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 4;
    const size_type n = 32;
    auto cfg = config::Json::parse(R"({
        "type": "solver::Cg",
        "batch": 4,
        "max_iters": 500,
        "reduction_factor": 1e-08,
        "preconditioner": {"type": "preconditioner::Jacobi"}
    })");
    std::shared_ptr<const batch::BatchLinOp> mat =
        shifted_laplacian_batch<double, int32>(exec, num, n, 0.5);
    auto solver = config::batch_config_solver(cfg, exec, mat);
    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    solver->apply(b.get(), x.get());
    auto* iterative =
        dynamic_cast<batch::BatchIterativeSolver<double>*>(solver.get());
    ASSERT_NE(iterative, nullptr);
    EXPECT_TRUE(iterative->get_batch_logger()->all_converged());
}

TEST(BatchConfig, MismatchedBatchSizeRejected)
{
    auto exec = ReferenceExecutor::create();
    auto cfg = config::Json::parse(
        R"({"type": "cg", "batch": 8, "max_iters": 10})");
    std::shared_ptr<const batch::BatchLinOp> mat =
        shifted_laplacian_batch<double, int32>(exec, 4, 16, 0.5);
    EXPECT_THROW(config::batch_config_solver(cfg, exec, mat), BadParameter);
}

TEST(BatchConfig, SingleSystemPathRejectsBatchKey)
{
    auto exec = ReferenceExecutor::create();
    auto cfg = config::Json::parse(
        R"({"type": "cg", "batch": 4, "max_iters": 10})");
    EXPECT_THROW(config::parse_factory(cfg, exec), BadParameter);
}

TEST(BatchConfig, BatchPathRequiresBatchKeyAndKnownTypes)
{
    auto exec = ReferenceExecutor::create();
    EXPECT_THROW(
        config::parse_batch_factory(
            config::Json::parse(R"({"type": "cg", "max_iters": 10})"),
            exec),
        BadParameter);
    EXPECT_THROW(
        config::parse_batch_factory(
            config::Json::parse(
                R"({"type": "gmres", "batch": 2, "max_iters": 10})"),
            exec),
        BadParameter);
    EXPECT_THROW(
        config::parse_batch_factory(
            config::Json::parse(
                R"({"type": "cg", "batch": 2, "max_iters": 10,
                    "preconditioner": {"type": "ilu"}})"),
            exec),
        BadParameter);
}


// --- event logging -----------------------------------------------------------

TEST(BatchEvents, IterationAndStopEventsReachLoggers)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 3;
    const size_type n = 24;
    auto mat = shifted_laplacian_batch<double, int32>(exec, num, n, 1.0);
    auto b = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(exec,
                                          batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    auto solver = batch::Cg<double>::build()
                      .with_criteria(stop::iteration(500))
                      .with_criteria(stop::residual_norm(1e-8))
                      .on(exec)
                      ->generate(std::move(mat));
    auto rec = log::FlightRecorder::create();
    auto metrics = log::MetricsLogger::create();
    solver->add_logger(rec);
    solver->add_logger(metrics);
    solver->apply(b.get(), x.get());

    using kind = log::FlightRecorder::event_kind;
    const auto log = as_iterative(solver.get())->get_batch_logger();
    const auto rounds = test::records_of(*rec, kind::batch_iteration);
    ASSERT_EQ(static_cast<size_type>(rounds.size()), log->max_iterations());
    // Rounds are numbered 1..max_iterations, the last being the batch's
    // critical path.
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        EXPECT_EQ(rounds[i].a, static_cast<double>(i + 1));
    }
    const auto stops = test::records_of(*rec, kind::batch_stop);
    ASSERT_EQ(stops.size(), 1u);
    EXPECT_EQ(stops[0].a, static_cast<double>(num));  // converged count
    EXPECT_EQ(stops[0].b, static_cast<double>(num));  // systems
    // Each system is active in rounds 1..num_iterations(s), so the
    // summed active population is the summed per-system iterations.
    size_type active_rounds = 0;
    for (size_type s = 0; s < num; ++s) {
        active_rounds += log->num_iterations(s);
    }
    EXPECT_EQ(metrics->registry().counter_value("mgko_batch_systems_total",
                                                "batch.iteration"),
              static_cast<double>(active_rounds));
}


// --- string-dispatched batch_* bindings --------------------------------------

TEST(BatchBindings, FullGridRegistered)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    for (const auto* v : {"half", "float", "double"}) {
        const auto vs = std::string{"_"} + v;
        EXPECT_TRUE(m.has("batch_tensor_create" + vs)) << vs;
        EXPECT_TRUE(m.has("batch_solver_apply" + vs)) << vs;
        for (const auto* i : {"int32", "int64"}) {
            const auto vis = vs + "_" + i;
            EXPECT_TRUE(m.has("batch_csr_from_data" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_csr_set_entry" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_matrix_apply" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_precond_jacobi" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_solver_cg" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_solver_bicgstab" + vis)) << vis;
            EXPECT_TRUE(m.has("batch_config_solver" + vis)) << vis;
        }
    }
}

TEST(BatchBindings, StringDispatchedSolveEndToEnd)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    auto exec = std::shared_ptr<Executor>{OmpExecutor::create(2)};
    auto dev = bind::box("device", exec);
    const size_type num = 4;
    const size_type n = 24;

    auto data = std::make_shared<matrix_data<double, int64>>(
        test::laplacian_1d<double, int64>(n));
    auto mat_pair = m.call("batch_csr_from_data_double_int32",
                           {dev, Value{static_cast<std::int64_t>(num)},
                            bind::box("matrix_data",
                                      std::shared_ptr<
                                          const matrix_data<double, int64>>{
                                          data})})
                        .as_list();
    EXPECT_EQ(static_cast<size_type>(mat_pair.at(1).as_int()),
              data->entries.size());
    auto mat = mat_pair.at(0);

    // Stiffen system 3's diagonal through the bound per-system editor.
    for (size_type i = 0; i < n; ++i) {
        m.call("batch_csr_set_entry_double_int32",
               {mat, Value{3}, Value{static_cast<std::int64_t>(i)},
                Value{static_cast<std::int64_t>(i)}, Value{42.0}});
    }
    EXPECT_THROW(m.call("batch_csr_set_entry_double_int32",
                        {mat, Value{0}, Value{0},
                         Value{static_cast<std::int64_t>(n - 1)},
                         Value{1.0}}),
                 BadParameter);

    auto precond = m.call("batch_precond_jacobi_double_int32", {dev});
    auto solver = m.call("batch_solver_cg_double_int32",
                         {dev, mat, precond, Value{500}, Value{1e-8}});
    auto b = m.call("batch_tensor_create_double",
                    {dev, Value{static_cast<std::int64_t>(num)},
                     Value{static_cast<std::int64_t>(n)}, Value{1},
                     Value{1.0}});
    auto x = m.call("batch_tensor_create_double",
                    {dev, Value{static_cast<std::int64_t>(num)},
                     Value{static_cast<std::int64_t>(n)}, Value{1},
                     Value{0.0}});
    auto report = m.call("batch_solver_apply_double", {solver, b, x})
                      .as_list();
    ASSERT_EQ(report.size(), num);
    size_type min_iters = 100000;
    size_type max_iters = 0;
    for (const auto& entry : report) {
        const auto& d = entry.as_dict();
        ASSERT_EQ(d.at(0).first, "iterations");
        ASSERT_EQ(d.at(2).first, "converged");
        EXPECT_TRUE(d.at(2).second.as_bool());
        const auto iters = static_cast<size_type>(d.at(0).second.as_int());
        min_iters = std::min(min_iters, iters);
        max_iters = std::max(max_iters, iters);
    }
    // System 3 (diag 42) converges far faster than the plain laplacians.
    EXPECT_LT(min_iters, max_iters);

    // x now solves the batch: residual through the bound batched SpMV.
    auto ax = m.call("batch_tensor_create_double",
                     {dev, Value{static_cast<std::int64_t>(num)},
                      Value{static_cast<std::int64_t>(n)}, Value{1},
                      Value{0.0}});
    m.call("batch_matrix_apply_double_int32", {mat, x, ax});
    for (size_type s = 0; s < num; ++s) {
        for (size_type i = 0; i < n; ++i) {
            const auto axi =
                m.call("batch_tensor_item_double",
                       {ax, Value{static_cast<std::int64_t>(s)},
                        Value{static_cast<std::int64_t>(i)}, Value{0}})
                    .as_double();
            EXPECT_NEAR(axi, 1.0, 1e-5)
                << "system " << s << " row " << i;
        }
    }
}

TEST(BatchBindings, ConfigSolverBindingRunsBatchedBicgstab)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    auto exec = std::shared_ptr<Executor>{ReferenceExecutor::create()};
    auto dev = bind::box("device", exec);
    const size_type num = 3;
    const size_type n = 20;
    auto data = std::make_shared<matrix_data<double, int64>>(
        test::laplacian_1d<double, int64>(n));
    auto mat = m.call("batch_csr_from_data_double_int64",
                      {dev, Value{static_cast<std::int64_t>(num)},
                       bind::box("matrix_data",
                                 std::shared_ptr<
                                     const matrix_data<double, int64>>{
                                     data})})
                   .as_list()
                   .at(0);
    auto cfg = std::make_shared<config::Json>(config::Json::parse(R"({
        "type": "bicgstab", "batch": 3, "max_iters": 400,
        "reduction_factor": 1e-08
    })"));
    auto solver =
        m.call("batch_config_solver_double_int64",
               {dev, mat,
                bind::box("json",
                          std::shared_ptr<const config::Json>{cfg})});
    auto b = m.call("batch_tensor_create_double",
                    {dev, Value{static_cast<std::int64_t>(num)},
                     Value{static_cast<std::int64_t>(n)}, Value{1},
                     Value{1.0}});
    auto x = m.call("batch_tensor_create_double",
                    {dev, Value{static_cast<std::int64_t>(num)},
                     Value{static_cast<std::int64_t>(n)}, Value{1},
                     Value{0.0}});
    auto report =
        m.call("batch_solver_apply_double", {solver, b, x}).as_list();
    ASSERT_EQ(report.size(), num);
    for (const auto& entry : report) {
        EXPECT_TRUE(entry.as_dict().at(2).second.as_bool());
    }
}

}  // namespace
