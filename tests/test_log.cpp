// The event-logging subsystem: EventLogger attachment at the executor,
// solver, and binding layers, ProfilerLogger aggregation + JSON export,
// RecordLogger capture, ConvergenceLogger edge cases, the
// zero-overhead-when-detached guarantee, and the tracing/metrics tier
// (TraceLogger span nesting + Chrome JSON export, MetricsRegistry
// exposition, roofline work accounting, batch stop-reason export).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "batch/batch_cg.hpp"
#include "batch/batch_csr.hpp"
#include "batch/batch_dense.hpp"
#include <omp.h>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "log/dump_path.hpp"
#include "log/logger.hpp"
#include "log/metrics.hpp"
#include "log/profiler.hpp"
#include "log/trace.hpp"
#include "log/trace_context.hpp"
#include "log/work_model.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "preconditioner/jacobi.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

// libgomp is not TSan-instrumented, so OpenMP-based stress cases skip
// under -fsanitize=thread (the std::thread variants cover the same code).
#if defined(__SANITIZE_THREAD__)
#define MGKO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MGKO_TSAN 1
#endif
#endif

namespace {

using namespace mgko;

using Mtx = Csr<double, int32>;
using Vec = Dense<double>;


// --- ConvergenceLogger edge cases ---------------------------------------

TEST(ConvergenceLogger, FinalResidualNormIsNanOnEmptyHistory)
{
    log::ConvergenceLogger logger;
    EXPECT_TRUE(std::isnan(logger.final_residual_norm()));
    logger.log_iteration(0, 2.5);
    EXPECT_EQ(logger.final_residual_norm(), 2.5);
    logger.reset();
    EXPECT_TRUE(std::isnan(logger.final_residual_norm()));
}

TEST(ConvergenceLogger, UpdateLastReplacesTheNewestEntryOnly)
{
    log::ConvergenceLogger logger;
    logger.update_last(9.0);  // no-op on empty history
    EXPECT_TRUE(logger.residual_history().empty());
    logger.log_iteration(0, 4.0);
    logger.log_iteration(1, 2.0);
    logger.update_last(1.5);
    ASSERT_EQ(logger.residual_history().size(), 2u);
    EXPECT_EQ(logger.residual_history()[0], 4.0);
    EXPECT_EQ(logger.residual_history()[1], 1.5);
    EXPECT_EQ(logger.final_residual_norm(), 1.5);
}

TEST(BindLogger, InvalidHandleAnswersBenignly)
{
    // A default-constructed bind::Logger has no impl; every accessor must
    // return a benign value instead of dereferencing null.
    bind::Logger logger;
    EXPECT_FALSE(logger.valid());
    EXPECT_EQ(logger.num_iterations(), 0);
    EXPECT_FALSE(logger.converged());
    EXPECT_TRUE(std::isnan(logger.final_residual_norm()));
    EXPECT_TRUE(logger.stop_reason().empty());
    EXPECT_TRUE(logger.residual_history().empty());
}


// --- attachment bookkeeping ---------------------------------------------

TEST(EventLogger, AddAndRemoveOnExecutor)
{
    // Fresh executors already carry the always-on flight recorder, so the
    // bookkeeping assertions are relative to that baseline.
    auto exec = ReferenceExecutor::create();
    const auto baseline = exec->get_loggers().size();
    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);
    EXPECT_TRUE(exec->has_loggers());
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);

    void* p = exec->alloc_bytes(256);
    exec->free_bytes(p);
    EXPECT_EQ(rec->count("allocation"), 1);
    EXPECT_EQ(rec->count("free"), 1);

    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    void* q = exec->alloc_bytes(256);
    exec->free_bytes(q);
    EXPECT_EQ(rec->count("allocation"), 1);  // detached: no new events
}


// --- executor-level events ----------------------------------------------

TEST(EventLogger, ExecutorEmitsAllocationPoolAndCopyEvents)
{
    auto exec = ReferenceExecutor::create();
    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);

    void* p = exec->alloc_bytes(1000);
    EXPECT_EQ(rec->count("pool_miss"), 1);
    exec->free_bytes(p);
    void* q = exec->alloc_bytes(990);  // same size class: served from cache
    EXPECT_EQ(rec->count("pool_hit"), 1);
    EXPECT_EQ(rec->count("allocation"), 2);
    exec->free_bytes(q);
    EXPECT_EQ(rec->count("free"), 2);

    exec->trim_pool();
    EXPECT_EQ(rec->count("pool_trim"), 1);

    // Copy: device-to-device through copy_to.
    auto src = Vec::create_filled(exec, dim2{16, 1}, 1.0);
    auto dst = Vec::create(exec, dim2{16, 1});
    dst->copy_from(src.get());
    EXPECT_GE(rec->count("copy"), 1);

    exec->remove_logger(rec.get());
}

TEST(EventLogger, ExecutorEmitsOperationEventsWithKernelTags)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 24;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create(exec, dim2{n, 1});

    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);
    a->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    bool saw_spmv = false;
    for (const auto& r : rec->records()) {
        if (r.kind == "operation_completed" && r.name == "csr_spmv") {
            saw_spmv = true;
            EXPECT_GE(r.value, 0.0);
        }
    }
    EXPECT_TRUE(saw_spmv);
    EXPECT_EQ(rec->count("operation_launched"),
              rec->count("operation_completed"));
}


// --- solver-level events ------------------------------------------------

TEST(EventLogger, SolverEmitsIterationAndStopEvents)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto rec = log::RecordLogger::create();
    // Attached to the solver LinOp, not the executor.
    solver->add_logger(rec);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto conv =
        dynamic_cast<solver::Cg<double>*>(solver.get())->get_logger();
    EXPECT_EQ(rec->count("iteration"),
              static_cast<size_type>(conv->residual_history().size()));
    EXPECT_EQ(rec->count("solver_stop"), 1);
    // Iteration events carry the residual norm of the matching history
    // entry.
    std::vector<double> seen;
    for (const auto& r : rec->records()) {
        if (r.kind == "iteration") {
            seen.push_back(r.value);
        }
    }
    ASSERT_EQ(seen.size(), conv->residual_history().size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], conv->residual_history()[i]);
    }
}

TEST(EventLogger, ExecutorAttachedLoggerAlsoSeesSolverEvents)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(50))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    EXPECT_GT(rec->count("iteration"), 0);
    EXPECT_EQ(rec->count("solver_stop"), 1);
}


// --- ProfilerLogger -----------------------------------------------------

TEST(ProfilerLogger, CgSolveAttributesTimeToKernelTags)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 48;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-10))
                      .with_preconditioner(
                          preconditioner::Jacobi<double, int32>::build().on(
                              exec))
                      .on(exec)
                      ->generate(a);
    auto prof = log::ProfilerLogger::create();
    exec->add_logger(prof);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(prof.get());

    // The acceptance shape: spmv / dot / axpy / precond tags plus the
    // solver iteration stream.
    for (const char* tag : {"op.csr_spmv", "op.dense_dot",
                            "op.dense_add_scaled", "op.jacobi_apply",
                            "solver.iteration"}) {
        const auto stats = prof->stats(tag);
        EXPECT_GT(stats.count, 0) << tag;
    }
    EXPECT_GE(prof->stats("op.csr_spmv").wall_ns, 0.0);
    EXPECT_EQ(prof->stats("solver.stop").count, 1);

    // The JSON export parses and carries the same counts.
    auto json = config::Json::parse(prof->to_json());
    ASSERT_TRUE(json.contains("tags"));
    const auto& tags = json.at("tags");
    ASSERT_TRUE(tags.contains("op.csr_spmv"));
    EXPECT_EQ(tags.at("op.csr_spmv").at("count").as_int(),
              prof->stats("op.csr_spmv").count);
}

TEST(ProfilerLogger, ResetClearsTheSummary)
{
    auto prof = log::ProfilerLogger::create();
    prof->on_pool_hit(nullptr, 128);
    EXPECT_EQ(prof->stats("pool.hit").count, 1);
    EXPECT_EQ(prof->stats("pool.hit").bytes, 128);
    prof->reset();
    EXPECT_EQ(prof->stats("pool.hit").count, 0);
    EXPECT_TRUE(prof->summary().empty());
}


// --- binding-layer events -----------------------------------------------

TEST(EventLogger, BindingCallsEmitOverheadBreakdown)
{
    auto dev = bind::device("reference");
    ASSERT_TRUE(dev.valid());
    auto prof = log::ProfilerLogger::create();
    bind::add_logger(prof);

    auto t = bind::as_tensor(dev, dim2{32, 1}, "double", 2.0);
    const double nrm = t.norm();
    EXPECT_GT(nrm, 0.0);
    bind::remove_logger(prof.get());

    const auto summary = prof->summary();
    // At least one bound call was recorded under its mangled name...
    bool saw_named_call = false;
    for (const auto& [tag, stats] : summary) {
        if (tag.rfind("bind.", 0) == 0 && tag != "bind.gil_wait" &&
            tag != "bind.lookup" && tag != "bind.boxing" &&
            tag != "bind.interpreter") {
            saw_named_call = true;
            EXPECT_GT(stats.count, 0);
            EXPECT_GT(stats.wall_ns, 0.0);
        }
    }
    EXPECT_TRUE(saw_named_call);
    // ...with the gil/lookup/boxing/interpreter breakdown alongside, one
    // sample per bound call.
    const auto calls = prof->stats("bind.interpreter").count;
    EXPECT_GT(calls, 0);
    EXPECT_EQ(prof->stats("bind.gil_wait").count, calls);
    EXPECT_EQ(prof->stats("bind.lookup").count, calls);
    EXPECT_EQ(prof->stats("bind.boxing").count, calls);
    EXPECT_GT(prof->stats("bind.interpreter").wall_ns, 0.0);
}

TEST(EventLogger, BindingLoggerRegistryAddRemove)
{
    auto rec = log::RecordLogger::create();
    const auto baseline = bind::get_loggers().size();
    bind::add_logger(rec);
    EXPECT_EQ(bind::get_loggers().size(), baseline + 1);
    bind::add_logger(nullptr);  // ignored
    EXPECT_EQ(bind::get_loggers().size(), baseline + 1);
    bind::remove_logger(rec.get());
    EXPECT_EQ(bind::get_loggers().size(), baseline);
    bind::remove_logger(rec.get());  // second removal is a no-op
    EXPECT_EQ(bind::get_loggers().size(), baseline);
}


// --- detached overhead --------------------------------------------------

TEST(EventLogger, DetachedLoggersLeaveAllocationCountsUntouched)
{
    // The no-logger path must not allocate or emit anything: same
    // system-allocation count for the same work with and without a logger
    // having ever been attached.
    auto run_solve = [](std::shared_ptr<const Executor> exec) {
        const size_type n = 32;
        auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(
            exec, test::laplacian_1d<double, int32>(n))};
        auto solver = solver::Cg<double>::build()
                          .with_criteria(stop::iteration(40))
                          .with_criteria(stop::residual_norm(1e-10))
                          .on(exec)
                          ->generate(a);
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        // Second apply: steady-state, workspace already warm.
        x->fill(0.0);
        const auto before = exec->num_allocations();
        solver->apply(b.get(), x.get());
        return exec->num_allocations() - before;
    };
    const auto plain = run_solve(ReferenceExecutor::create());
    auto logged_exec = ReferenceExecutor::create();
    auto rec = log::RecordLogger::create();
    logged_exec->add_logger(rec);
    const auto logged = run_solve(logged_exec);
    EXPECT_EQ(plain, 0);
    EXPECT_EQ(logged, plain);  // the hooks themselves don't allocate either
}


// --- concurrent emission (satellite: TSan stress) -----------------------

TEST(EventLogger, ConcurrentEmissionIntoOneProfilerIsSafe)
{
    // Many threads hammering alloc/free (pool events) and operations on
    // one executor with a shared ProfilerLogger attached; run under
    // MGKO_SANITIZE=thread this is the logger-side data-race check.
    auto exec = ReferenceExecutor::create();
    auto prof = log::ProfilerLogger::create();
    auto rec = log::RecordLogger::create();
    exec->add_logger(prof);
    exec->add_logger(rec);

    constexpr int num_threads = 8;
    constexpr int rounds = 200;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < rounds; ++i) {
                void* p = exec->alloc_bytes(64 * ((t + i) % 7 + 1));
                exec->free_bytes(p);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    exec->remove_logger(prof.get());
    exec->remove_logger(rec.get());

    const auto hits = prof->stats("pool.hit").count;
    const auto misses = prof->stats("pool.miss").count;
    EXPECT_EQ(hits + misses, num_threads * rounds);
    EXPECT_EQ(rec->count("allocation"), num_threads * rounds);
    EXPECT_EQ(rec->count("free"), num_threads * rounds);
}


// --- attachment dedup (satellite: add_logger/remove_logger fixes) --------

TEST(EventLogger, DuplicateExecutorAttachmentIsIgnored)
{
    auto exec = ReferenceExecutor::create();
    const auto baseline = exec->get_loggers().size();
    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);
    exec->add_logger(rec);  // second attach of the same logger: no-op
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);

    void* p = exec->alloc_bytes(128);
    exec->free_bytes(p);
    // One event per emission, not one per (duplicate) attachment.
    EXPECT_EQ(rec->count("allocation"), 1);
    EXPECT_EQ(rec->count("free"), 1);

    // remove_logger removes the logger entirely; re-removal is a no-op.
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    // Distinct loggers still coexist.
    auto rec2 = log::RecordLogger::create();
    exec->add_logger(rec);
    exec->add_logger(rec2);
    EXPECT_EQ(exec->get_loggers().size(), baseline + 2);
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);
    exec->remove_logger(rec2.get());
}

TEST(EventLogger, DuplicateBindingAttachmentIsIgnored)
{
    auto rec = log::RecordLogger::create();
    // Registration attaches the always-on flight recorder; force it now so
    // the baseline below is stable.
    bind::ensure_bindings_registered();
    const auto baseline = bind::get_loggers().size();
    bind::add_logger(rec);
    bind::add_logger(rec);  // duplicate would double-count every call
    EXPECT_EQ(bind::get_loggers().size(), baseline + 1);

    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{8, 1}, "double", 1.0);
    (void)t.norm();
    const auto calls = rec->count("binding_call");
    EXPECT_GT(calls, 0);

    bind::remove_logger(rec.get());
    EXPECT_EQ(bind::get_loggers().size(), baseline);
    bind::remove_logger(rec.get());  // removing all occurrences is stable
    EXPECT_EQ(bind::get_loggers().size(), baseline);
    // No events once detached.
    (void)t.norm();
    EXPECT_EQ(rec->count("binding_call"), calls);
}


// --- TraceLogger (tentpole: hierarchical tracing) ------------------------

// Replays the begin/end events of a parsed Chrome trace and checks each
// 'E' closes the innermost open 'B' of the same name on its thread track.
bool parsed_trace_well_nested(const config::Json& trace)
{
    std::map<std::int64_t, std::vector<std::string>> stacks;
    for (const auto& ev : trace.at("traceEvents").elements()) {
        const auto& ph = ev.at("ph").as_string();
        const auto tid = ev.at("tid").as_int();
        if (ph == "B") {
            stacks[tid].push_back(ev.at("name").as_string());
        } else if (ph == "E") {
            auto& stack = stacks[tid];
            if (stack.empty() || stack.back() != ev.at("name").as_string()) {
                return false;
            }
            stack.pop_back();
        }
    }
    for (const auto& [tid, stack] : stacks) {
        if (!stack.empty()) {
            return false;
        }
    }
    return true;
}

TEST(TraceLogger, CgSolveUnderMgkoTraceExportsWellNestedChromeJson)
{
    // The acceptance path: MGKO_TRACE=1 makes the executor factory attach
    // the process-wide tracer, a CG solve emits solver phase spans and
    // kernel slices, and the export is Chrome Trace Event JSON that
    // round-trips through config/json.hpp.
    ASSERT_EQ(setenv("MGKO_TRACE", "1", 1), 0);
    auto tracer = log::tracer_from_env();
    ASSERT_NE(tracer, nullptr);
    EXPECT_EQ(tracer.get(), log::shared_tracer().get());
    tracer->reset();

    {
        auto exec = ReferenceExecutor::create();  // auto-attaches the tracer
        const size_type n = 32;
        auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(
            exec, test::laplacian_1d<double, int32>(n))};
        auto solver = solver::Cg<double>::build()
                          .with_criteria(stop::iteration(100))
                          .with_criteria(stop::residual_norm(1e-10))
                          .on(exec)
                          ->generate(a);
        auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        exec->remove_logger(tracer.get());
    }
    ASSERT_EQ(unsetenv("MGKO_TRACE"), 0);

    EXPECT_TRUE(tracer->well_nested());
    const auto events = tracer->events();
    size_type begins = 0;
    size_type ends = 0;
    bool saw_apply_span = false;
    bool saw_iteration_span = false;
    bool saw_spmv_span = false;
    for (const auto& ev : events) {
        begins += ev.phase == 'B';
        ends += ev.phase == 'E';
        if (ev.phase == 'B') {
            EXPECT_GT(ev.span_id, 0u);
            saw_apply_span |= ev.name == "solver.cg.apply";
            saw_iteration_span |= ev.name == "solver.cg.iteration";
            // Kernel slices carry the bare Operation tag under cat "op".
            saw_spmv_span |= ev.name == "csr_spmv" && ev.cat == "op";
        }
    }
    EXPECT_EQ(begins, ends);
    EXPECT_TRUE(saw_apply_span);
    EXPECT_TRUE(saw_iteration_span);
    EXPECT_TRUE(saw_spmv_span);

    // The export parses with the repo's own JSON parser and stays well
    // nested after the round trip.
    auto json = config::Json::parse(tracer->to_json());
    ASSERT_TRUE(json.contains("traceEvents"));
    ASSERT_TRUE(json.at("traceEvents").is_array());
    EXPECT_EQ(json.at("traceEvents").elements().size(), events.size());
    EXPECT_TRUE(parsed_trace_well_nested(json));
    tracer->reset();
    EXPECT_TRUE(tracer->events().empty());
}

TEST(TraceLogger, BindingCallsBecomeCompleteSlicesWithBreakdownChildren)
{
    auto tracer = log::TraceLogger::create();
    bind::add_logger(tracer);
    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{16, 1}, "double", 1.0);
    (void)t.norm();
    bind::remove_logger(tracer.get());

    bool saw_call_slice = false;
    bool saw_interpreter_child = false;
    for (const auto& ev : tracer->events()) {
        if (ev.phase != 'X') {
            continue;
        }
        if (ev.cat == "bind" && ev.name.rfind("bind.", 0) != 0) {
            saw_call_slice = true;
            EXPECT_GT(ev.dur_ns, 0.0);
        }
        saw_interpreter_child |= ev.name == "bind.interpreter";
    }
    EXPECT_TRUE(saw_call_slice);
    EXPECT_TRUE(saw_interpreter_child);
    EXPECT_TRUE(tracer->well_nested());  // 'X' slices don't affect nesting
}


// --- roofline accounting (tentpole: per-kernel work model) ---------------

TEST(ProfilerLogger, CsrSpmvRooflineMatchesTheAnalyticWorkModel)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 64;
    auto data = test::laplacian_1d<double, int32>(n);
    const size_type nnz = data.entries.size();
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create(exec, dim2{n, 1});

    auto prof = log::ProfilerLogger::create();
    exec->add_logger(prof);
    const size_type reps = 5;
    for (size_type r = 0; r < reps; ++r) {
        a->apply(b.get(), x.get());
    }
    exec->remove_logger(prof.get());

    const auto stats = prof->stats("op.csr_spmv");
    ASSERT_EQ(stats.count, reps);
    EXPECT_GT(stats.wall_ns, 0.0);

    // Flops are exact: 2 nnz per SpMV.  Bytes match the analytic
    // compulsory traffic up to the cost model's locality miss term, which
    // is bounded by one extra value read per nonzero.
    const auto analytic =
        log::csr_spmv_work(n, nnz, sizeof(double), sizeof(int32));
    const auto rd = static_cast<double>(reps);
    EXPECT_DOUBLE_EQ(stats.flops, rd * analytic.flops);
    EXPECT_GE(stats.work_bytes, rd * analytic.bytes);
    EXPECT_LE(stats.work_bytes,
              rd * (analytic.bytes +
                    static_cast<double>(nnz) * sizeof(double)));

    // The roofline derivations are live and consistent.
    EXPECT_GT(stats.gflops(), 0.0);
    EXPECT_GT(stats.gbps(), 0.0);
    EXPECT_DOUBLE_EQ(stats.gflops(),
                     log::achieved_gflops(stats.flops, stats.wall_ns));
    EXPECT_DOUBLE_EQ(stats.intensity(), stats.flops / stats.work_bytes);

    // ...and survive the JSON export.
    auto json = config::Json::parse(prof->to_json());
    const auto& tag = json.at("tags").at("op.csr_spmv");
    EXPECT_DOUBLE_EQ(tag.at("flops").as_double(), stats.flops);
    EXPECT_GT(tag.at("gflops").as_double(), 0.0);
    EXPECT_GT(tag.at("gbps").as_double(), 0.0);
}

TEST(RecordLogger, OperationEventsCarryCapturedWork)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create(exec, dim2{n, 1});
    auto rec = log::RecordLogger::create();
    exec->add_logger(rec);
    a->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    const size_type nnz = 3 * n - 2;
    bool saw_work = false;
    for (const auto& r : rec->records()) {
        if (r.kind == "operation_work" && r.name == "csr_spmv") {
            saw_work = true;
            EXPECT_DOUBLE_EQ(r.value, 2.0 * static_cast<double>(nnz));
        }
    }
    EXPECT_TRUE(saw_work);
}


// --- MetricsRegistry (tentpole: metrics tier) ----------------------------

TEST(MetricsRegistry, CountersGaugesAndHistogramsRoundTrip)
{
    log::MetricsRegistry reg;
    reg.inc_counter("mgko_events_total", "op.x");
    reg.inc_counter("mgko_events_total", "op.x", 2.0);
    reg.inc_counter("mgko_events_total", "op.y");
    reg.set_gauge("mgko_residual_norm", "solver", 0.25);
    reg.add_gauge("mgko_open_spans", "solver.cg.apply", 1.0);
    reg.add_gauge("mgko_open_spans", "solver.cg.apply", -1.0);
    reg.observe("mgko_latency_ns", "op.x", 1.0);
    reg.observe("mgko_latency_ns", "op.x", 3.0);
    reg.observe("mgko_latency_ns", "op.x", 1000.0);

    EXPECT_EQ(reg.counter_value("mgko_events_total", "op.x"), 3.0);
    EXPECT_EQ(reg.counter_value("mgko_events_total", "op.y"), 1.0);
    EXPECT_EQ(reg.counter_value("mgko_events_total", "op.z"), 0.0);
    EXPECT_EQ(reg.gauge_value("mgko_residual_norm", "solver"), 0.25);
    EXPECT_EQ(reg.gauge_value("mgko_open_spans", "solver.cg.apply"), 0.0);

    const auto hist = reg.histogram_snapshot("mgko_latency_ns", "op.x");
    EXPECT_EQ(hist.count, 3u);
    EXPECT_EQ(hist.sum, 1004.0);
    EXPECT_EQ(hist.buckets[0], 1u);   // 1 <= 2^0
    EXPECT_EQ(hist.buckets[2], 1u);   // 3 <= 2^2
    EXPECT_EQ(hist.buckets[10], 1u);  // 1000 <= 2^10

    // Prometheus text exposition: per-tag samples and the cumulative
    // histogram series.
    const auto text = reg.prometheus_text();
    EXPECT_NE(text.find("# TYPE mgko_events_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("mgko_events_total{tag=\"op.x\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mgko_latency_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("mgko_latency_ns_count{tag=\"op.x\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

    // JSON exporter parses and carries the same values.
    auto json = config::Json::parse(reg.to_json());
    EXPECT_EQ(json.at("counters")
                  .at("mgko_events_total")
                  .at("op.x")
                  .as_double(),
              3.0);
    EXPECT_EQ(json.at("histograms")
                  .at("mgko_latency_ns")
                  .at("op.x")
                  .at("count")
                  .as_int(),
              3);

    reg.reset();
    EXPECT_EQ(reg.counter_value("mgko_events_total", "op.x"), 0.0);
    EXPECT_EQ(reg.histogram_snapshot("mgko_latency_ns", "op.x").count, 0u);
}

TEST(MetricsRegistry, QuantilesInterpolateWithinTheLog2Bucket)
{
    log::MetricsRegistry reg;
    // 100 identical observations of 100 land in bucket (64, 128]; the
    // rank-q estimate interpolates linearly inside that bucket.
    for (int i = 0; i < 100; ++i) {
        reg.observe("mgko_latency_ns", "op.x", 100.0);
    }
    const auto hist = reg.histogram_snapshot("mgko_latency_ns", "op.x");
    EXPECT_NEAR(hist.quantile(0.5), 96.0, 1e-9);    // 64 + 0.50 * 64
    EXPECT_NEAR(hist.quantile(0.95), 124.8, 1e-9);  // 64 + 0.95 * 64
    EXPECT_NEAR(hist.quantile(0.99), 127.36, 1e-9);
}

TEST(MetricsRegistry, QuantilesOnASkewedDistribution)
{
    log::MetricsRegistry reg;
    // 90% fast (1ns), 9% medium (500ns), 1% slow (100µs): the classic
    // tail shape p50/p95/p99 exist to separate.
    for (int i = 0; i < 90; ++i) {
        reg.observe("mgko_latency_ns", "t", 1.0);
    }
    for (int i = 0; i < 9; ++i) {
        reg.observe("mgko_latency_ns", "t", 500.0);
    }
    reg.observe("mgko_latency_ns", "t", 100000.0);
    const auto hist = reg.histogram_snapshot("mgko_latency_ns", "t");
    const double p50 = hist.quantile(0.5);
    const double p95 = hist.quantile(0.95);
    const double p99 = hist.quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, 1.0);  // inside bucket [0, 1]
    EXPECT_GT(p95, 256.0);  // inside bucket (256, 512]
    EXPECT_LE(p95, 512.0);
    EXPECT_NEAR(p99, 512.0, 1e-9);  // rank 99 is the last medium sample
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_EQ(log::MetricsRegistry::histogram{}.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, ExportersCarryTheQuantileEstimates)
{
    log::MetricsRegistry reg;
    for (int i = 0; i < 10; ++i) {
        reg.observe("mgko_latency_ns", "op.x", 100.0);
    }
    const auto text = reg.prometheus_text();
    EXPECT_NE(text.find("mgko_latency_ns{tag=\"op.x\",quantile=\"0.5\"} 96"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.95\""), std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
    auto json = config::Json::parse(reg.to_json());
    const auto& hist =
        json.at("histograms").at("mgko_latency_ns").at("op.x");
    EXPECT_NEAR(hist.at("p50").as_double(), 96.0, 1e-9);
    EXPECT_NEAR(hist.at("p95").as_double(), 124.8, 1e-9);
    EXPECT_NEAR(hist.at("p99").as_double(), 127.36, 1e-9);
}

TEST(MetricsRegistry, EmptyHistogramExposesItsFullZeroBucketLadder)
{
    log::MetricsRegistry reg;
    // Declared-but-never-observed: the exposition must still carry the
    // whole series family — a scrape with only {le="+Inf"} (or nothing)
    // breaks histogram_quantile() and recording rules that expect a
    // stable bucket set from the first scrape on.
    reg.declare_histogram("mgko_latency_ns", "op.idle");
    const auto text = reg.prometheus_text();
    EXPECT_NE(text.find("# TYPE mgko_latency_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("mgko_latency_ns_count{tag=\"op.idle\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("mgko_latency_ns_sum{tag=\"op.idle\"} 0"),
              std::string::npos);
    // Every bucket appears, all cumulative zero, ending in +Inf.
    std::size_t buckets = 0;
    const std::string needle = "mgko_latency_ns_bucket{tag=\"op.idle\",le=\"";
    for (auto pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
        const auto line_end = text.find('\n', pos);
        EXPECT_EQ(text.substr(line_end - 2, 2), " 0")
            << text.substr(pos, line_end - pos);
        ++buckets;
    }
    EXPECT_EQ(buckets, log::MetricsRegistry::num_buckets);
    EXPECT_NE(text.find("mgko_latency_ns_bucket{tag=\"op.idle\",le=\"1\"} 0"),
              std::string::npos);
    EXPECT_NE(
        text.find("mgko_latency_ns_bucket{tag=\"op.idle\",le=\"+Inf\"} 0"),
        std::string::npos);
    // Quantiles of nothing are 0, never NaN text.
    EXPECT_NE(text.find("mgko_latency_ns{tag=\"op.idle\",quantile=\"0.5\"} 0"),
              std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("-nan"), std::string::npos);
}

TEST(MetricsRegistry, SingleObservationQuantilesStayFinite)
{
    log::MetricsRegistry reg;
    reg.observe("mgko_latency_ns", "op.once", 100.0);
    const auto hist = reg.histogram_snapshot("mgko_latency_ns", "op.once");
    ASSERT_EQ(hist.count, 1u);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        const double estimate = hist.quantile(q);
        EXPECT_TRUE(std::isfinite(estimate)) << q;
        EXPECT_GE(estimate, 0.0) << q;
        // 100 lands in bucket (64, 128]; every rank estimate stays there.
        EXPECT_LE(estimate, 128.0) << q;
    }
    const auto text = reg.prometheus_text();
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(MetricsRegistry, HistogramExemplarsCarryTheSampledTraceId)
{
    log::MetricsRegistry reg;

    // Observations without a sampled context leave no exemplars behind.
    reg.observe("mgko_latency_ns", "op.x", 100.0);
    EXPECT_EQ(reg.prometheus_text().find("trace_id"), std::string::npos);

    log::TraceContext ctx;
    ctx.trace_high = 0x0123456789abcdefULL;
    ctx.trace_low = 0xfedcba9876543210ULL;
    ctx.span_id = 1;
    ctx.sampled = true;
    {
        log::TraceContextScope scope{ctx};
        reg.observe("mgko_latency_ns", "op.x", 100.0);
    }
    // OpenMetrics exemplar syntax on the bucket the observation landed in.
    const auto text = reg.prometheus_text();
    EXPECT_NE(
        text.find(
            " # {trace_id=\"0123456789abcdeffedcba9876543210\"} 100"),
        std::string::npos)
        << text;

    // reset() clears exemplars along with the samples.
    reg.reset();
    reg.observe("mgko_latency_ns", "op.x", 100.0);
    EXPECT_EQ(reg.prometheus_text().find("trace_id"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentObservesScrapesAndResetsNeverTearExemplars)
{
    // TSan witness for the exemplar state: observer threads hammer the
    // same histogram under distinct sampled contexts while one thread
    // scrapes prometheus_text() and another resets.  Every exemplar a
    // scrape sees must be one of the two observers' ids in full — a torn
    // exemplar would surface as a mixed or malformed id.
    log::MetricsRegistry reg;
    const std::string id_a = "00000000000000aa00000000000000aa";
    const std::string id_b = "00000000000000bb00000000000000bb";
    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};

    auto observer = [&reg, &stop](std::uint64_t word) {
        log::TraceContext ctx;
        ctx.trace_high = word;
        ctx.trace_low = word;
        ctx.span_id = 1;
        ctx.sampled = true;
        log::TraceContextScope scope{ctx};
        while (!stop.load(std::memory_order_relaxed)) {
            reg.observe("mgko_latency_ns", "op.x", 100.0);
        }
    };
    std::thread a{observer, 0xaaULL};
    std::thread b{observer, 0xbbULL};
    std::thread scraper{[&] {
        const std::string marker = "# {trace_id=\"";
        while (!stop.load(std::memory_order_relaxed)) {
            const auto text = reg.prometheus_text();
            for (auto pos = text.find(marker); pos != std::string::npos;
                 pos = text.find(marker, pos + 1)) {
                const auto id = text.substr(pos + marker.size(), 32);
                if (id != id_a && id != id_b) {
                    violations.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    }};
    std::thread resetter{[&] {
        for (int i = 0; i < 50; ++i) {
            reg.reset();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        stop.store(true, std::memory_order_relaxed);
    }};
    a.join();
    b.join();
    scraper.join();
    resetter.join();
    EXPECT_EQ(violations.load(), 0);
}


// --- dump destinations (MGKO_PROFILE / MGKO_TRACE / MGKO_METRICS) --------

TEST(DumpPath, StdoutSentinelsAndDefaults)
{
    EXPECT_TRUE(log::dump_to_stdout("-"));
    EXPECT_TRUE(log::dump_to_stdout("1"));
    EXPECT_TRUE(log::dump_to_stdout("stdout"));
    EXPECT_FALSE(log::dump_to_stdout("out.json"));
    EXPECT_EQ(log::resolve_dump_path("", "trace", "fig5b", ".json"),
              "mgko-trace-fig5b.json");
}

TEST(DumpPath, DirectoryDestinationsGetTheDefaultFileName)
{
    // A trailing slash marks a directory even if it does not exist yet...
    EXPECT_EQ(log::resolve_dump_path("artifacts/", "profile", "run", ".json"),
              "artifacts/mgko-profile-run.json");
    // ...and an existing directory is recognized without one.
    const std::string dir = ::testing::TempDir();
    ASSERT_FALSE(dir.empty());
    const std::string no_slash =
        dir.back() == '/' ? dir.substr(0, dir.size() - 1) : dir;
    EXPECT_EQ(log::resolve_dump_path(no_slash, "metrics", "run", ".txt"),
              no_slash + "/mgko-metrics-run.txt");
}

TEST(DumpPath, OtherDestinationsActAsPrefixes)
{
    EXPECT_EQ(log::resolve_dump_path("/tmp/run7", "trace", "fig5b", ".json"),
              "/tmp/run7-fig5b.json");
    // A destination that already carries the extension keeps it at the end.
    EXPECT_EQ(log::resolve_dump_path("out.json", "trace", "fig5b", ".json"),
              "out-fig5b.json");
}

TEST(MetricsLogger, CgSolveFeedsCountersGaugesAndLatencyHistograms)
{
    auto metrics = log::MetricsLogger::create();
    auto exec = ReferenceExecutor::create();
    exec->add_logger(metrics);
    const size_type n = 32;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(metrics.get());

    auto& reg = metrics->registry();
    EXPECT_GT(reg.counter_value("mgko_events_total", "op.csr_spmv"), 0.0);
    EXPECT_GT(reg.counter_value("mgko_flops_total", "op.csr_spmv"), 0.0);
    EXPECT_GT(reg.counter_value("mgko_work_bytes_total", "op.csr_spmv"),
              0.0);
    EXPECT_GT(
        reg.histogram_snapshot("mgko_latency_ns", "op.csr_spmv").count, 0u);
    EXPECT_EQ(reg.counter_value("mgko_events_total", "solver.stop"), 1.0);
    EXPECT_EQ(
        reg.counter_value("mgko_events_total", "solver.stop.converged"),
        1.0);
    // Every span that opened also closed.
    EXPECT_EQ(reg.gauge_value("mgko_open_spans", "solver.cg.apply"), 0.0);
    EXPECT_EQ(reg.gauge_value("mgko_open_spans", "solver.cg.iteration"),
              0.0);
    EXPECT_GT(reg.counter_value("mgko_events_total",
                                "span.solver.cg.iteration"),
              0.0);
}


// --- concurrent tracing (satellite: TSan stress) -------------------------

TEST(TraceLogger, ConcurrentStdThreadSpansStayWellNestedPerTrack)
{
    auto tracer = log::TraceLogger::create();
    constexpr int num_threads = 8;
    constexpr int rounds = 100;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < rounds; ++i) {
                tracer->on_span_begin("outer");
                tracer->on_span_begin("inner");
                tracer->on_span_end("inner");
                tracer->on_span_end("outer");
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }

    EXPECT_TRUE(tracer->well_nested());
    const auto events = tracer->events();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(num_threads) * rounds * 4);
    // Every thread got its own track, and every begin carries a span id.
    std::set<int> tids;
    for (const auto& ev : events) {
        tids.insert(ev.tid);
        if (ev.phase == 'B') {
            EXPECT_GT(ev.span_id, 0u);
        }
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(num_threads));
}

TEST(TraceLogger, ConcurrentOpenMpSpansStayWellNestedPerTrack)
{
#ifdef MGKO_TSAN
    GTEST_SKIP() << "libgomp is not TSan-instrumented; the std::thread "
                    "variant covers this under TSan";
#else
    auto tracer = log::TraceLogger::create();
    constexpr int rounds = 100;
    int num_threads = 0;
#pragma omp parallel num_threads(4)
    {
#pragma omp single
        num_threads = omp_get_num_threads();
        for (int i = 0; i < rounds; ++i) {
            tracer->on_span_begin("omp.outer");
            tracer->on_span_begin("omp.inner");
            tracer->on_span_end("omp.inner");
            tracer->on_span_end("omp.outer");
        }
    }
    EXPECT_TRUE(tracer->well_nested());
    EXPECT_EQ(tracer->events().size(),
              static_cast<std::size_t>(num_threads) * rounds * 4);
#endif
}


// --- batch stop reasons (satellite: on_batch_solver_stop export) ---------

TEST(EventLogger, BatchSolverStopExportsPerSystemStopReasons)
{
    auto exec = ReferenceExecutor::create();
    const size_type num = 3;
    const size_type n = 8;
    auto data = test::laplacian_1d<double, int32>(n);
    auto mat =
        batch::Csr<double, int32>::create_duplicate(exec, num, data);
    // Zero out system 1 entirely so it breaks down while 0 and 2 converge:
    // the stop-reason export must distinguish the outcomes.
    auto* vals = mat->system_values(1);
    for (size_type k = 0; k < mat->get_num_stored_elements_per_system();
         ++k) {
        vals[k] = 0.0;
    }
    auto b = batch::Dense<double>::create(
        exec, batch::batch_dim{num, dim2{n, 1}});
    auto x = batch::Dense<double>::create(
        exec, batch::batch_dim{num, dim2{n, 1}});
    b->fill(1.0);
    x->fill(0.0);
    auto solver = batch::Cg<double>::build()
                      .with_criteria(stop::iteration(500))
                      .with_criteria(stop::residual_norm(1e-8))
                      .on(exec)
                      ->generate(std::move(mat));
    auto rec = log::RecordLogger::create();
    auto prof = log::ProfilerLogger::create();
    auto tracer = log::TraceLogger::create();
    solver->add_logger(rec);
    solver->add_logger(prof);
    solver->add_logger(tracer);
    solver->apply(b.get(), x.get());

    // RecordLogger: one stop-reason record per system, reasons verbatim.
    std::vector<std::string> reasons;
    for (const auto& r : rec->records()) {
        if (r.kind == "batch_stop_reason") {
            reasons.push_back(r.name);
        }
    }
    ASSERT_EQ(reasons.size(), num);
    EXPECT_NE(reasons[1].find("breakdown"), std::string::npos);
    EXPECT_NE(reasons[0], reasons[1]);

    // ProfilerLogger: batch.stop.<reason> tags partition the batch.
    EXPECT_EQ(prof->stats("batch.stop").count, 1);
    size_type tagged = 0;
    size_type reason_tags = 0;
    for (const auto& [tag, stats] : prof->summary()) {
        if (tag.rfind("batch.stop.", 0) == 0) {
            ++reason_tags;
            tagged += stats.count;
        }
    }
    EXPECT_GE(reason_tags, 2u);  // converged + breakdown at minimum
    EXPECT_EQ(tagged, num);

    // TraceLogger: the batch.stop instant carries the reason histogram,
    // and the batch spans stay well nested around it.
    EXPECT_TRUE(tracer->well_nested());
    bool saw_stop_instant = false;
    bool saw_apply_span = false;
    for (const auto& ev : tracer->events()) {
        if (ev.phase == 'i' && ev.name == "batch.stop") {
            saw_stop_instant = true;
            EXPECT_NE(ev.args.find("stop_reasons"), std::string::npos);
            EXPECT_NE(ev.args.find("breakdown"), std::string::npos);
        }
        saw_apply_span |= ev.phase == 'B' && ev.name == "batch.cg.apply";
    }
    EXPECT_TRUE(saw_stop_instant);
    EXPECT_TRUE(saw_apply_span);
}

}  // namespace
