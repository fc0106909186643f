// The event-logging subsystem: EventLogger attachment at the executor,
// solver, and binding layers (observed through a private FlightRecorder's
// snapshot), ConvergenceLogger edge cases, the zero-overhead-when-detached
// guarantee, and the views of the two stores: the flight recorder's Chrome
// trace (span nesting, the MGKO_TRACE dump) and the metrics registry's
// exposition and per-tag profile (roofline work accounting, batch
// stop-reason totals, non-finite values).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
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
#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "log/dump_path.hpp"
#include "log/flight_recorder.hpp"
#include "log/logger.hpp"
#include "log/metrics.hpp"
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
using kind = log::FlightRecorder::event_kind;
using test::count_of;
using test::records_of;


/// The profile view of `metrics`, parsed: {"tags": {tag: {...}}}.
config::Json profile_of(const log::MetricsLogger& metrics)
{
    return config::Json::parse(metrics.registry().profile_json());
}

/// One tag's field in a parsed profile view; 0 when the tag is absent.
double profile_field(const config::Json& profile, const std::string& tag,
                     const std::string& field)
{
    const auto& tags = profile.at("tags");
    return tags.contains(tag) ? tags.at(tag).at(field).as_double() : 0.0;
}


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
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);
    EXPECT_TRUE(exec->has_loggers());
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);

    void* p = exec->alloc_bytes(256);
    exec->free_bytes(p);
    EXPECT_EQ(count_of(*rec, kind::alloc), 1);
    EXPECT_EQ(count_of(*rec, kind::free_mem), 1);

    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    void* q = exec->alloc_bytes(256);
    exec->free_bytes(q);
    EXPECT_EQ(count_of(*rec, kind::alloc), 1);  // detached: no new events
}


// --- executor-level events ----------------------------------------------

TEST(EventLogger, ExecutorEmitsAllocationPoolAndCopyEvents)
{
    auto exec = ReferenceExecutor::create();
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);

    void* p = exec->alloc_bytes(1000);
    EXPECT_EQ(count_of(*rec, kind::pool_miss), 1);
    exec->free_bytes(p);
    void* q = exec->alloc_bytes(990);  // same size class: served from cache
    EXPECT_EQ(count_of(*rec, kind::pool_hit), 1);
    EXPECT_EQ(count_of(*rec, kind::alloc), 2);
    exec->free_bytes(q);
    EXPECT_EQ(count_of(*rec, kind::free_mem), 2);

    exec->trim_pool();
    EXPECT_EQ(count_of(*rec, kind::pool_trim), 1);

    // Copy: device-to-device through copy_to.
    auto src = Vec::create_filled(exec, dim2{16, 1}, 1.0);
    auto dst = Vec::create(exec, dim2{16, 1});
    dst->copy_from(src.get());
    EXPECT_GE(count_of(*rec, kind::copy), 1);

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

    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);
    const auto launches = exec->num_kernel_launches();
    a->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    bool saw_spmv = false;
    for (const auto& r : records_of(*rec, kind::operation)) {
        if (std::string{r.tag} == "csr_spmv") {
            saw_spmv = true;
            EXPECT_GE(r.a, 0.0);  // wall_ns
        }
    }
    EXPECT_TRUE(saw_spmv);
    // One event per kernel launch.
    EXPECT_EQ(count_of(*rec, kind::operation),
              exec->num_kernel_launches() - launches);
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
    auto rec = log::FlightRecorder::create();
    // Attached to the solver LinOp, not the executor.
    solver->add_logger(rec);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto conv =
        dynamic_cast<solver::Cg<double>*>(solver.get())->get_logger();
    EXPECT_EQ(count_of(*rec, kind::iteration),
              static_cast<size_type>(conv->residual_history().size()));
    EXPECT_EQ(count_of(*rec, kind::solver_stop), 1);
    // Iteration events carry the residual norm of the matching history
    // entry.
    std::vector<double> seen;
    for (const auto& r : records_of(*rec, kind::iteration)) {
        seen.push_back(r.b);
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
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    EXPECT_GT(count_of(*rec, kind::iteration), 0);
    EXPECT_EQ(count_of(*rec, kind::solver_stop), 1);
}


// --- the metrics registry's profile view ---------------------------------

TEST(ProfileView, CgSolveAttributesTimeToKernelTags)
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
    auto prof = log::MetricsLogger::create();
    exec->add_logger(prof);

    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(prof.get());

    // The acceptance shape: spmv / dot / axpy / precond tags plus the
    // solver iteration stream.
    const auto profile = profile_of(*prof);
    for (const char* tag : {"op.csr_spmv", "op.dense_dot",
                            "op.dense_add_scaled", "op.jacobi_apply",
                            "solver.iteration"}) {
        EXPECT_GT(profile_field(profile, tag, "count"), 0.0) << tag;
    }
    EXPECT_GE(profile_field(profile, "op.csr_spmv", "wall_ns"), 0.0);
    EXPECT_EQ(profile_field(profile, "solver.stop", "count"), 1.0);

    // The view carries the registry's counts.
    const auto& tags = profile.at("tags");
    ASSERT_TRUE(tags.contains("op.csr_spmv"));
    EXPECT_EQ(tags.at("op.csr_spmv").at("count").as_double(),
              prof->registry().counter_value("mgko_events_total",
                                             "op.csr_spmv"));
}

TEST(ProfileView, ResetClearsTheSummary)
{
    auto prof = log::MetricsLogger::create();
    prof->on_pool_hit(nullptr, 128);
    auto profile = profile_of(*prof);
    EXPECT_EQ(profile_field(profile, "pool.hit", "count"), 1.0);
    EXPECT_EQ(profile_field(profile, "pool.hit", "bytes"), 128.0);
    prof->registry().reset();
    profile = profile_of(*prof);
    EXPECT_EQ(profile_field(profile, "pool.hit", "count"), 0.0);
    EXPECT_EQ(profile.at("tags").size(), 0);
}

TEST(ProfileView, AggregatesPerTag)
{
    auto prof = log::MetricsLogger::create();
    prof->on_operation_completed(nullptr, "csr_spmv", 100.0, 0.0, 0.0);
    prof->on_operation_completed(nullptr, "csr_spmv", 150.0, 0.0, 0.0);
    prof->on_allocation_completed(nullptr, 64, nullptr);
    const auto profile = profile_of(*prof);
    const auto& tags = profile.at("tags");
    ASSERT_TRUE(tags.contains("op.csr_spmv"));
    EXPECT_EQ(tags.at("op.csr_spmv").at("count").as_int(), 2);
    EXPECT_EQ(tags.at("op.csr_spmv").at("wall_ns").as_double(), 250.0);
    ASSERT_TRUE(tags.contains("mem.alloc"));
    EXPECT_EQ(tags.at("mem.alloc").at("count").as_int(), 1);
    EXPECT_EQ(tags.at("mem.alloc").at("bytes").as_int(), 64);
}


// --- binding-layer events -----------------------------------------------

TEST(EventLogger, BindingCallsEmitOverheadBreakdown)
{
    auto dev = bind::device("reference");
    ASSERT_TRUE(dev.valid());
    auto prof = log::MetricsLogger::create();
    bind::add_logger(prof);

    auto t = bind::as_tensor(dev, dim2{32, 1}, "double", 2.0);
    const double nrm = t.norm();
    EXPECT_GT(nrm, 0.0);
    bind::remove_logger(prof.get());

    const auto profile = profile_of(*prof);
    // At least one bound call was recorded under its mangled name...
    bool saw_named_call = false;
    double named_calls = 0.0;
    for (const auto& [tag, stats] : profile.at("tags").items()) {
        if (tag.rfind("bind.", 0) == 0 && tag != "bind.gil_wait" &&
            tag != "bind.lookup" && tag != "bind.boxing" &&
            tag != "bind.interpreter") {
            saw_named_call = true;
            named_calls += stats.at("count").as_double();
            EXPECT_GT(stats.at("count").as_double(), 0.0);
            EXPECT_GT(stats.at("wall_ns").as_double(), 0.0);
        }
    }
    EXPECT_TRUE(saw_named_call);
    // ...with the gil/lookup/boxing/interpreter breakdown alongside, one
    // sample per bound call.
    const auto calls = profile_field(profile, "bind.interpreter", "count");
    EXPECT_GT(calls, 0.0);
    EXPECT_EQ(calls, named_calls);
    EXPECT_EQ(profile_field(profile, "bind.gil_wait", "count"), calls);
    EXPECT_EQ(profile_field(profile, "bind.lookup", "count"), calls);
    EXPECT_EQ(profile_field(profile, "bind.boxing", "count"), calls);
    EXPECT_GT(profile_field(profile, "bind.interpreter", "wall_ns"), 0.0);
}

TEST(EventLogger, BindingLoggerRegistryAddRemove)
{
    auto rec = log::FlightRecorder::create();
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
    auto rec = log::FlightRecorder::create();
    logged_exec->add_logger(rec);
    const auto logged = run_solve(logged_exec);
    EXPECT_EQ(plain, 0);
    EXPECT_EQ(logged, plain);  // the hooks themselves don't allocate either
}


// --- concurrent emission (satellite: TSan stress) -----------------------

TEST(EventLogger, ConcurrentEmissionIntoOneProfilerIsSafe)
{
    // Many threads hammering alloc/free (pool events) and operations on
    // one executor with a shared MetricsLogger and recorder attached; run
    // under MGKO_SANITIZE=thread this is the logger-side data-race check.
    constexpr int num_threads = 8;
    constexpr int rounds = 200;
    auto exec = ReferenceExecutor::create();
    auto prof = log::MetricsLogger::create();
    // Big enough that no ring wraps even if every thread reuses one slot.
    auto rec = log::FlightRecorder::create(4 * num_threads * rounds);
    exec->add_logger(prof);
    exec->add_logger(rec);

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

    const auto& reg = prof->registry();
    const auto hits = reg.counter_value("mgko_events_total", "pool.hit");
    const auto misses = reg.counter_value("mgko_events_total", "pool.miss");
    EXPECT_EQ(hits + misses, num_threads * rounds);
    EXPECT_EQ(rec->dropped(), 0u);
    EXPECT_EQ(count_of(*rec, kind::alloc), num_threads * rounds);
    EXPECT_EQ(count_of(*rec, kind::free_mem), num_threads * rounds);
}


// --- attachment dedup (satellite: add_logger/remove_logger fixes) --------

TEST(EventLogger, DuplicateExecutorAttachmentIsIgnored)
{
    auto exec = ReferenceExecutor::create();
    const auto baseline = exec->get_loggers().size();
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);
    exec->add_logger(rec);  // second attach of the same logger: no-op
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);

    void* p = exec->alloc_bytes(128);
    exec->free_bytes(p);
    // One event per emission, not one per (duplicate) attachment.
    EXPECT_EQ(count_of(*rec, kind::alloc), 1);
    EXPECT_EQ(count_of(*rec, kind::free_mem), 1);

    // remove_logger removes the logger entirely; re-removal is a no-op.
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline);
    // Distinct loggers still coexist.
    auto rec2 = log::FlightRecorder::create();
    exec->add_logger(rec);
    exec->add_logger(rec2);
    EXPECT_EQ(exec->get_loggers().size(), baseline + 2);
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->get_loggers().size(), baseline + 1);
    exec->remove_logger(rec2.get());
}

TEST(EventLogger, DuplicateBindingAttachmentIsIgnored)
{
    auto rec = log::FlightRecorder::create();
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
    const auto calls = count_of(*rec, kind::binding);
    EXPECT_GT(calls, 0);

    bind::remove_logger(rec.get());
    EXPECT_EQ(bind::get_loggers().size(), baseline);
    bind::remove_logger(rec.get());  // removing all occurrences is stable
    EXPECT_EQ(bind::get_loggers().size(), baseline);
    // No events once detached.
    (void)t.norm();
    EXPECT_EQ(count_of(*rec, kind::binding), calls);
}


// --- Chrome trace: the flight recorder's view ---------------------------

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

/// Runs a 32-row CG solve on `exec`.
void cg_solve(std::shared_ptr<const Executor> exec)
{
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
}

TEST(ChromeTrace, CgSolveExportsWellNestedChromeJson)
{
    // A CG solve emits solver phase spans and kernel slices, and the
    // export is Chrome Trace Event JSON that round-trips through
    // config/json.hpp.
    auto exec = ReferenceExecutor::create();
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);
    cg_solve(exec);
    exec->remove_logger(rec.get());
    ASSERT_EQ(rec->dropped(), 0u);

    auto json = config::Json::parse(rec->to_chrome_trace_json());
    ASSERT_TRUE(json.contains("traceEvents"));
    ASSERT_TRUE(json.at("traceEvents").is_array());
    EXPECT_EQ(json.at("traceEvents").elements().size(),
              rec->snapshot().size());
    EXPECT_TRUE(parsed_trace_well_nested(json));
    size_type begins = 0;
    size_type ends = 0;
    bool saw_apply_span = false;
    bool saw_iteration_span = false;
    bool saw_spmv_slice = false;
    for (const auto& ev : json.at("traceEvents").elements()) {
        const auto ph = ev.at("ph").as_string();
        const auto name = ev.at("name").as_string();
        begins += ph == "B";
        ends += ph == "E";
        saw_apply_span |= ph == "B" && name == "solver.cg.apply";
        saw_iteration_span |= ph == "B" && name == "solver.cg.iteration";
        // Kernel slices carry the bare Operation tag under cat "op".
        saw_spmv_slice |= ph == "X" && name == "csr_spmv" &&
                          ev.at("cat").as_string() == "op";
    }
    EXPECT_EQ(begins, ends);
    EXPECT_TRUE(saw_apply_span);
    EXPECT_TRUE(saw_iteration_span);
    EXPECT_TRUE(saw_spmv_slice);
}

TEST(ChromeTrace, BindingCallsBecomeCompleteSlices)
{
    auto rec = log::FlightRecorder::create();
    bind::add_logger(rec);
    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{16, 1}, "double", 1.0);
    (void)t.norm();
    bind::remove_logger(rec.get());

    auto json = config::Json::parse(rec->to_chrome_trace_json());
    bool saw_call_slice = false;
    for (const auto& ev : json.at("traceEvents").elements()) {
        if (ev.at("ph").as_string() == "X" &&
            ev.at("cat").as_string() == "bind") {
            saw_call_slice = true;
            EXPECT_GT(ev.at("dur").as_double(), 0.0);
            EXPECT_TRUE(ev.at("args").contains("gil_wait_ns"));
        }
    }
    EXPECT_TRUE(saw_call_slice);
    EXPECT_TRUE(parsed_trace_well_nested(json));
}

TEST(ChromeTrace, DumpWritesNoFileOnceTheRingDropped)
{
    namespace fs = std::filesystem;
    const auto dir = fs::path{::testing::TempDir()} / "mgko-trace-dump";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ASSERT_EQ(setenv("MGKO_TRACE", dir.c_str(), 1), 0);

    // A ring that held the whole run: the dump is the Chrome trace.
    auto whole = log::FlightRecorder::create(1024);
    for (int i = 0; i < 100; ++i) {
        whole->on_pool_hit(nullptr, 64);
    }
    log::dump_trace(*whole, "whole");
    const auto written = dir / "mgko-trace-whole.json";
    ASSERT_TRUE(fs::exists(written));
    std::ifstream in{written};
    EXPECT_EQ(config::Json::parse(in).at("traceEvents").elements().size(),
              100u);

    // A wrapped ring must not pass for a full-run trace.
    auto wrapped = log::FlightRecorder::create(8);
    for (int i = 0; i < 32; ++i) {
        wrapped->on_pool_hit(nullptr, 64);
    }
    ASSERT_GT(wrapped->dropped(), 0u);
    testing::internal::CaptureStderr();
    log::dump_trace(*wrapped, "wrapped");
    const auto message = testing::internal::GetCapturedStderr();
    ASSERT_EQ(unsetenv("MGKO_TRACE"), 0);
    EXPECT_FALSE(fs::exists(dir / "mgko-trace-wrapped.json"));
    EXPECT_NE(message.find("dropped 24 of 32 records"), std::string::npos)
        << message;
    EXPECT_NE(message.find("MGKO_FLIGHT_CAPACITY=32"), std::string::npos)
        << message;
    fs::remove_all(dir);
}


// --- roofline accounting (tentpole: per-kernel work model) ---------------

TEST(ProfileView, CsrSpmvRooflineMatchesTheAnalyticWorkModel)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 64;
    auto data = test::laplacian_1d<double, int32>(n);
    const size_type nnz = data.entries.size();
    auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create(exec, dim2{n, 1});

    auto prof = log::MetricsLogger::create();
    exec->add_logger(prof);
    const size_type reps = 5;
    for (size_type r = 0; r < reps; ++r) {
        a->apply(b.get(), x.get());
    }
    exec->remove_logger(prof.get());

    const auto profile = profile_of(*prof);
    const auto& tag = profile.at("tags").at("op.csr_spmv");
    ASSERT_EQ(tag.at("count").as_int(), reps);
    const double wall_ns = tag.at("wall_ns").as_double();
    const double flops = tag.at("flops").as_double();
    const double work_bytes = tag.at("work_bytes").as_double();
    EXPECT_GT(wall_ns, 0.0);

    // Flops are exact: 2 nnz per SpMV.  Bytes match the analytic
    // compulsory traffic up to the cost model's locality miss term, which
    // is bounded by one extra value read per nonzero.
    const auto analytic =
        log::csr_spmv_work(n, nnz, sizeof(double), sizeof(int32));
    const auto rd = static_cast<double>(reps);
    EXPECT_DOUBLE_EQ(flops, rd * analytic.flops);
    EXPECT_GE(work_bytes, rd * analytic.bytes);
    EXPECT_LE(work_bytes, rd * (analytic.bytes +
                                static_cast<double>(nnz) * sizeof(double)));
    // The view's totals are the registry's, exactly.
    EXPECT_EQ(flops, prof->registry().counter_value("mgko_flops_total",
                                                    "op.csr_spmv"));

    // The roofline derivations are live and consistent.
    EXPECT_GT(tag.at("gflops").as_double(), 0.0);
    EXPECT_GT(tag.at("gbps").as_double(), 0.0);
    EXPECT_DOUBLE_EQ(tag.at("gflops").as_double(),
                     log::achieved_gflops(flops, wall_ns));
    EXPECT_DOUBLE_EQ(tag.at("gbps").as_double(),
                     log::achieved_gbps(work_bytes, wall_ns));
}

TEST(EventLogger, OperationEventsCarryCapturedWork)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create(exec, dim2{n, 1});
    auto rec = log::FlightRecorder::create();
    exec->add_logger(rec);
    a->apply(b.get(), x.get());
    exec->remove_logger(rec.get());

    const size_type nnz = 3 * n - 2;
    bool saw_work = false;
    for (const auto& r : records_of(*rec, kind::operation)) {
        if (std::string{r.tag} == "csr_spmv") {
            saw_work = true;
            EXPECT_DOUBLE_EQ(r.b, 2.0 * static_cast<double>(nnz));  // flops
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

TEST(ChromeTrace, ConcurrentStdThreadSpansStayWellNestedPerTrack)
{
    constexpr int num_threads = 8;
    constexpr int rounds = 100;
    constexpr int per_thread = 4 * rounds + 2;
    auto rec = log::FlightRecorder::create(per_thread);
    // Every thread claims its slot before any thread can exit, so none
    // inherits a recycled slot and each gets its own track.
    std::latch started{num_threads};
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&] {
            rec->on_span_begin("thread");
            started.arrive_and_wait();
            for (int i = 0; i < rounds; ++i) {
                rec->on_span_begin("outer");
                rec->on_span_begin("inner");
                rec->on_span_end("inner");
                rec->on_span_end("outer");
            }
            rec->on_span_end("thread");
        });
    }
    for (auto& th : threads) {
        th.join();
    }

    ASSERT_EQ(rec->dropped(), 0u);
    auto json = config::Json::parse(rec->to_chrome_trace_json());
    EXPECT_TRUE(parsed_trace_well_nested(json));
    const auto& events = json.at("traceEvents").elements();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(num_threads) * per_thread);
    std::set<std::int64_t> tids;
    for (const auto& ev : events) {
        tids.insert(ev.at("tid").as_int());
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(num_threads));
}

TEST(ChromeTrace, ConcurrentOpenMpSpansStayWellNestedPerTrack)
{
#ifdef MGKO_TSAN
    GTEST_SKIP() << "libgomp is not TSan-instrumented; the std::thread "
                    "variant covers this under TSan";
#else
    constexpr int rounds = 100;
    auto rec = log::FlightRecorder::create(4 * rounds);
    int num_threads = 0;
#pragma omp parallel num_threads(4)
    {
#pragma omp single
        num_threads = omp_get_num_threads();
        for (int i = 0; i < rounds; ++i) {
            rec->on_span_begin("omp.outer");
            rec->on_span_begin("omp.inner");
            rec->on_span_end("omp.inner");
            rec->on_span_end("omp.outer");
        }
    }
    ASSERT_EQ(rec->dropped(), 0u);
    auto json = config::Json::parse(rec->to_chrome_trace_json());
    EXPECT_TRUE(parsed_trace_well_nested(json));
    EXPECT_EQ(json.at("traceEvents").elements().size(),
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
    auto rec = log::FlightRecorder::create();
    auto prof = log::MetricsLogger::create();
    solver->add_logger(rec);
    solver->add_logger(prof);
    solver->apply(b.get(), x.get());

    // The per-system convergence log: one stop reason per system,
    // verbatim.
    const auto log =
        dynamic_cast<batch::BatchIterativeSolver<double>*>(solver.get())
            ->get_batch_logger();
    ASSERT_EQ(log->num_systems(), num);
    EXPECT_NE(log->stop_reason(1).find("breakdown"), std::string::npos);
    EXPECT_NE(log->stop_reason(0), log->stop_reason(1));

    // The profile view: batch.stop.<reason> totals partition the batch
    // (batch.stop.converged is the converged count, not a reason).
    const auto profile = profile_of(*prof);
    EXPECT_EQ(profile_field(profile, "batch.stop", "count"), 1.0);
    double tagged = 0.0;
    size_type reason_tags = 0;
    for (const auto& [tag, stats] : profile.at("tags").items()) {
        if (tag.rfind("batch.stop.", 0) == 0 &&
            tag != "batch.stop.converged") {
            ++reason_tags;
            tagged += stats.at("bytes").as_double();
        }
    }
    EXPECT_GE(reason_tags, 2u);  // converged + breakdown at minimum
    EXPECT_EQ(tagged, static_cast<double>(num));
    EXPECT_EQ(profile_field(profile, "batch.stop.converged", "bytes"), 2.0);

    // The Chrome trace: a batch.stop instant, and the batch spans stay
    // well nested around it.
    auto json = config::Json::parse(rec->to_chrome_trace_json());
    EXPECT_TRUE(parsed_trace_well_nested(json));
    bool saw_stop_instant = false;
    bool saw_apply_span = false;
    for (const auto& ev : json.at("traceEvents").elements()) {
        const auto ph = ev.at("ph").as_string();
        const auto name = ev.at("name").as_string();
        saw_stop_instant |= ph == "i" && name == "batch.stop";
        saw_apply_span |= ph == "B" && name == "batch.cg.apply";
    }
    EXPECT_TRUE(saw_stop_instant);
    EXPECT_TRUE(saw_apply_span);
}



// --- non-finite values in the exports ------------------------------------

TEST(NonFiniteExports, DivergingSolveKeepsEveryExportParseable)
{
    // IR with relaxation 5 on the Laplacian (eigenvalues up to ~4) blows
    // up to inf and then NaN; every export must stay readable.
    auto exec = ReferenceExecutor::create();
    auto rec = log::FlightRecorder::create();
    auto metrics = log::MetricsLogger::create();
    exec->add_logger(rec);
    exec->add_logger(metrics);
    const size_type n = 16;
    auto a = std::shared_ptr<Mtx>{
        Mtx::create_from_data(exec, test::laplacian_1d<double, int32>(n))};
    auto solver = config::config_solver(
        config::Json::parse(R"({"type": "solver::Ir", "relaxation_factor": 5.0,
                                "max_iters": 2000,
                                "reduction_factor": 1e-10})"),
        exec, a);
    auto b = Vec::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(metrics.get());
    exec->remove_logger(rec.get());

    // Chrome trace: a diverged residual reads null, never 0.
    auto trace = config::Json::parse(rec->to_chrome_trace_json());
    bool saw_null_residual = false;
    for (const auto& ev : trace.at("traceEvents").elements()) {
        if (ev.at("name").as_string() == "solver.iteration") {
            saw_null_residual |= ev.at("args").at("b").is_null();
        }
    }
    EXPECT_TRUE(saw_null_residual);

    // Registry JSON and the profile view parse.
    const auto& reg = metrics->registry();
    auto json = config::Json::parse(reg.to_json());
    EXPECT_TRUE(
        json.at("gauges").at("mgko_residual_norm").at("solver").is_null());
    EXPECT_TRUE(config::Json::parse(reg.profile_json()).contains("tags"));

    // Prometheus spells the value the exposition format's way.
    const auto text = reg.prometheus_text();
    const std::string line = "mgko_residual_norm{tag=\"solver\"} ";
    const auto at = text.find(line);
    ASSERT_NE(at, std::string::npos) << text;
    const auto value =
        text.substr(at + line.size(), text.find('\n', at) - at - line.size());
    EXPECT_TRUE(value == "NaN" || value == "+Inf") << value;
}

}  // namespace
