// The always-on tier's recording half: FlightRecorder tag interning, ring
// wraparound, concurrent writers + snapshots (std::thread and OpenMP —
// the stress cases the tsan preset runs), Chrome-trace export of
// snapshots, auto-attachment to executors and the binding layer, and the
// crash hook's postmortem dump (subprocess death tests).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "config/json.hpp"
#include "core/exception.hpp"
#include "core/executor.hpp"
#include "log/flight_recorder.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
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

using Recorder = log::FlightRecorder;


// --- tag interning -------------------------------------------------------

TEST(FlightRecorder, InterningIsByContentAndStable)
{
    auto rec = Recorder::create(16);
    const auto a1 = rec->intern("csr_spmv");
    const auto a2 = rec->intern("csr_spmv");
    const auto b = rec->intern("dense_dot");
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_STREQ(rec->tag_name(a1), "csr_spmv");
    EXPECT_STREQ(rec->tag_name(b), "dense_dot");
}

TEST(FlightRecorder, InterningCopiesTransientStrings)
{
    // Emitters pass long-lived literals, but the recorder must not rely
    // on it: a buffer reused after interning still resolves correctly.
    auto rec = Recorder::create(16);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "transient_tag");
    const auto id = rec->intern(buffer);
    std::snprintf(buffer, sizeof(buffer), "clobbered!!!!");
    EXPECT_STREQ(rec->tag_name(id), "transient_tag");
    EXPECT_EQ(rec->intern("transient_tag"), id);
}

TEST(FlightRecorder, UnknownAndOverflowTagsAnswerBenignly)
{
    auto rec = Recorder::create(16);
    EXPECT_STREQ(rec->tag_name(Recorder::overflow_tag), "<overflow>");
    EXPECT_STREQ(rec->tag_name(123), "<unknown>");
}


// --- recording and wraparound --------------------------------------------

TEST(FlightRecorder, RecordsCarryKindTagAndPayload)
{
    auto rec = Recorder::create(64);
    rec->on_pool_hit(nullptr, 4096);
    rec->on_operation_completed(nullptr, "csr_spmv", 1500.0, 2000.0, 0.0);
    const auto snap = rec->snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].kind, Recorder::event_kind::pool_hit);
    EXPECT_STREQ(snap[0].tag, "pool.hit");
    EXPECT_EQ(snap[0].a, 4096.0);
    EXPECT_EQ(snap[1].kind, Recorder::event_kind::operation);
    EXPECT_STREQ(snap[1].tag, "csr_spmv");
    EXPECT_EQ(snap[1].a, 1500.0);
    EXPECT_EQ(snap[1].b, 2000.0);
    EXPECT_GE(snap[1].ts_ns, snap[0].ts_ns);
    EXPECT_EQ(rec->recorded(), 2u);
    EXPECT_EQ(rec->dropped(), 0u);
}

TEST(FlightRecorder, RingWraparoundKeepsTheNewestRecords)
{
    auto rec = Recorder::create(16);
    EXPECT_EQ(rec->capacity_per_thread(), 16);
    for (int i = 0; i < 100; ++i) {
        rec->on_pool_hit(nullptr, static_cast<size_type>(i));
    }
    const auto snap = rec->snapshot();
    // A quiescent ring yields capacity-1 records (the oldest slot is
    // treated as potentially mid-overwrite), all of them the newest.
    ASSERT_EQ(snap.size(), 15u);
    EXPECT_EQ(snap.front().seq, 85u);
    EXPECT_EQ(snap.front().a, 85.0);
    EXPECT_EQ(snap.back().seq, 99u);
    EXPECT_EQ(snap.back().a, 99.0);
    EXPECT_EQ(rec->recorded(), 100u);
    EXPECT_GE(rec->dropped(), 84u);
}

TEST(FlightRecorder, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(Recorder::create(5)->capacity_per_thread(), 8);
    EXPECT_EQ(Recorder::create(1)->capacity_per_thread(), 2);
    EXPECT_EQ(Recorder::create(4096)->capacity_per_thread(), 4096);
}

TEST(FlightRecorder, ResetDropsRecordsButKeepsTags)
{
    auto rec = Recorder::create(16);
    rec->on_pool_miss(nullptr, 64);
    const auto id = rec->intern("keep_me");
    rec->reset();
    EXPECT_TRUE(rec->snapshot().empty());
    EXPECT_EQ(rec->recorded(), 0u);
    EXPECT_STREQ(rec->tag_name(id), "keep_me");
}


// --- concurrent writers --------------------------------------------------

TEST(FlightRecorder, ConcurrentWritersAndSnapshotsStayConsistent)
{
    auto rec = Recorder::create(256);
    constexpr int num_threads = 4;
    constexpr int rounds = 10000;
    std::atomic<bool> done{false};
    std::thread scraper{[&] {
        // Scrapes race the writers on purpose; every record that comes
        // back must decode to the one kind/tag the writers emit.
        while (!done.load(std::memory_order_acquire)) {
            for (const auto& record : rec->snapshot()) {
                ASSERT_EQ(record.kind, Recorder::event_kind::pool_hit);
                ASSERT_STREQ(record.tag, "pool.hit");
            }
        }
    }};
    std::vector<std::thread> writers;
    for (int t = 0; t < num_threads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < rounds; ++i) {
                rec->on_pool_hit(nullptr,
                                 static_cast<size_type>(t * rounds + i));
            }
        });
    }
    for (auto& w : writers) {
        w.join();
    }
    done.store(true, std::memory_order_release);
    scraper.join();
    EXPECT_EQ(rec->recorded(),
              static_cast<std::uint64_t>(num_threads) * rounds);
    const auto snap = rec->snapshot();
    EXPECT_LE(snap.size(), static_cast<std::size_t>(num_threads + 1) * 256);
    EXPECT_GT(snap.size(), 0u);
}

TEST(FlightRecorder, OpenMPWritersStress)
{
#ifdef MGKO_TSAN
    GTEST_SKIP() << "libgomp is not TSan-instrumented";
#endif
    auto rec = Recorder::create(128);
    constexpr int rounds = 5000;
    const int num_threads = std::min(omp_get_max_threads(), 8);
#pragma omp parallel num_threads(num_threads)
    {
#pragma omp for
        for (int i = 0; i < rounds; ++i) {
            rec->on_pool_miss(nullptr, static_cast<size_type>(i));
            rec->on_operation_completed(nullptr, "omp_op", 10.0, 1.0, 0.0);
        }
    }
    EXPECT_EQ(rec->recorded(), 2u * rounds);
    for (const auto& record : rec->snapshot()) {
        EXPECT_TRUE(record.kind == Recorder::event_kind::pool_miss ||
                    record.kind == Recorder::event_kind::operation);
    }
}

TEST(FlightRecorder, ConcurrentInterningAgreesOnIds)
{
    auto rec = Recorder::create(16);
    constexpr int num_threads = 8;
    const char* names[] = {"alpha", "beta", "gamma", "delta"};
    std::vector<std::thread> threads;
    std::vector<std::array<std::uint16_t, 4>> ids(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            for (int n = 0; n < 4; ++n) {
                ids[t][(t + n) % 4] = rec->intern(names[(t + n) % 4]);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (int t = 1; t < num_threads; ++t) {
        EXPECT_EQ(ids[t], ids[0]);
    }
}


// --- exports -------------------------------------------------------------

bool parsed_trace_well_nested(const config::Json& doc)
{
    std::map<double, std::vector<std::string>> stacks;
    for (const auto& event : doc.at("traceEvents").elements()) {
        const auto phase = event.at("ph").as_string();
        const auto tid = event.at("tid").as_double();
        if (phase == "B") {
            stacks[tid].push_back(event.at("name").as_string());
        } else if (phase == "E") {
            auto& stack = stacks[tid];
            if (stack.empty() ||
                stack.back() != event.at("name").as_string()) {
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

TEST(FlightRecorder, ChromeTraceExportParsesAndStaysWellNested)
{
    auto rec = Recorder::create(64);
    rec->on_span_begin("solver.apply");
    rec->on_operation_completed(nullptr, "csr_spmv", 1000.0, 500.0, 0.0);
    rec->on_span_begin("solver.iteration");
    rec->on_allocation_completed(nullptr, 128, nullptr);
    rec->on_span_end("solver.iteration");
    rec->on_span_end("solver.apply");
    rec->on_binding_call_completed("apply_csr", 2000.0, 10.0, 5.0, 5.0, 80.0);

    const auto json = rec->to_chrome_trace_json();
    auto doc = config::Json::parse(json);
    ASSERT_TRUE(doc.contains("traceEvents"));
    const auto& events = doc.at("traceEvents").elements();
    ASSERT_GE(events.size(), 7u);
    EXPECT_TRUE(parsed_trace_well_nested(doc));
    bool saw_op_slice = false;
    bool saw_bind_slice = false;
    for (const auto& event : events) {
        ASSERT_TRUE(event.contains("name"));
        ASSERT_TRUE(event.contains("ph"));
        ASSERT_TRUE(event.contains("ts"));
        if (event.at("ph").as_string() == "X") {
            saw_op_slice |= event.at("name").as_string() == "csr_spmv";
            saw_bind_slice |= event.at("name").as_string() == "apply_csr";
            EXPECT_TRUE(event.contains("dur"));
        }
    }
    EXPECT_TRUE(saw_op_slice);
    EXPECT_TRUE(saw_bind_slice);
}

TEST(FlightRecorder, TraceExportRepairsSpansBrokenByWraparound)
{
    // Capacity 8: the span_begin is long overwritten by the pool events,
    // so the surviving span_end is unmatched and must be dropped; the
    // still-open trailing begin must get a synthesized end.
    auto rec = Recorder::create(8);
    rec->on_span_begin("lost.begin");
    for (int i = 0; i < 32; ++i) {
        rec->on_pool_hit(nullptr, 64);
    }
    rec->on_span_end("lost.begin");
    rec->on_span_begin("still.open");
    auto doc = config::Json::parse(rec->to_chrome_trace_json());
    EXPECT_TRUE(parsed_trace_well_nested(doc));
    bool saw_synthesized_end = false;
    for (const auto& event : doc.at("traceEvents").elements()) {
        saw_synthesized_end |=
            event.at("ph").as_string() == "E" &&
            event.at("name").as_string() == "still.open";
    }
    EXPECT_TRUE(saw_synthesized_end);
}

// --- always-on wiring ----------------------------------------------------

TEST(FlightRecorder, ExecutorFactoriesAutoAttachTheSharedRecorder)
{
    auto shared = log::shared_flight_recorder();
    for (auto exec : {static_cast<std::shared_ptr<Executor>>(
                          ReferenceExecutor::create()),
                      static_cast<std::shared_ptr<Executor>>(
                          OmpExecutor::create())}) {
        bool attached = false;
        for (const auto& logger : exec->get_loggers()) {
            attached |= logger.get() == shared.get();
        }
        EXPECT_TRUE(attached) << exec->name();
    }
}

TEST(FlightRecorder, SolverRunLandsInTheSharedRecorderRings)
{
    auto shared = log::shared_flight_recorder();
    const auto before = shared->recorded();
    auto exec = ReferenceExecutor::create();
    const size_type n = 32;
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(
            exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(50))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());
    EXPECT_GT(shared->recorded(), before);
    bool saw_spmv = false;
    for (const auto& record : shared->snapshot()) {
        saw_spmv |= record.kind == Recorder::event_kind::operation &&
                    std::string{record.tag} == "csr_spmv";
    }
    EXPECT_TRUE(saw_spmv);
}

TEST(FlightRecorder, BoundCallsLandInTheSharedRecorderRings)
{
    auto shared = log::shared_flight_recorder();
    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{8, 1}, "double", 1.0);
    (void)t.norm();
    bool saw_binding = false;
    for (const auto& record : shared->snapshot()) {
        saw_binding |= record.kind == Recorder::event_kind::binding;
    }
    EXPECT_TRUE(saw_binding);
}

TEST(FlightRecorder, FlightDumpBindingReturnsTraceJsonOrWritesAFile)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    // No argument: Chrome trace JSON as a string.
    auto json = m.call("flight_dump", {});
    auto doc = config::Json::parse(json.as_string());
    EXPECT_TRUE(doc.contains("traceEvents"));
    // With a path: the postmortem text lands there.
    const std::string path =
        ::testing::TempDir() + "mgko_flight_dump_test.txt";
    auto returned = m.call("flight_dump", {bind::Value{path}});
    EXPECT_EQ(returned.as_string(), path);
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_EQ(first_line, "# mgko flight recorder postmortem");
    ::unlink(path.c_str());
}


// --- postmortem writer ---------------------------------------------------

TEST(FlightRecorder, WritePostmortemEmitsOneLinePerRecord)
{
    auto rec = Recorder::create(16);
    rec->on_pool_hit(nullptr, 4096);
    rec->on_operation_completed(nullptr, "csr_spmv", 1234.0, 0.0, 0.0);
    const std::string path = ::testing::TempDir() + "mgko_postmortem_unit.txt";
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    rec->write_postmortem(fd, "unit test");
    ::close(fd);
    std::ifstream in{path};
    std::string contents{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
    EXPECT_NE(contents.find("# mgko flight recorder postmortem"),
              std::string::npos);
    EXPECT_NE(contents.find("# reason: unit test"), std::string::npos);
    EXPECT_NE(contents.find("pool_hit pool.hit 4096 0"), std::string::npos);
    EXPECT_NE(contents.find("op csr_spmv 1234 0"), std::string::npos);
    ::unlink(path.c_str());
}


// --- crash hook (subprocess death tests) ---------------------------------

std::string read_file(const std::string& path)
{
    std::ifstream in{path};
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(FlightRecorderDeathTest, AbortDumpsThePostmortemBlackBox)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "mgko_postmortem_abort.txt";
    ::unlink(path.c_str());
    EXPECT_DEATH(
        {
            log::install_crash_handler(path);
            auto exec = ReferenceExecutor::create();
            void* p = exec->alloc_bytes(256);
            exec->free_bytes(p);
            std::abort();
        },
        "");
    const auto contents = read_file(path);
    EXPECT_NE(contents.find("# mgko flight recorder postmortem"),
              std::string::npos);
    EXPECT_NE(contents.find("# reason: SIGABRT"), std::string::npos);
    EXPECT_NE(contents.find("alloc mem.alloc 256"), std::string::npos);
    ::unlink(path.c_str());
}

TEST(FlightRecorderDeathTest, UncaughtMgkoErrorDumpsWithItsMessage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "mgko_postmortem_throw.txt";
    ::unlink(path.c_str());
    EXPECT_DEATH(
        {
            log::install_crash_handler(path);
            auto exec = ReferenceExecutor::create();
            exec->free_bytes(exec->alloc_bytes(64));
            // Thrown off-thread so it reaches std::terminate directly
            // (gtest catches exceptions escaping the statement itself).
            std::thread{[] {
                MGKO_ENSURE(false, "postmortem death test marker");
            }}.join();
        },
        "");
    const auto contents = read_file(path);
    EXPECT_NE(contents.find("# mgko flight recorder postmortem"),
              std::string::npos);
    // The terminate handler records the exception's what() as the reason.
    EXPECT_NE(contents.find("postmortem death test marker"),
              std::string::npos);
    ::unlink(path.c_str());
}

}  // namespace
