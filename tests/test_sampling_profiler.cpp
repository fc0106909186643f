// The measured tier's test surface: SampleFrame stacking and interning,
// SIGPROF sampling start/stop/retune/reset, folded-stack and pprof-JSON
// export grammar, multi-threaded sampling storms (std::thread — the tsan
// preset runs these), the hardware-counter fallback ladder, and the
// DESIGN.md §18 crash-interaction guarantee: a postmortem dump stays well
// formed while SIGPROF keeps firing (subprocess death test).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bindings/registry.hpp"
#include "core/exception.hpp"
#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/sampling_profiler.hpp"

namespace {

using namespace mgko;

// Sampling and hw-counter state are process-global; every case leaves both
// off so cases stay order-independent.
class SamplingProfiler : public ::testing::Test {
protected:
    void SetUp() override
    {
        log::sampling_stop();
        log::sampling_reset();
        log::hw_counters_disable();
        log::hw_counters_reset();
    }
    void TearDown() override
    {
        log::sampling_stop();
        log::sampling_reset();
        log::hw_counters_disable();
        log::hw_counters_reset();
    }
};

using SamplingProfilerStress = SamplingProfiler;
using HwCounters = SamplingProfiler;

/// Burns CPU inside `frame_fn` until the process has accumulated at least
/// `want` samples or ~5 s of wall time pass.  ITIMER_PROF advances with
/// consumed CPU time, so the loop must actually compute.
template <typename FrameFn>
double spin_until_samples(std::uint64_t want, FrameFn&& frame_fn)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    volatile double sink = 1.0;
    while (log::sampling_samples() < want &&
           std::chrono::steady_clock::now() < deadline) {
        frame_fn([&] {
            for (int i = 0; i < 50000; ++i) {
                sink = sink * 1.0000001 + 1e-9;
            }
        });
    }
    return sink;
}


// --- control surface -----------------------------------------------------

TEST_F(SamplingProfiler, StartStopAndRetune)
{
    EXPECT_FALSE(log::sampling_active());
    EXPECT_EQ(log::sampling_hz(), 0);

    ASSERT_TRUE(log::sampling_start(97));
    EXPECT_TRUE(log::sampling_active());
    EXPECT_EQ(log::sampling_hz(), 97);

    // Retune in place: same handler, re-armed timer.
    ASSERT_TRUE(log::sampling_start(251));
    EXPECT_EQ(log::sampling_hz(), 251);

    log::sampling_stop();
    EXPECT_FALSE(log::sampling_active());
    EXPECT_EQ(log::sampling_hz(), 0);
}

TEST_F(SamplingProfiler, RateIsClampedToTheSupportedRange)
{
    ASSERT_TRUE(log::sampling_start(1000000));
    EXPECT_EQ(log::sampling_hz(), 1000);
    ASSERT_TRUE(log::sampling_start(-5));
    EXPECT_EQ(log::sampling_hz(), 1);
}

TEST_F(SamplingProfiler, InactiveFramesCostNothingAndRecordNothing)
{
    {
        log::SampleFrame outer{"outer"};
        log::SampleFrame inner{"inner"};
    }
    EXPECT_EQ(log::sampling_samples(), 0u);
    EXPECT_EQ(log::sampling_folded(), "");
}


// --- capture and export ---------------------------------------------------

TEST_F(SamplingProfiler, CapturesNestedTagStacksIntoFoldedLines)
{
    ASSERT_TRUE(log::sampling_start(997));
    spin_until_samples(25, [](auto&& burn) {
        log::SampleFrame outer{"unit.outer"};
        log::SampleFrame inner{"unit.inner"};
        burn();
    });
    log::sampling_stop();
    ASSERT_GT(log::sampling_samples(), 0u);

    const auto folded = log::sampling_folded();
    EXPECT_NE(folded.find("mgko;unit.outer;unit.inner "), std::string::npos)
        << folded;
}

TEST_F(SamplingProfiler, FoldedGrammarHoldsForEveryLine)
{
    ASSERT_TRUE(log::sampling_start(997));
    spin_until_samples(25, [](auto&& burn) {
        log::SampleFrame frame{"unit.grammar"};
        burn();
    });
    log::sampling_stop();

    std::istringstream in{log::sampling_folded()};
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        // "frame(;frame)* count": count is the digits after the last space,
        // frames are nonempty and ';'-separated.
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const auto count = line.substr(space + 1);
        ASSERT_FALSE(count.empty()) << line;
        EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
            << line;
        const auto stack = line.substr(0, space);
        ASSERT_FALSE(stack.empty()) << line;
        EXPECT_NE(stack.front(), ';') << line;
        EXPECT_NE(stack.back(), ';') << line;
        EXPECT_EQ(stack.find(";;"), std::string::npos) << line;
        EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    }
    EXPECT_GT(lines, 0u);
}

TEST_F(SamplingProfiler, SamplesWithNoOpenFramesFoldToUntracked)
{
    ASSERT_TRUE(log::sampling_start(997));
    // Register this thread with one short-lived frame, then burn CPU with
    // the stack empty: those samples must not be lost, just unattributed.
    spin_until_samples(15, [](auto&& burn) {
        { log::SampleFrame frame{"unit.register"}; }
        burn();
    });
    log::sampling_stop();
    EXPECT_NE(log::sampling_folded().find("mgko;<untracked> "),
              std::string::npos);
}

TEST_F(SamplingProfiler, ProfileJsonCarriesHzSamplesAndStacks)
{
    ASSERT_TRUE(log::sampling_start(499));
    spin_until_samples(10, [](auto&& burn) {
        log::SampleFrame frame{"unit.json"};
        burn();
    });
    const auto json = log::sampling_profile_json();
    log::sampling_stop();

    EXPECT_NE(json.find("\"profile\": \"cpu_samples\""), std::string::npos);
    EXPECT_NE(json.find("\"hz\": 499"), std::string::npos);
    EXPECT_NE(json.find("\"stacks\": ["), std::string::npos);
    EXPECT_NE(json.find("\"unit.json\""), std::string::npos);
    EXPECT_EQ(json.find("\"samples\": 0,"), std::string::npos);
}

TEST_F(SamplingProfiler, ResetClearsSamplesButKeepsTheTimerState)
{
    ASSERT_TRUE(log::sampling_start(997));
    spin_until_samples(10, [](auto&& burn) {
        log::SampleFrame frame{"unit.reset"};
        burn();
    });
    ASSERT_GT(log::sampling_samples(), 0u);
    log::sampling_stop();

    log::sampling_reset();
    EXPECT_EQ(log::sampling_samples(), 0u);
    EXPECT_EQ(log::sampling_dropped(), 0u);
    EXPECT_EQ(log::sampling_folded(), "");
}


// --- multi-threaded storm (stress label; tsan preset runs this) -----------

TEST_F(SamplingProfilerStress, ConcurrentFramePushersUnderASamplingStorm)
{
    ASSERT_TRUE(log::sampling_start(1000));
    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            started.fetch_add(1);
            // Distinct literals per thread exercise the intern table and
            // the pointer-keyed cache concurrently.
            static const char* names[] = {"storm.a", "storm.b", "storm.c",
                                          "storm.d"};
            volatile double sink = 1.0;
            while (!stop.load(std::memory_order_relaxed)) {
                log::SampleFrame outer{names[t % 4]};
                log::SampleFrame inner{"storm.inner"};
                for (int i = 0; i < 20000; ++i) {
                    sink = sink * 1.0000001 + 1e-9;
                }
            }
        });
    }
    spin_until_samples(200, [](auto&& burn) {
        log::SampleFrame frame{"storm.main"};
        burn();
    });
    stop.store(true);
    for (auto& w : workers) {
        w.join();
    }
    log::sampling_stop();
    EXPECT_EQ(started.load(), 4);
    EXPECT_GT(log::sampling_samples(), 0u);
    // Export must stay parseable after concurrent capture.
    const auto folded = log::sampling_folded();
    EXPECT_NE(folded.find("storm."), std::string::npos);
}


// --- hardware counters -----------------------------------------------------

TEST_F(HwCounters, DisabledScopesRecordNothing)
{
    {
        log::HwCounterScope scope{"unit.idle"};
    }
    EXPECT_TRUE(log::hw_counters_snapshot().empty());
    EXPECT_STREQ(log::hw_counters_source(), "off");
    EXPECT_FALSE(log::hw_counters_active());
}

TEST_F(HwCounters, RusageModeForcesTheFallbackRung)
{
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    EXPECT_TRUE(log::hw_counters_active());
    EXPECT_STREQ(log::hw_counters_source(), "rusage");
}

TEST_F(HwCounters, AutoModeLandsOnARealRung)
{
    // perf_event_open may be denied (seccomp, perf_event_paranoid); the
    // tier must still come up on the fallback rung, never "off".
    ASSERT_TRUE(log::hw_counters_enable("auto"));
    const std::string source = log::hw_counters_source();
    EXPECT_TRUE(source == "perf_event" || source == "rusage") << source;
}

TEST_F(HwCounters, EnableAcceptsOnlyTheDocumentedModes)
{
    for (const char* mode : {"auto", "perf", "on", "1"}) {
        ASSERT_TRUE(log::hw_counters_enable(mode)) << mode;
        EXPECT_TRUE(log::hw_counters_active()) << mode;
        log::hw_counters_disable();
    }
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    EXPECT_STREQ(log::hw_counters_source(), "rusage");
    log::hw_counters_disable();
    // Any other spelling throws and leaves the tier as it was; "false"
    // must not read as "auto".
    for (const char* mode : {"false", "off", "perf_event", "AUTO", ""}) {
        EXPECT_THROW(log::hw_counters_enable(mode), BadParameter) << mode;
        EXPECT_FALSE(log::hw_counters_active()) << mode;
    }
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    EXPECT_THROW(log::hw_counters_enable("false"), BadParameter);
    EXPECT_STREQ(log::hw_counters_source(), "rusage");
}

TEST_F(HwCounters, BindingPropagatesAnUnknownMode)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    EXPECT_THROW(m.call("hw_counters", {bind::Value{"false"}}), BadParameter);
    EXPECT_FALSE(log::hw_counters_active());
    EXPECT_EQ(m.call("hw_counters", {bind::Value{"rusage"}}).as_string(),
              "rusage");
    EXPECT_EQ(m.call("hw_counters", {bind::Value{"off"}}).as_string(), "off");
}

TEST(HwCountersDeathTest, EnvReaderReportsAnUnknownModeAndStaysOff)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ::setenv("MGKO_HW_COUNTERS", "false", 1);
            log::hw_counters_from_env();
            std::_Exit(log::hw_counters_active() ? 1 : 0);
        },
        ::testing::ExitedWithCode(0), "mgko: MGKO_HW_COUNTERS='false'");
}

TEST_F(HwCounters, ScopesAccumulatePerTagTotals)
{
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    volatile double sink = 1.0;
    for (int rep = 0; rep < 3; ++rep) {
        log::HwCounterScope scope{"unit.burn"};
        for (int i = 0; i < 2000000; ++i) {
            sink = sink * 1.0000001 + 1e-9;
        }
    }
    const auto totals = log::hw_counters_snapshot();
    ASSERT_EQ(totals.count("unit.burn"), 1u);
    const auto& t = totals.at("unit.burn");
    EXPECT_EQ(t.count, 3u);
    EXPECT_GT(t.wall_ns, 0.0);
    EXPECT_GT(t.cpu_ns, 0.0);
    // A pure-compute scope spends roughly as much CPU as wall time.
    EXPECT_LT(t.cpu_ns, 10.0 * t.wall_ns);
}

TEST_F(HwCounters, ReadNowIsMonotoneInWallAndCpuTime)
{
    const auto a = log::hw_read_now();
    volatile double sink = 1.0;
    for (int i = 0; i < 1000000; ++i) {
        sink = sink * 1.0000001 + 1e-9;
    }
    const auto b = log::hw_read_now();
    const auto delta = b - a;
    EXPECT_GT(delta.wall_ns, 0.0);
    EXPECT_GE(delta.cpu_ns, 0.0);
}

TEST_F(HwCounters, JsonAndPrometheusExportsCarryTheTaggedTotals)
{
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    volatile double sink = 1.0;
    {
        log::HwCounterScope scope{"unit.export"};
        for (int i = 0; i < 1000000; ++i) {
            sink = sink * 1.0000001 + 1e-9;
        }
    }
    const auto json = log::hw_counters_json();
    EXPECT_NE(json.find("\"source\": \"rusage\""), std::string::npos);
    EXPECT_NE(json.find("\"unit.export\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu_ns\": "), std::string::npos);

    const auto prom = log::hw_counters_prometheus();
    EXPECT_NE(prom.find("mgko_hw_active 1"), std::string::npos);
    EXPECT_NE(prom.find("mgko_hw_source{source=\"rusage\"} 1"),
              std::string::npos);
    EXPECT_NE(prom.find("mgko_hw_cpu_ns_total{kernel=\"unit.export\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("mgko_hw_scopes_total{kernel=\"unit.export\"} 1"),
              std::string::npos);
}

TEST_F(HwCounters, DisableMidScopeDropsThePartialMeasurement)
{
    ASSERT_TRUE(log::hw_counters_enable("rusage"));
    {
        log::HwCounterScope scope{"unit.partial"};
        log::hw_counters_disable();
    }
    EXPECT_EQ(log::hw_counters_snapshot().count("unit.partial"), 0u);
}


// --- crash-hook interaction (DESIGN.md §18; subprocess death test) ---------

std::string read_file(const std::string& path)
{
    std::ifstream in{path};
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(SamplingProfilerDeathTest, PostmortemStaysWellFormedUnderASigprofStorm)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        ::testing::TempDir() + "mgko_postmortem_sampling.txt";
    ::unlink(path.c_str());
    EXPECT_DEATH(
        {
            log::install_crash_handler(path);
            // Max-rate storm: SIGPROF keeps firing while the SIGABRT
            // handler's write(2) loop emits the postmortem.  SA_RESTART on
            // the sampling handler is what keeps those writes whole.
            log::sampling_start(1000);
            log::shared_flight_recorder()->on_operation_completed(
                nullptr, "pre_crash_marker", 42.0, 0.0, 0.0);
            volatile double sink = 1.0;
            while (log::sampling_samples() < 50) {
                log::SampleFrame frame{"death.burn"};
                for (int i = 0; i < 50000; ++i) {
                    sink = sink * 1.0000001 + 1e-9;
                }
            }
            std::abort();
        },
        "");
    const auto contents = read_file(path);
    EXPECT_NE(contents.find("# mgko flight recorder postmortem"),
              std::string::npos);
    EXPECT_NE(contents.find("# reason: SIGABRT"), std::string::npos);
    EXPECT_NE(contents.find("pre_crash_marker"), std::string::npos);
    // Every record line stays intact: text lines start with '#', record
    // lines end in the two numeric columns the writer always emits.
    std::istringstream in{contents};
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_NE(line.find_first_of("0123456789", space), std::string::npos)
            << line;
    }
    ::unlink(path.c_str());
}

}  // namespace
