// perfbench: the wall-clock benchmark of mgko.
//
//   perfbench --workload <poisson3d_amg|serve_mixed|pyside_eigs>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Untraced (--trace 0): end-to-end metrics only, tracing off.
// Traced (--trace 1): the same loop with spans and counter snapshots
// around every public call the benchmark makes (switched on and off in
// half-second blocks, which gives the tracing overhead), then the
// per-layer probes of every workload on that workload's own inputs; the
// spans are written as Chrome Trace Event JSON into --out.
//
// Every answer is checked.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/executor.hpp"
#include "workloads.hpp"

namespace perfbench {


CounterDelta::CounterDelta(const mgko::Executor& exec)
    : exec_{exec},
      launches_{static_cast<double>(exec.num_kernel_launches())},
      kernel_ns_{exec.real_kernel_wall_ns()},
      misses_{static_cast<double>(exec.num_allocations())}
{}


void CounterDelta::finish(OpSample& sample) const
{
    sample.launches =
        static_cast<double>(exec_.num_kernel_launches()) - launches_;
    sample.kernel_ns = exec_.real_kernel_wall_ns() - kernel_ns_;
    sample.pool_misses = static_cast<double>(exec_.num_allocations()) - misses_;
    Tracer::get().counters("executor", {{"launches", sample.launches},
                                        {"kernel_ns", sample.kernel_ns},
                                        {"pool_misses", sample.pool_misses}});
}


std::vector<OpSample> single_caller_loop(
    double seconds, bool traced, StealMeter& steal,
    const std::function<OpSample(std::uint64_t)>& op, const Between& between)
{
    std::vector<OpSample> samples;
    for (std::uint64_t i = 1;; ++i) {
        if (steal.tick() && between) {
            // A build replaces the state the ops run on; one op on the new
            // state warms it (lazy workspaces) before the window resumes.
            between();
            op(i++);
            steal.resume();
        }
        const double elapsed = steal.measured_s();
        if (elapsed >= 4 * seconds ||
            (elapsed >= seconds && samples.size() >= min_latency_samples)) {
            break;
        }
        if (traced) {
            Tracer::get().set_enabled(static_cast<long>(elapsed / 0.5) % 2 ==
                                      0);
        }
        const bool on = Tracer::get().enabled();
        auto sample = op(i);
        sample.end_s = now_s();
        sample.traced = traced && on;
        samples.push_back(sample);
    }
    steal.close();
    if (traced) {
        Tracer::get().set_enabled(true);
    }
    return samples;
}


void report_traced_loop(Report& report, const std::vector<OpSample>& samples)
{
    double wall = 0.0, launches = 0.0, kernel_ns = 0.0;
    std::size_t counted = 0;
    std::vector<double> on, off;
    for (const auto& s : samples) {
        (s.traced ? on : off).push_back(s.seconds);
        if (s.launches >= 0.0 && s.kernel_ns >= 0.0) {
            wall += s.seconds;
            launches += s.launches;
            kernel_ns += s.kernel_ns;
            ++counted;
        }
    }
    if (counted == 0 || on.empty() || off.empty()) {
        report.fail("traced loop produced no counted or no on/off samples");
        return;
    }
    const double n = static_cast<double>(counted);
    report.metric("core.launches_per_op", launches / n, "count", counted);
    report.metric("core.kernel_share", kernel_ns * 1e-9 / wall, "ratio",
                  counted);
    report.metric("core.host_us_per_launch",
                  (wall - kernel_ns * 1e-9) / std::max(1.0, launches) * 1e6,
                  "us", counted);
    double misses = 0.0;
    std::size_t miss_counted = 0;
    for (const auto& s : samples) {
        if (s.pool_misses >= 0.0) {
            misses += s.pool_misses;
            ++miss_counted;
        }
    }
    if (miss_counted > 0) {
        report.metric("core.pool_misses_per_op",
                      misses / static_cast<double>(miss_counted), "count",
                      miss_counted);
    }
    report.metric("trace.overhead_pct",
                  (median(on) / median(off) - 1.0) * 100.0, "%",
                  samples.size());
}


const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names{"poisson3d_amg", "serve_mixed",
                                                "pyside_eigs"};
    return names;
}


std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir)
{
    if (name == "poisson3d_amg") {
        return make_poisson3d_amg(seed, out_dir);
    }
    if (name == "serve_mixed") {
        return make_serve_mixed(seed, out_dir);
    }
    if (name == "pyside_eigs") {
        return make_pyside_eigs(seed, out_dir);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}


namespace {

double llc_mib()
{
    std::ifstream in{"/sys/devices/system/cpu/cpu0/cache/index3/size"};
    std::string text;
    if (!(in >> text) || text.empty()) {
        return 0.0;
    }
    double value = std::stod(text);
    if (text.back() == 'K') {
        value /= 1024.0;
    } else if (text.back() != 'M') {
        value /= 1048576.0;
    }
    return value;
}


int run(const Args& args)
{
    Report report;
    report.meta("workload", args.workload);
    report.meta("seed", static_cast<double>(args.seed));
    report.meta("seconds", args.seconds);
    report.meta("trace", args.trace ? "1" : "0");
    report.meta("nproc", static_cast<double>(num_cores()));
    report.meta("llc_mib", llc_mib());
    std::filesystem::create_directories(args.out_dir);

    auto workload = make_workload(args.workload, args.seed, args.out_dir);
    // Keep every core busy briefly before anything is timed: the first
    // process after an idle spell otherwise runs its setup slow.
    busy_spell(1.0);

    auto& tracer = Tracer::get();
    tracer.set_enabled(args.trace);
    workload->describe(report);
    if (!args.trace) {
        // setup_s: one build of the program state before the measured
        // window and one at each of its one-second slice boundaries, with
        // the window paused; the median over the quieter half of them by
        // steal share (quiet_median).  Build times on this kind of shared
        // host switch between speed modes about 1.5x apart in spells of a
        // few seconds, so the builds are spread over the whole run, like
        // the slices, to sample many spells.
        std::vector<SetupSample> builds{workload->setup(report)};
        workload->run(report, args.seconds, false,
                      [&] { builds.push_back(workload->setup(report)); });
        report.metric("rss_mb", peak_rss_mib(), "MiB");
        std::string times;
        for (const auto& b : builds) {
            char text[32];
            std::snprintf(text, sizeof(text), "%s%.4f",
                          times.empty() ? "" : ",", b.seconds);
            times += text;
        }
        report.meta("setup_builds_s", times);
        std::size_t chosen = 0;
        const double setup = quiet_median(builds, chosen);
        report.metric("setup_s", setup, "s", chosen);
    } else {
        workload->setup(report);
        workload->run(report, args.seconds, true, {});
        // Every traced run reports every per-layer metric: each probe
        // runs on the inputs of its home workload.
        for (const auto& name : workload_names()) {
            if (name == args.workload) {
                ScopedSpan span{"probe.workload"};
                workload->probe(report);
                continue;
            }
            auto other = make_workload(name, args.seed, args.out_dir);
            ScopedSpan span{"probe.workload"};
            other->describe(report);
            other->setup(report);
            other->probe(report);
        }
        const auto path = args.out_dir + "/trace_" + args.workload + "_" +
                          std::to_string(args.seed) + ".json";
        report.meta("trace_spans", static_cast<double>(tracer.num_spans()));
        tracer.write_chrome_trace(path);
        report.meta("trace_file", path);
    }
    std::cout << report.json_line() << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench


int main(int argc, char** argv)
{
    perfbench::Args args;
    try {
        args = perfbench::parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what()
                  << "\nusage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out <dir>]\n";
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
}
