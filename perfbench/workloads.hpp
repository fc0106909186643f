// The three workloads.  Each one sets up once, runs a measured closed loop,
// and offers the per-layer probes that run on its inputs:
//
//   poisson3d_amg  library path: generate_solver once, apply_solver many
//   serve_mixed    SolveServer over loopback: cached reads plus writes
//   pyside_eigs    bind::read + pyside::rayleigh_ritz through the bindings
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace mgko {
class Executor;
}

namespace perfbench {


/// Counter deltas of one executor across a region.
struct CounterDelta {
    explicit CounterDelta(const mgko::Executor& exec);
    /// Fills the launch, kernel-time, and pool-miss deltas since
    /// construction into `sample`.
    void finish(OpSample& sample) const;

private:
    const mgko::Executor& exec_;
    double launches_;
    double kernel_ns_;
    double misses_;
};

/// Called at each one-second slice boundary of an untraced measured
/// window, while the window is paused: one setup build.
using Between = std::function<void()>;

/// Runs `op(i)` back to back from one caller until `seconds` of measuring
/// have passed and min_latency_samples ops completed (bounded by 4x
/// `seconds`), reading `steal` between ops and closing it at the end.  At
/// each slice boundary `between` (when set) runs with the window paused,
/// followed by one op that warms the rebuilt state and is not a sample.
/// In a traced run tracing is switched on and off in half-second blocks.
/// `op` fills everything but `end_s` and `traced`.
std::vector<OpSample> single_caller_loop(
    double seconds, bool traced, StealMeter& steal,
    const std::function<OpSample(std::uint64_t)>& op,
    const Between& between = {});

/// Reports the loop-derived per-layer metrics of a traced run: core.*
/// from counter deltas and trace.overhead_pct from the on/off blocks.
void report_traced_loop(Report& report, const std::vector<OpSample>& samples);


class Workload {
public:
    virtual ~Workload() = default;
    /// Prints the workload's metadata (sizes, threads, working set).
    virtual void describe(Report& report) const = 0;
    /// Builds the program state (replacing any earlier build) and returns
    /// the build's timing: one setup_s sample.
    virtual SetupSample setup(Report& report) = 0;
    /// The measured phase; reports end-to-end metrics (untraced) or the
    /// loop-derived per-layer metrics (traced).  `between` runs at the
    /// window's slice boundaries, with the window paused.
    virtual void run(Report& report, double seconds, bool traced,
                     const Between& between) = 0;
    /// The per-layer probes this workload is home to.
    virtual void probe(Report& report) = 0;
};

std::unique_ptr<Workload> make_poisson3d_amg(std::uint64_t seed,
                                             const std::string& out_dir);
std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed,
                                           const std::string& out_dir);
std::unique_ptr<Workload> make_pyside_eigs(std::uint64_t seed,
                                           const std::string& out_dir);

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir);


}  // namespace perfbench
