// Hardware-counter scopes: measured cycles / instructions / LLC misses
// per kernel tag, the counterpart to the analytic work model.
//
// The work model (work_model.hpp) computes what a kernel *should* move and
// execute; nothing in the stack checked what it actually did.  This module
// wraps a measurement scope around each Executor::run dispatch (and the
// solver drivers' apply paths): counters are read before and after the
// region on the dispatching thread, and the delta is accumulated under the
// kernel's tag.  Joining these totals against the per-tag modeled
// flops/bytes in the metrics registry is what the `--drift` bench gate
// does — the model becomes a tested artifact instead of an assumption.
//
// Counter fallback ladder (DESIGN.md §18):
//   1. perf_event_open(2), one per-thread counter group (CPU cycles,
//      instructions, LLC misses; user-space only).  The syscall has no
//      libc wrapper and is commonly denied in CI containers —
//      ENOENT/ENOSYS (no PMU / no syscall), EPERM/EACCES
//      (perf_event_paranoid), EINVAL (no hardware events) all demote to:
//   2. getrusage(RUSAGE_THREAD) CPU time + steady-clock wall time.  No
//      event counts, but the measured cpu_ns/wall_ns pair still validates
//      the measurement plumbing and feeds the time-based drift checks.
// The active rung is decided once at enable time by probing the syscall
// (or forced to rung 2 with mode "rusage" so CI can exercise the fallback
// deterministically) and exposed as hw_counters_source().
//
// Everything is opt-in: when disabled, HwCounterScope costs one relaxed
// atomic load, so it can sit on the dispatch path unconditionally.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace mgko::log {


/// One cumulative reading for the calling thread.  cpu_ns and wall_ns are
/// always measured; the event counts are nonzero only on the perf rung.
struct hw_sample {
    double cycles{0.0};
    double instructions{0.0};
    double llc_misses{0.0};
    double cpu_ns{0.0};
    double wall_ns{0.0};

    hw_sample operator-(const hw_sample& other) const
    {
        return {cycles - other.cycles, instructions - other.instructions,
                llc_misses - other.llc_misses, cpu_ns - other.cpu_ns,
                wall_ns - other.wall_ns};
    }
};


/// Accumulated measurements for one kernel tag.
struct hw_totals {
    double cycles{0.0};
    double instructions{0.0};
    double llc_misses{0.0};
    double cpu_ns{0.0};
    double wall_ns{0.0};
    std::uint64_t count{0};
};


/// RAII measurement scope: reads counters at construction and
/// destruction, accumulating the delta under `tag` (which must outlive
/// the scope; kernel tags are string literals).  A no-op costing one
/// relaxed load while the tier is disabled.
class HwCounterScope {
public:
    explicit HwCounterScope(const char* tag);
    ~HwCounterScope();

    HwCounterScope(const HwCounterScope&) = delete;
    HwCounterScope& operator=(const HwCounterScope&) = delete;

private:
    const char* tag_{nullptr};
    hw_sample begin_{};
};


/// Enables the measured tier.  mode "auto" (default) probes
/// perf_event_open and demotes to the rusage rung when the kernel refuses;
/// mode "rusage" forces the fallback rung (CI determinism); "perf", "on"
/// and "1" behave like "auto".  Any other mode throws BadParameter and
/// leaves the tier as it was.  Returns true — the rusage rung always
/// works.
bool hw_counters_enable(const std::string& mode = "auto");

/// Disables the tier (accumulated totals stay readable).
void hw_counters_disable();

/// True while scopes are measuring.
bool hw_counters_active();

/// "perf_event", "rusage", or "off".
const char* hw_counters_source();

/// Cumulative readings for the calling thread right now; callers diff two
/// readings for a region-level measurement (the solve server's
/// per-request "measured" block).  cpu_ns/wall_ns are filled even when
/// the tier is disabled.
hw_sample hw_read_now();

/// Per-tag accumulated totals since enable/reset.
std::map<std::string, hw_totals> hw_counters_snapshot();

/// Clears the accumulated totals.
void hw_counters_reset();

/// {"source": ..., "active": ..., "tags": {tag: {count, cycles,
/// instructions, llc_misses, cpu_ns, wall_ns, gips_proxy,
/// llc_gbps_proxy}}} — the proxies are measured instruction throughput
/// (instructions per cpu-ns) and LLC-miss traffic (64-byte lines per
/// cpu-ns), zero on the rusage rung.
std::string hw_counters_json();

/// The mgko_hw_* Prometheus series (active flag, source info series, and
/// per-kernel *_total counters), appended to /metrics by both servers.
std::string hw_counters_prometheus();

/// Reads MGKO_HW_COUNTERS once per process: "1"/"on"/"auto"/"perf"
/// enable with the probe, "rusage" forces the fallback rung, unset /
/// "0" / "off" leave the tier disabled.  Any other value is reported on
/// stderr and leaves the tier disabled.
void hw_counters_from_env();


}  // namespace mgko::log
