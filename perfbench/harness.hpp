// Shared plumbing of the wall-clock benchmark: command line, clocks,
// percentiles, answer checks, metric output, and the span recorder of the
// traced run.  Everything here is benchmark code; the library is reached
// only through its public headers, from the workload files.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/matrix_data.hpp"

namespace perfbench {


// --- command line ------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    /// Directory for generated input files and the span dump.
    std::string out_dir{".bench_build/out"};
};

/// Parses `--workload w --seed n --seconds s --trace 0|1 [--out dir]`;
/// throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);


// --- clocks and statistics ---------------------------------------------------

/// Monotonic wall clock in seconds.
double now_s();

/// Linear-interpolation percentile (q in [0, 1]) of `samples`, the rule
/// numpy and statistics.quantiles(method="inclusive") use.  Requires a
/// non-empty sample.
double percentile(std::vector<double> samples, double q);

/// A percentile is reported only when at least ten samples lie beyond it:
/// n * (1 - q) >= 10, so p90 needs 100 samples and p50 needs 20.
bool percentile_supported(std::size_t n, double q);

/// Median of a non-empty sample.
double median(std::vector<double> samples);

/// Peak resident set of this process in MiB (VmHWM of /proc/self/status).
double peak_rss_mib();

/// Keeps every core busy with plain arithmetic for `seconds`, so the
/// program's setup does not run on cores that are still clocking up.
void busy_spell(double seconds);

/// Online processors, the load budget of every workload.
int num_cores();


// --- answer checks -----------------------------------------------------------

using data64 = mgko::matrix_data<double, mgko::int64>;

/// Benchmark-owned copy of an operator in CSR, built from staging data,
/// so answers are checked without the library's kernels.
struct HostCsr {
    std::int64_t rows{0};
    std::vector<std::int64_t> row_ptrs;
    /// Column indices; every operator of the benchmark fits int32.
    std::vector<std::int32_t> cols;
    std::vector<double> values;

    explicit HostCsr(const data64& data);
    HostCsr() = default;
    /// y = A x
    void spmv(const double* x, double* y) const;
};

/// ||b - A x|| / ||b||, recomputed from the benchmark's own copy of A.
double relative_residual(const HostCsr& a, const std::vector<double>& b,
                         const std::vector<double>& x);

/// Dirichlet Laplacian-type stencils with closed-form spectra.
enum class stencil_kind { five_point_2d, nine_point_2d, seven_point_3d };

/// Every eigenvalue of the stencil matgen generates on an nx x ny x nz
/// grid (nz = 1 in 2-D), sorted descending.  Sine modes diagonalize each
/// stencil: with c_d = cos(p_d pi / (n_d + 1)),
///   5-point: 4 - 2 c_x - 2 c_y
///   9-point: 9 - (1 + 2 c_x)(1 + 2 c_y)
///   7-point: 6 - 2 c_x - 2 c_y - 2 c_z
std::vector<double> stencil_eigenvalues(stencil_kind kind, std::int64_t nx,
                                        std::int64_t ny, std::int64_t nz = 1);

/// Checks Ritz values (descending) of a symmetric operator against its
/// spectrum (descending).  Two properties hold for any Rayleigh-Ritz
/// projection onto an orthonormal basis: the i-th largest Ritz value never
/// exceeds the i-th largest eigenvalue (Poincare separation), and every
/// Ritz value lies within its pair's residual norm of some eigenvalue.
/// Returns an empty string when both hold within `slack`, else a reason.
std::string check_ritz_values(const std::vector<double>& ritz,
                              const std::vector<double>& residuals,
                              const std::vector<double>& spectrum,
                              double slack);


// --- results -----------------------------------------------------------------

/// One reported metric.  `samples` is the sample count behind a timing
/// (1 for a single measurement or a count).
struct Metric {
    double value{0.0};
    std::string unit;
    std::size_t samples{1};
};

/// Formats the metric line the benchmark prints for every metric:
///   metric <name> <value> <unit> n=<samples>
std::string format_metric_line(const std::string& name, const Metric& m);

/// Returns true when `line` follows the metric-line grammar.
bool is_metric_line(const std::string& line);

/// What one run reports: metrics, the attempted/failed tally, and the
/// first few failure reasons (printed, never silently dropped).
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit,
                std::size_t samples = 1);
    void meta(const std::string& key, const std::string& value);
    void meta(const std::string& key, double value);

    /// Counts one attempted operation; a non-empty `failure` marks it
    /// failed and records the reason.
    void op(const std::string& failure = {});
    /// A failed check outside the op count (setup, probes).
    void fail(const std::string& failure);

    bool correct() const
    {
        std::lock_guard<std::mutex> guard{mutex_};
        return failed_ == 0 && check_failures_ == 0;
    }
    const std::map<std::string, Metric>& metrics() const { return metrics_; }

    /// The result object, printed as the last line of stdout.
    std::string json_line() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, Metric> metrics_;
    std::uint64_t attempted_{0};
    std::uint64_t failed_{0};
    std::uint64_t check_failures_{0};
    std::size_t printed_failures_{0};
};

/// One measured operation of a closed loop.
struct OpSample {
    double seconds{0.0};
    /// Completion time (now_s()); places the op in a one-second slice.
    double end_s{0.0};
    /// False for op classes kept out of the latency percentiles
    /// (serve_mixed's uploads and inline solves).
    bool latency_class{true};
    /// Tracing was on when the op started (traced runs alternate).
    bool traced{false};
    /// Executor counter deltas across the op (negative when unknown).
    double launches{-1.0};
    double kernel_ns{-1.0};
    double pool_misses{-1.0};
};

/// Latency samples a measured loop collects at least: p90 is taken over
/// the quieter half of the window, where it needs 100.
constexpr std::size_t min_latency_samples = 300;

/// CPU time of this VM so far from the first line of /proc/stat, summed
/// over CPUs, in seconds (zeros where it is not reported).
struct CpuTimes {
    /// Taken by the hypervisor ("steal").
    double steal{0.0};
    /// Non-idle: user, nice, system, irq, softirq and steal.
    double busy{0.0};
};
CpuTimes cpu_times();

/// (time, cpu_times()) readings about one second apart across a measured
/// window; consecutive readings bound its one-second slices.  The window
/// may be paused between two slices (for a setup build); the pause is not
/// a slice.
class StealMeter {
public:
    struct Reading {
        double t;
        CpuTimes cpu;
        /// First reading after a pause: it starts a slice, ends none.
        bool after_pause{false};
    };
    /// Takes the first reading: the window starts now.
    StealMeter();
    /// True when a second has passed since the last reading.
    bool due() const;
    /// Takes a reading when due(); returns whether it did.
    bool tick();
    /// Resumes the window after a pause that began at the last reading.
    void resume();
    /// Takes the closing reading: the window ends now.
    void close();
    /// Seconds the window has been measuring so far, pauses excluded.
    double measured_s() const;
    const std::vector<Reading>& readings() const { return readings_; }
    /// Builds a meter from given readings (self-tests).
    explicit StealMeter(std::vector<Reading> readings)
        : readings_{std::move(readings)}
    {}

private:
    std::vector<Reading> readings_;
    double paused_s_{0.0};
};

/// Reports solve_p50_ms, solve_p90_ms and ops_per_s of a measured window.
/// The window is cut into the one-second slices `steal` recorded, and the
/// metrics are taken over the quieter half of them: the slices in which
/// steal was the smallest share of the VM's busy CPU time.  Other tenants
/// of the host take CPU in bursts, and every op that waits on a stolen
/// vCPU runs slow; ranking slices by that outside measurement, not by the
/// ops' own speed, keeps the selection blind to the program.  Steal only
/// accrues while a vCPU is runnable, so it is ranked as a share of busy
/// time: a slice where the program keeps more vCPUs busy does not rank as
/// noisier for that alone.  The p50/p90 are over the latency-class ops
/// completed in the chosen slices, ops_per_s is their op count over their
/// duration.  Fails the run when fewer than 100 latency samples fall in
/// the chosen slices.
void report_end_to_end(Report& report, const std::vector<OpSample>& samples,
                       const StealMeter& steal);

/// One timed build of a workload's program state (a setup_s sample): its
/// wall time and the share of the VM's busy CPU time that the hypervisor
/// took meanwhile.
struct SetupSample {
    double seconds{0.0};
    double steal_share{0.0};
};

/// Times one build: construct it right before the build, stop() right
/// after.
class SetupTimer {
public:
    SetupTimer() : t0_{now_s()}, cpu0_{cpu_times()} {}
    SetupSample stop() const;

private:
    double t0_;
    CpuTimes cpu0_;
};

/// setup_s of a run: the median wall time over the quieter half of its
/// builds, ranked by steal share like the window's slices (stable, so
/// ties keep time order).  Returns the median and sets `chosen` to
/// the number of builds it is taken over.
double quiet_median(const std::vector<SetupSample>& builds,
                    std::size_t& chosen);

/// Times `fn` `reps` times and returns each call's duration in seconds.
template <typename Fn>
std::vector<double> time_reps(int reps, Fn&& fn)
{
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const double t0 = now_s();
        fn();
        out.push_back(now_s() - t0);
    }
    return out;
}


// --- traced run --------------------------------------------------------------

/// In-memory span and counter recorder of the traced run.  Spans are
/// recorded from the benchmark's own code around each public call it
/// makes; nothing inside the library is instrumented.  Recording is
/// switched on and off in blocks during a traced run so the same process
/// measures its own tracing overhead.
class Tracer {
public:
    static Tracer& get();

    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

    /// One Chrome trace event: a span's 'B' or 'E', or a 'C' counter
    /// snapshot.  Events are kept in the order they happen, so each
    /// thread's 'B'/'E' sequence is its real nesting.
    struct Event {
        std::string name;
        char phase;
        double ts_us;
        int tid;
        /// Span id, parent span and op id of a 'B' event.
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t op;
        /// Values of a 'C' event.
        std::vector<std::pair<std::string, double>> values;
    };
    void record(Event event);
    /// Counter snapshot at a span boundary (Chrome "C" event).
    void counters(const std::string& name,
                  std::vector<std::pair<std::string, double>> values);

    std::size_t num_spans() const;
    /// Writes every recorded event as Chrome Trace Event JSON, in the
    /// order recorded.
    void write_chrome_trace(const std::string& path) const;

    /// Microseconds since the tracer was created.
    double now_us() const;
    /// Small per-thread track id.
    static int thread_track();

private:
    Tracer();
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> ids_{0};
    double origin_s_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
};

/// RAII span: records a 'B' event at construction, under the innermost
/// open span of this thread, and its 'E' event at destruction, when
/// tracing was enabled at construction.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::uint64_t op = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }

private:
    const char* name_;
    std::uint64_t op_;
    std::uint64_t id_{0};
};


}  // namespace perfbench
