// Metrics registry: the totals store of the two-store observability spine
// (the flight recorder, log/flight_recorder.hpp, is the other: it keeps
// the last events per thread in a bounded ring, which cannot back a
// cumulative count).  MetricsRegistry keeps running counters, gauges, and
// log2-bucketed latency histograms keyed by the tag scheme (op.<name>,
// mem.*, pool.*, solver.*, batch.*, bind.*), cheap enough to stay
// attached for a process lifetime and scrapeable at any point.
//
// Views:
//   * prometheus_text() — Prometheus text exposition format, tags carried
//     as a `tag` label (mgko_events_total{tag="op.csr_spmv"} 42),
//   * to_json()         — the same data as a JSON object parseable by
//     config/json.hpp,
//   * profile_json()    — the per-tag {"tags": ...} profile that
//     MGKO_PROFILE dumps and /profile.json serves.
//
// MetricsLogger adapts the EventLogger hook stream onto a registry; the
// process-wide instance behind shared_metrics() is what the MGKO_METRICS
// environment switch auto-attaches, what executors created while the
// telemetry server runs feed, and what the `metrics_text` /
// `metrics_json` bindings export.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/types.hpp"
#include "log/event_logger.hpp"

namespace mgko::log {


/// Thread-safe store of counters, gauges, and log2 histograms, each keyed
/// (metric name, tag).  Metric names must already be exposition-safe
/// ([a-zA-Z_][a-zA-Z0-9_]*); tags are free-form label values.
class MetricsRegistry {
public:
    /// Log2-bucketed histogram: bucket i counts observations with
    /// value <= 2^i, the last bucket is +Inf.  Covers 1 ns .. ~9 minutes
    /// when fed nanosecond latencies.
    static constexpr size_type num_buckets = 40;

    /// The last sampled request context observed into a bucket — the
    /// metrics→trace navigation hook.  prometheus_text() emits these as
    /// OpenMetrics exemplars ("# {trace_id=\"...\"} value") so a p99
    /// spike in a latency histogram resolves to a concrete trace id,
    /// which /trace.json?trace_id= turns into that request's spans.
    struct exemplar {
        std::uint64_t trace_high{0};
        std::uint64_t trace_low{0};
        double value{0.0};

        bool valid() const { return (trace_high | trace_low) != 0; }
        /// The 32-lowercase-hex trace id.
        std::string trace_id_hex() const;
    };

    struct histogram {
        std::array<std::uint64_t, num_buckets> buckets{};
        std::array<exemplar, num_buckets> exemplars{};
        std::uint64_t count{0};
        double sum{0.0};

        /// Quantile estimate from the log2 buckets: finds the bucket the
        /// rank q*count falls into and interpolates linearly between its
        /// bounds, so the estimate is exact to within one bucket (a factor
        /// of 2 in value).  Returns 0 for an empty histogram.  Exposed in
        /// both exporters as p50/p95/p99.
        double quantile(double q) const;
    };

    void inc_counter(const std::string& name, const std::string& tag,
                     double delta = 1.0);
    void set_gauge(const std::string& name, const std::string& tag,
                   double value);
    void add_gauge(const std::string& name, const std::string& tag,
                   double delta);
    /// Records `value` (a latency in ns, typically) into the histogram.
    /// When the calling thread has a sampled trace context active, the
    /// bucket's exemplar is updated to that context's trace id (under the
    /// registry mutex, so a concurrent scrape or reset never sees a torn
    /// id).
    void observe(const std::string& name, const std::string& tag,
                 double value);

    /// Registers a histogram series before its first observation, so
    /// scrapes show the zeroed _count/_sum and the full bucket ladder
    /// from the start (dashboards and recording rules then see a stable
    /// series set instead of one that appears on first traffic).
    /// Idempotent; an existing histogram is left untouched.
    void declare_histogram(const std::string& name, const std::string& tag);

    /// Current counter value; 0 when never incremented.
    double counter_value(const std::string& name,
                         const std::string& tag) const;
    /// Current gauge value; 0 when never set.
    double gauge_value(const std::string& name, const std::string& tag) const;
    /// Snapshot of one histogram; zeroed when never observed.
    histogram histogram_snapshot(const std::string& name,
                                 const std::string& tag) const;

    /// Prometheus text exposition format: one # TYPE line per metric
    /// family, then one sample per tag (histograms expand into _bucket/
    /// _sum/_count series with cumulative `le` labels; buckets that hold
    /// an exemplar append it in OpenMetrics form).
    std::string prometheus_text() const;

    /// The same data as JSON: {"counters": {name: {tag: v}}, "gauges":
    /// {...}, "histograms": {name: {tag: {"count": n, "sum": s,
    /// "buckets": {"<le>": c, ...}}}}} — parseable by config/json.hpp,
    /// with non-finite values written as null.
    std::string to_json() const;

    /// The per-tag profile view MetricsLogger's series add up to:
    /// {"tags": {tag: {"count", "wall_ns", "bytes", "flops",
    /// "work_bytes", "gflops", "gbps"}}}.  count is mgko_events_total,
    /// wall_ns the mgko_latency_ns sum, bytes mgko_bytes_total (for
    /// batch.* tags the mgko_batch_systems_total system count), flops and
    /// work_bytes their _total counters; gflops and gbps divide those by
    /// wall_ns.  The binding breakdown channels (bind.gil_wait/lookup/
    /// boxing/interpreter) take their mgko_binding_overhead_ns_total as
    /// wall_ns and the number of bound calls as count.
    std::string profile_json() const;

    void reset();

private:
    using tag_map = std::map<std::string, double>;

    mutable std::mutex mutex_;
    std::map<std::string, tag_map> counters_;
    std::map<std::string, tag_map> gauges_;
    std::map<std::string, std::map<std::string, histogram>> histograms_;
};


/// EventLogger that feeds a MetricsRegistry:
///
///   mgko_events_total{tag}      one count per event, every emission site
///   mgko_bytes_total{tag}       bytes moved/allocated/pooled per tag
///   mgko_flops_total{tag}       kernel-reported flops per op.<name>
///   mgko_work_bytes_total{tag}  kernel-reported traffic per op.<name>
///   mgko_latency_ns{tag}        histogram of op.<name> / bind.<name> wall
///                               times
///   mgko_binding_overhead_ns_total{tag}
///                               the binding breakdown channels
///   mgko_batch_systems_total{tag}
///                               systems per batch round (batch.iteration)
///                               and per stop outcome (batch.stop.*)
///   mgko_residual_norm{tag}     gauge: latest solver/batch residual
///   mgko_open_spans{tag}        gauge: currently open spans per name
class MetricsLogger final : public EventLogger {
public:
    static std::shared_ptr<MetricsLogger> create()
    {
        return std::make_shared<MetricsLogger>();
    }

    MetricsRegistry& registry() { return registry_; }
    const MetricsRegistry& registry() const { return registry_; }

    // --- EventLogger hooks ----------------------------------------------
    void on_allocation_completed(const Executor* exec, size_type bytes,
                                 const void* ptr) override;
    void on_free_completed(const Executor* exec, const void* ptr) override;
    void on_copy_completed(const Executor* src, const Executor* dst,
                           size_type bytes) override;
    void on_pool_hit(const Executor* exec, size_type bytes) override;
    void on_pool_miss(const Executor* exec, size_type bytes) override;
    void on_pool_trim(const Executor* exec, size_type bytes_released) override;
    void on_operation_completed(const Executor* exec, const char* op_name,
                                double wall_ns, double flops,
                                double bytes) override;
    void on_span_begin(const char* name) override;
    void on_span_end(const char* name) override;
    void on_iteration_complete(const LinOp* solver, size_type iteration,
                               double residual_norm) override;
    void on_solver_stop(const LinOp* solver, size_type iterations,
                        bool converged, const char* reason) override;
    void on_batch_iteration_complete(const batch::BatchLinOp* solver,
                                     size_type iteration,
                                     size_type active_systems,
                                     double max_residual_norm) override;
    void on_batch_solver_stop(
        const batch::BatchLinOp* solver, size_type num_systems,
        size_type converged_systems, size_type max_iterations,
        const batch::BatchConvergenceLogger* per_system) override;
    void on_binding_call_completed(const char* name, double wall_ns,
                                   double gil_wait_ns, double lookup_ns,
                                   double boxing_ns,
                                   double interpreter_ns) override;

private:
    MetricsRegistry registry_;
};


/// The process-wide metrics logger the MGKO_METRICS switch attaches; also
/// what the `metrics_text` / `metrics_json` bindings export.  Never
/// destroyed, so threads still running at exit can use it.
std::shared_ptr<MetricsLogger> shared_metrics();

/// Returns shared_metrics() when the MGKO_METRICS environment variable is
/// set (to anything non-empty), nullptr otherwise.  Executor factories
/// attach the result to every new executor.
std::shared_ptr<MetricsLogger> metrics_from_env();

/// Whether a live endpoint exports shared_metrics():
/// serve::telemetry_start sets the flag and telemetry_stop clears it.
/// Executor factories attach shared_metrics() to every executor created
/// while it is set, so /metrics has executor-level series to serve.
void set_shared_metrics_exported(bool exported);
bool shared_metrics_exported();

}  // namespace mgko::log
