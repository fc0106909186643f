// Hierarchical tracing: TraceLogger turns the event stream into nested
// spans with span-ids on per-thread tracks and exports them in the Chrome
// Trace Event Format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Span sources:
//   * solver/batch phase spans  — on_span_begin/on_span_end pairs emitted
//     by the solver loops (solver.cg.apply → solver.cg.iteration, ...),
//   * kernel spans              — on_operation_launched opens a slice that
//     on_operation_completed closes, annotated with wall time and the
//     captured flop/byte work,
//   * binding slices            — on_binding_call_completed synthesizes a
//     complete ("X") slice per bound call plus child slices for the
//     gil-wait / lookup / boxing / interpreter breakdown,
//   * instants ("i")            — allocations, pool hit/miss/trim, copies,
//     solver iterations/stops, batch rounds/stops.
//
// Begin/end pairs are guaranteed well nested per thread track because the
// emitting layers are themselves properly nested (RAII spans, launch/
// complete bracketing dispatch); well_nested() verifies the invariant and
// the concurrency stress tests assert it under contention.
//
// Enabled by environment, mirroring MGKO_PROFILE: MGKO_TRACE=<dest> makes
// tracer_from_env() return the process-wide shared_tracer(), which
// executor factories auto-attach to every new executor; dump_trace()
// writes the JSON to <dest> ("-"/"1"/"stdout" print to stdout, anything
// else is a file path).  Code can also attach a TraceLogger to one
// executor or solver with add_logger.  Solver configs carry no tracing
// key; without MGKO_TRACE, the always-on flight recorder answers the same
// question (the `flight_dump` binding, or /trace.json on the telemetry
// server).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "log/event_logger.hpp"

namespace mgko::log {


class TraceLogger final : public EventLogger {
public:
    /// One Chrome Trace Event.  `phase` is 'B' (span begin), 'E' (span
    /// end), 'X' (complete slice with duration), or 'i' (instant).
    struct trace_event {
        std::string name;
        std::string cat;
        char phase{'i'};
        double ts_ns{0.0};
        double dur_ns{0.0};     ///< 'X' only
        int tid{0};
        size_type span_id{0};   ///< pairs 'B' with its 'E'; 0 for X/i
        std::string args;       ///< preformatted JSON members, may be empty
    };

    TraceLogger();

    static std::shared_ptr<TraceLogger> create()
    {
        return std::make_shared<TraceLogger>();
    }

    /// Snapshot of the recorded events in emission order (per-thread
    /// chronological; threads interleave at mutex acquisition order).
    std::vector<trace_event> events() const;

    /// True when every 'E' closes the innermost open 'B' of the same name
    /// on its thread track and no track ends with an open span.
    bool well_nested() const;

    /// The trace in Chrome Trace Event Format:
    /// {"displayTimeUnit": "ns", "traceEvents": [...]}, timestamps in
    /// microseconds as the format requires.  Parseable by config/json.hpp.
    std::string to_json() const;

    void reset();

    // --- EventLogger hooks ----------------------------------------------
    void on_span_begin(const char* name) override;
    void on_span_end(const char* name) override;
    void on_operation_launched(const Executor* exec,
                               const char* op_name) override;
    void on_operation_completed(const Executor* exec, const char* op_name,
                                double wall_ns, double flops,
                                double bytes) override;
    void on_allocation_completed(const Executor* exec, size_type bytes,
                                 const void* ptr) override;
    void on_free_completed(const Executor* exec, const void* ptr) override;
    void on_copy_completed(const Executor* src, const Executor* dst,
                           size_type bytes) override;
    void on_pool_hit(const Executor* exec, size_type bytes) override;
    void on_pool_miss(const Executor* exec, size_type bytes) override;
    void on_pool_trim(const Executor* exec, size_type bytes_released) override;
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
    void begin_span(const char* name, const char* cat);
    void end_span(const char* name, const char* cat, std::string args);
    void instant(const char* name, const char* cat, std::string args);
    void complete(const char* name, const char* cat, double ts_ns,
                  double dur_ns, std::string args);

    double now_ns() const;

    mutable std::mutex mutex_;
    std::vector<trace_event> events_;
    /// Open (name, span-id) stack per thread track, for id pairing.
    std::vector<std::pair<int, std::vector<std::pair<std::string, size_type>>>>
        open_;
    size_type next_span_id_{1};
    double origin_ns_{0.0};
};


/// The process-wide tracer the MGKO_TRACE switch attaches; also what the
/// `trace_dump` binding exports.
std::shared_ptr<TraceLogger> shared_tracer();

/// Returns shared_tracer() when the MGKO_TRACE environment variable is set
/// (to anything non-empty), nullptr otherwise.  Executor factories attach
/// the result to every new executor, so MGKO_TRACE=1 traces a run with no
/// code changes.
std::shared_ptr<TraceLogger> tracer_from_env();

/// Writes `tracer`'s Chrome Trace JSON where MGKO_TRACE points: "-", "1"
/// or "stdout" print it under a "=== mgko trace [<name>] ===" banner; any
/// other value is used as a file path (overwritten).
void dump_trace(const TraceLogger& tracer, const std::string& name);


}  // namespace mgko::log
