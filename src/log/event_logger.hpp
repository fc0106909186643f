// Event logging — the framework's observability spine, modeled on Ginkgo's
// gko::log::Logger (Anzt et al., "Ginkgo: A Modern Linear Operator Algebra
// Framework for HPC").
//
// An EventLogger receives framework events.  Two loggers implement it, one
// per store, and every exported artifact is a view of one of them:
//
//   * FlightRecorder (log/flight_recorder.hpp) keeps *events*: the last
//     records per thread in a bounded ring.  Chrome trace (MGKO_TRACE,
//     /trace.json, the `flight_dump` binding), the crash postmortem, and
//     test capture (snapshot()) read it.
//   * MetricsLogger (log/metrics.hpp) keeps *totals* in a MetricsRegistry:
//     counters, gauges and latency histograms per tag.  Prometheus text,
//     metrics JSON and the per-tag {"tags": ...} profile (MGKO_PROFILE,
//     /profile.json) read it.  A ring forgets, so it cannot back totals.
//
// Loggers attach at three layers, mirroring where mgko does attributable
// work:
//
//   * Executor  — memory traffic (allocation/free/copy), pool behaviour
//                 (hit/miss/trim), and every kernel with its run() name,
//                 real wall time and modeled work (one call per kernel),
//   * LinOp     — solver progress (iteration / stop events),
//   * bind::    — binding dispatch (GIL wait + lookup + boxing + modeled
//                 interpreter constant per bound call; see
//                 bindings/registry.hpp).
//
// Every hook has an empty default body, so a logger overrides only the
// events it cares about.  The emitting layers guard each emission with
// has_loggers(): with no logger attached the cost of the subsystem is one
// empty-vector check per event site — no allocation, no virtual call (the
// solver zero-allocation assertions in tests/test_workspace.cpp hold with
// the hooks in place).
//
// Thread safety: event *emission* may happen concurrently from many
// threads, and concrete loggers must tolerate that (the recorder writes
// per-thread rings, the registry locks).  Attaching/removing loggers
// concurrently with emission is not synchronized — attach before the
// instrumented work starts, as Ginkgo does.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/types.hpp"

namespace mgko {

class Executor;
class LinOp;

namespace batch {
class BatchLinOp;
class BatchConvergenceLogger;
}

namespace log {


/// Receiver interface for framework events.  All hooks default to no-ops.
class EventLogger {
public:
    virtual ~EventLogger() = default;

    // --- memory events (Executor layer) --------------------------------
    /// A block of `bytes` was allocated on `exec` at `ptr`.
    virtual void on_allocation_completed(const Executor*, size_type /*bytes*/,
                                         const void* /*ptr*/)
    {}
    /// `ptr` was returned to `exec` (to its pool or the system).
    virtual void on_free_completed(const Executor*, const void* /*ptr*/) {}
    /// `bytes` moved from `src` into `dst`'s memory space.
    virtual void on_copy_completed(const Executor* /*src*/,
                                   const Executor* /*dst*/,
                                   size_type /*bytes*/)
    {}

    // --- pool events (Executor layer) -----------------------------------
    /// An allocation request of `bytes` was served from the cached lists.
    virtual void on_pool_hit(const Executor*, size_type /*bytes*/) {}
    /// An allocation request of `bytes` went to the system allocator.
    virtual void on_pool_miss(const Executor*, size_type /*bytes*/) {}
    /// trim released `bytes_released` of cached blocks to the system.
    virtual void on_pool_trim(const Executor*, size_type /*bytes_released*/)
    {}

    // --- operation events (Executor layer) ------------------------------
    /// `op_name` finished; `wall_ns` is the real wall time of its body,
    /// `flops`/`bytes` the work its kernel reported through the cost-model
    /// profile (zero for operations whose kernels bypass kernels::tick).
    virtual void on_operation_completed(const Executor*,
                                        const char* /*op_name*/,
                                        double /*wall_ns*/, double /*flops*/,
                                        double /*bytes*/)
    {}

    // --- span events (any layer) -----------------------------------------
    /// A nested phase named `name` opened on the calling thread.  Emitting
    /// layers guarantee begin/end pairs are well nested per thread
    /// (solver apply → iteration, batch apply → round); the flight
    /// recorder's Chrome trace shows them as duration slices.
    virtual void on_span_begin(const char* /*name*/) {}
    /// The innermost open span named `name` closed on the calling thread.
    virtual void on_span_end(const char* /*name*/) {}

    // --- solver events (LinOp layer) -------------------------------------
    /// `solver` completed iteration `iteration` with `residual_norm` (an
    /// estimate for GMRES inner iterations, a true norm elsewhere).
    virtual void on_iteration_complete(const LinOp* /*solver*/,
                                       size_type /*iteration*/,
                                       double /*residual_norm*/)
    {}
    /// `solver` stopped after `iterations` iterations.
    virtual void on_solver_stop(const LinOp* /*solver*/,
                                size_type /*iterations*/, bool /*converged*/,
                                const char* /*reason*/)
    {}

    // --- batched solver events (batch::BatchLinOp layer) ------------------
    /// `solver` completed batch iteration `iteration` with `active_systems`
    /// systems still iterating; `max_residual_norm` is the largest residual
    /// norm across the systems that were active this iteration.
    virtual void on_batch_iteration_complete(
        const batch::BatchLinOp* /*solver*/, size_type /*iteration*/,
        size_type /*active_systems*/, double /*max_residual_norm*/)
    {}
    /// `solver` finished a batched apply: `converged_systems` of
    /// `num_systems` converged; `max_iterations` is the largest per-system
    /// iteration count.  `per_system` (may be null) exposes the per-system
    /// iteration counts, residual norms, and stop reasons, so loggers can
    /// label the batch with its convergence outcomes instead of bare
    /// counts.
    virtual void on_batch_solver_stop(
        const batch::BatchLinOp* /*solver*/, size_type /*num_systems*/,
        size_type /*converged_systems*/, size_type /*max_iterations*/,
        const batch::BatchConvergenceLogger* /*per_system*/)
    {}

    // --- binding events (bind:: layer) -----------------------------------
    /// One bound call through the registry finished.  `wall_ns` is the
    /// call's total real wall time; `gil_wait_ns` the time spent acquiring
    /// the GIL; `lookup_ns` the mangled-name hash lookup; `boxing_ns` the
    /// remaining measured host-side overhead (argument boxing + dispatch
    /// glue); `interpreter_ns` the modeled CPython frame constant.
    virtual void on_binding_call_completed(const char* /*name*/,
                                           double /*wall_ns*/,
                                           double /*gil_wait_ns*/,
                                           double /*lookup_ns*/,
                                           double /*boxing_ns*/,
                                           double /*interpreter_ns*/)
    {}
};


/// Mixin giving a class an attachment point for EventLoggers (the analogue
/// of Ginkgo's gko::log::EnableLogging).  Executor and LinOp inherit it.
class EnableLogging {
public:
    /// Attaches `logger`; a logger already attached here is not attached a
    /// second time (a duplicate would double-count every event).
    void add_logger(std::shared_ptr<EventLogger> logger)
    {
        if (!logger) {
            return;
        }
        for (const auto& existing : loggers_) {
            if (existing.get() == logger.get()) {
                return;
            }
        }
        loggers_.push_back(std::move(logger));
    }

    /// Removes every occurrence of a previously attached logger (by
    /// identity); unknown loggers are ignored.
    void remove_logger(const EventLogger* logger)
    {
        loggers_.erase(
            std::remove_if(loggers_.begin(), loggers_.end(),
                           [&](const std::shared_ptr<EventLogger>& l) {
                               return l.get() == logger;
                           }),
            loggers_.end());
    }

    const std::vector<std::shared_ptr<EventLogger>>& get_loggers() const
    {
        return loggers_;
    }

    bool has_loggers() const { return !loggers_.empty(); }

protected:
    /// Invokes `fn(logger)` on every attached logger.  Emitting layers
    /// check has_loggers() first so the detached fast path stays a single
    /// branch.
    template <typename Fn>
    void log_event(Fn&& fn) const
    {
        for (const auto& logger : loggers_) {
            fn(*logger);
        }
    }

private:
    std::vector<std::shared_ptr<EventLogger>> loggers_;
};


/// RAII span broadcast to up to two logger attachment points (typically a
/// LinOp and its executor): emits on_span_begin on construction and the
/// matching on_span_end on destruction, so early returns and breaks keep
/// spans well nested.  When the same logger is attached to both points it
/// receives the span twice, matching broadcast_event's event semantics.
class ScopedSpan {
public:
    ScopedSpan(const EnableLogging* primary, const EnableLogging* secondary,
               const char* name)
        : primary_{primary}, secondary_{secondary}, name_{name}
    {
        emit([&](EventLogger& l) { l.on_span_begin(name_); });
    }

    ~ScopedSpan()
    {
        emit([&](EventLogger& l) { l.on_span_end(name_); });
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    template <typename Fn>
    void emit(Fn&& fn) const
    {
        if (primary_ != nullptr) {
            for (const auto& logger : primary_->get_loggers()) {
                fn(*logger);
            }
        }
        if (secondary_ != nullptr && secondary_ != primary_) {
            for (const auto& logger : secondary_->get_loggers()) {
                fn(*logger);
            }
        }
    }

    const EnableLogging* primary_;
    const EnableLogging* secondary_;
    const char* name_;
};


}  // namespace log
}  // namespace mgko
