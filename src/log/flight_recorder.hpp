// Flight recorder — the event store of the two-store observability spine
// (the metrics registry, log/metrics.hpp, is the other: it keeps totals).
//
// Built to stay attached in production: every event becomes one 40-byte
// binary record in a lock-free per-thread ring buffer, so steady state
// costs a few relaxed atomic stores and never allocates, locks, or copies
// a string.  The ring keeps the last `capacity_per_thread` events per
// thread — a black box, not an archive, which is why totals live in the
// registry instead.
//
//   * Tag interning: event names (operation tags, span names, binding
//     names) are interned once into the recorder's TagTable
//     (log/tag_table.hpp, shared with the sampling profiler); records
//     carry its 16-bit id.  Lookups of already-interned tags are
//     lock-free; the first occurrence of a tag takes a mutex and copies
//     the string.
//   * Snapshots: snapshot() reads the rings concurrently with writers
//     using an over-read + sequence-window discard, so a scrape never
//     stops the instrumented threads.  It is also how tests observe
//     events.  to_chrome_trace_json() converts a snapshot to Chrome Trace
//     Event JSON (operations and binding calls as complete 'X' slices,
//     spans as 'B'/'E' pairs repaired to stay well nested across
//     wraparound, everything else as 'i' instants); it backs MGKO_TRACE
//     (dump_trace), /trace.json and the `flight_dump` binding.
//   * Crash hook: install_crash_handler() registers SIGSEGV/SIGABRT and
//     std::terminate handlers that dump the last events as text through
//     write_postmortem(), which is async-signal-safe (write(2) only, no
//     allocation, no locks, integer formatting on the stack).
//
// The executor factories and the binding layer attach the process-wide
// instance behind shared_flight_recorder() unconditionally (opt out with
// MGKO_FLIGHT_RECORDER=0); bench_micro_overhead measures the cost of
// leaving it on and CI fails if it exceeds the 5% budget (DESIGN.md §13).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "log/event_logger.hpp"
#include "log/tag_table.hpp"

namespace mgko::log {


class FlightRecorder final : public EventLogger {
public:
    /// Ring slots per thread; the black box keeps this many trailing
    /// events per thread (rounded up to a power of two).
    static constexpr size_type default_capacity = 4096;
    /// Concurrently live instrumented threads (slots are recycled when a
    /// thread exits); events from threads beyond this are counted in
    /// dropped() instead of recorded.
    static constexpr size_type max_threads = 128;
    /// Distinct tag strings; later tags fall back to "<overflow>".
    static constexpr size_type tag_capacity = TagTable::capacity;
    /// tag_id of records whose name did not fit the intern table.
    static constexpr std::uint16_t overflow_tag = TagTable::overflow;

    enum class event_kind : std::uint8_t {
        operation = 0,   // a = wall_ns, b = flops
        alloc,           // a = bytes
        free_mem,        //
        copy,            // a = bytes
        pool_hit,        // a = bytes
        pool_miss,       // a = bytes
        pool_trim,       // a = bytes released
        span_begin,      //
        span_end,        //
        iteration,       // a = iteration, b = residual_norm
        solver_stop,     // a = iterations, b = converged (0/1)
        batch_iteration, // a = iteration, b = max_residual_norm
        batch_stop,      // a = converged_systems, b = num_systems
        binding,         // a = wall_ns, b = gil_wait_ns
    };

    /// Decoded ring entry, oldest first within a thread.
    struct record {
        std::uint64_t seq;    // per-thread sequence number
        std::uint64_t ts_ns;  // steady-clock ns since recorder construction
        event_kind kind;
        std::uint16_t tag_id;
        const char* tag;  // interned; lives as long as the recorder
        double a;
        double b;
        int tid;
        /// Low 64 bits of the sampled request context active when the
        /// event was emitted; 0 for unattributed events (see
        /// log/trace_context.hpp).
        std::uint64_t trace;
    };

    explicit FlightRecorder(size_type capacity_per_thread = default_capacity);

    static std::shared_ptr<FlightRecorder> create(
        size_type capacity_per_thread = default_capacity)
    {
        return std::make_shared<FlightRecorder>(capacity_per_thread);
    }

    size_type capacity_per_thread() const { return capacity_; }

    /// Total events ever written (monotone; includes overwritten ones).
    std::uint64_t recorded() const;
    /// Events lost: overwritten in a ring, beyond max_threads, or (rare)
    /// discarded by a snapshot as possibly torn.
    std::uint64_t dropped() const;

    /// Point-in-time copy of every ring, safe concurrently with writers.
    /// Records come grouped per thread in sequence order.  Guaranteed to
    /// hold at least the capacity-1 newest records of a quiescent thread;
    /// entries a writer may have been overwriting mid-read are discarded
    /// (and counted in dropped()).
    std::vector<record> snapshot() const;

    /// Chrome Trace Event JSON of snapshot(), loadable in Perfetto /
    /// chrome://tracing, with B/E span events repaired to stay well nested
    /// even when the ring wrapped mid-span.  Non-finite payloads (a
    /// diverged residual) are written as null.  A nonzero `trace_filter`
    /// keeps only the records stamped with that trace word (the low 64
    /// bits of a request trace id), which is what
    /// /trace.json?trace_id=<id> serves; events with a trace word carry it
    /// as a "trace_id" arg either way.
    std::string to_chrome_trace_json(std::uint64_t trace_filter = 0) const;

    /// Async-signal-safe text dump of the rings to an open descriptor:
    /// header lines ("# ..."), then one "tid seq ts_ns kind tag a b
    /// trace" line per record (trace in decimal, 0 when unattributed).
    /// Uses only write(2) and stack buffers.
    void write_postmortem(int fd, const char* reason) const;

    /// Interns `name` and returns its id (or overflow_tag).  Exposed for
    /// tests; emission paths call it internally.
    std::uint16_t intern(const char* name) { return tags_.intern(name); }
    /// The interned string for `id`; "<overflow>"/"<unknown>" sentinels
    /// for overflow_tag and unused slots.  Lock-free.
    const char* tag_name(std::uint16_t id) const { return tags_.name(id); }

    /// Drops all recorded events (tags stay interned).  Not synchronized
    /// with writers: call only while no instrumented work is running
    /// (tests, between bench phases).
    void reset();

    // --- EventLogger hooks -------------------------------------------------
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
    // One single-writer ring: 5 atomic 64-bit words per slot
    // (ts | kind+tag | a | b | trace), head counts records ever written.
    // The writer publishes with a release store of head; readers re-check
    // head after copying to discard slots the writer may have reused.
    struct ring {
        static constexpr std::uint64_t words_per_slot = 5;
        explicit ring(size_type capacity)
            : capacity{static_cast<std::uint64_t>(capacity)},
              words{new std::atomic<std::uint64_t>[words_per_slot * capacity]{}}
        {}
        const std::uint64_t capacity;
        std::atomic<std::uint64_t> head{0};
        std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    };

    void emit(event_kind kind, const char* tag, double a, double b);
    ring* thread_ring();
    template <typename Visitor>
    void visit_records(Visitor&& visit) const;

    size_type capacity_;
    std::uint64_t origin_ns_;
    std::array<std::atomic<ring*>, max_threads> rings_{};
    TagTable tags_;
    mutable std::mutex ring_mutex_;  // guards owned_rings_
    std::vector<std::unique_ptr<ring>> owned_rings_;
    std::atomic<std::uint64_t> overflow_drops_{0};
    mutable std::atomic<std::uint64_t> torn_drops_{0};
};


/// The process-wide always-on recorder the executor factories and the
/// binding layer attach (capacity overridable once via
/// MGKO_FLIGHT_CAPACITY).  Never destroyed, so threads still running at
/// exit can use it.
std::shared_ptr<FlightRecorder> shared_flight_recorder();

/// shared_flight_recorder(), or nullptr when the user opted out with
/// MGKO_FLIGHT_RECORDER=0/off.
std::shared_ptr<FlightRecorder> flight_recorder_from_env();

/// Registers SIGSEGV/SIGABRT and std::terminate handlers that write the
/// shared recorder's black box to `path` before the process dies, then
/// re-raise so exit status and core dumps are unchanged.  Idempotent;
/// calling again just retargets the output path.
void install_crash_handler(const std::string& path);

/// install_crash_handler($MGKO_FLIGHT_POSTMORTEM) when that variable is a
/// non-empty path; runs at most once per process.
void install_crash_handler_from_env();

/// Writes `recorder`'s Chrome trace where MGKO_TRACE points (see
/// log/dump_path.hpp).  A trace must cover the whole run, so nothing is
/// written when the ring dropped records or the process opted out of the
/// recorder (MGKO_FLIGHT_RECORDER=0); stderr then says why, and for drops
/// how many there were and which MGKO_FLIGHT_CAPACITY holds the run.
void dump_trace(const FlightRecorder& recorder, const std::string& name);


}  // namespace mgko::log
