// Request-scoped trace context: the propagation layer that stitches the
// two observability stores together per *request* instead of per thread.
//
// The FlightRecorder (events) and the MetricsRegistry (totals) can say
// what happened on each thread, but once serve::SolveServer hands a
// request to a worker-pool thread the spans, kernel work-model ticks, and
// pool allocations it triggers are indistinguishable from every other
// concurrent request.  A TraceContext — W3C Trace Context compatible
// 128-bit trace id, 64-bit span id, sampled flag — travels with the
// request instead of the thread:
//
//   * a thread-local *current context* with RAII scope guards
//     (TraceContextScope): pushing a scope makes every FlightRecorder
//     record, metric exemplar, and cost attribution on that thread carry
//     the context's trace id until the scope unwinds;
//   * explicit capture/restore across handoffs: current_trace_context()
//     is copyable, so the value captured on one thread (a future
//     task-graph scheduler) can be re-entered with a scope guard on the
//     thread that picks the work up;
//   * per-request cost attribution: a sampled context carries a
//     RequestCost accumulator; Executor::run and the pooled allocator
//     feed it through note_request_kernel / note_request_alloc, so a
//     /v1/solve response can answer "what did *this* request cost" with
//     flops, bytes, kernel launches, pool-allocation bytes, and a
//     per-kernel breakdown;
//   * sampling: MGKO_TRACE_SAMPLE (or the `trace_sample` binding) sets
//     the probability that a *minted* context is sampled; a caller
//     supplied traceparent's sampled flag is adopted as-is, per W3C.
//
// The wire format is the W3C `traceparent` header
// (00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>); serve/http.hpp
// carries the parse/emit helpers so servers adopt a caller's trace id,
// mint one when absent, and echo it on every response (DESIGN.md §17).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace mgko::log {


struct RequestCost;


/// One request's identity: 128-bit trace id (split high/low), 64-bit span
/// id, and the sampled flag.  A zero trace id means "no context".
struct TraceContext {
    std::uint64_t trace_high{0};
    std::uint64_t trace_low{0};
    std::uint64_t span_id{0};
    bool sampled{false};
    /// Sampled contexts may carry a cost accumulator; not owned.  The
    /// pointer never crosses the lifetime of the scope that set it.
    RequestCost* cost{nullptr};

    bool valid() const { return (trace_high | trace_low) != 0; }
    /// 32 lowercase hex characters.
    std::string trace_id_hex() const;
    /// 16 lowercase hex characters.
    std::string span_id_hex() const;
    /// The W3C header value: "00-<trace>-<span>-<flags>".
    std::string traceparent() const;
};


/// Per-kernel slice of a request's cost.
struct kernel_cost {
    std::uint64_t count{0};
    double wall_ns{0.0};
    double flops{0.0};
    double bytes{0.0};
};


/// Everything one sampled request consumed.  Deliberately unsynchronized:
/// only the thread whose current context carries the `cost` pointer ever
/// feeds it (note_request_kernel / note_request_alloc are no-ops
/// everywhere else, and kernels tick their work from the dispatching
/// thread even across OpenMP regions), and handoffs between threads are
/// sequenced by the queue that moves the context.  A future executor that
/// fans ONE request across dispatching threads concurrently must add its
/// own aggregation.
///
/// note_kernel sits on the kernel-dispatch hot path, so the per-kernel
/// breakdown is keyed by the name *pointer* (Executor::run() names have
/// static storage) in a fixed slot array — no string construction, no
/// tree walk — and only folded into a string-keyed map at snapshot()
/// time, where distinct literals with equal text merge.
struct RequestCost {
    /// Inline: runs once per kernel dispatch on sampled requests; a call
    /// through a translation-unit boundary is measurable at that rate.
    void note_kernel(const char* name, double wall_ns, double flops,
                     double bytes)
    {
        flops_ += flops;
        bytes_ += bytes;
        ++kernels_;
        // Pointer-identity scan over the few distinct kernels a request
        // runs; Executor::run() names are string literals, so the same
        // kernel hits the same slot every dispatch without touching the
        // characters.
        kernel_cost* slice = &overflow_;
        for (std::size_t i = 0; i < used_; ++i) {
            if (slots_[i].name == name) {
                slice = &slots_[i].cost;
                break;
            }
        }
        if (slice == &overflow_ && used_ < max_slots) {
            slots_[used_].name = name;
            slice = &slots_[used_].cost;
            ++used_;
        }
        ++slice->count;
        slice->wall_ns += wall_ns;
        slice->flops += flops;
        slice->bytes += bytes;
    }

    void note_alloc(double bytes) { alloc_bytes_ += bytes; }

    struct totals {
        double flops{0.0};
        double bytes{0.0};
        double alloc_bytes{0.0};
        std::uint64_t kernels{0};
        std::map<std::string, kernel_cost> per_kernel;
    };
    /// Point-in-time copy of the accumulated cost.
    totals snapshot() const;

    /// The four scalar totals without materializing the per-kernel map —
    /// for per-request summaries that don't need the breakdown.
    struct scalar_totals {
        double flops{0.0};
        double bytes{0.0};
        double alloc_bytes{0.0};
        std::uint64_t kernels{0};
    };
    scalar_totals quick_totals() const
    {
        return {flops_, bytes_, alloc_bytes_, kernels_};
    }

private:
    struct slot {
        const char* name{nullptr};
        kernel_cost cost{};
    };
    /// Distinct kernel names per request; a solve touches ~a dozen.
    /// Overflow beyond this lands in the "<other>" breakdown row.
    static constexpr std::size_t max_slots = 64;

    double flops_{0.0};
    double bytes_{0.0};
    double alloc_bytes_{0.0};
    std::uint64_t kernels_{0};
    std::array<slot, max_slots> slots_{};
    std::size_t used_{0};
    kernel_cost overflow_{};
};


namespace detail {
/// The thread's active context.  Inline thread_local so the per-kernel
/// accessors below compile to a TLS load at every call site instead of a
/// function call.  TraceContextScope saves the previous value on the C++
/// stack, so nesting behaves like a stack without this being one.
inline thread_local TraceContext tl_context{};
}  // namespace detail


/// The calling thread's active context; a zero context when none is in
/// scope.
inline TraceContext current_trace_context() { return detail::tl_context; }

/// RAII guard that makes `ctx` the calling thread's current context for
/// its lifetime, restoring the previous one on unwind.  Scopes nest (the
/// saved context lives on the C++ stack), which is exactly the
/// "thread-local stack" the propagation rules need; handoffs capture
/// current_trace_context() on one thread and re-enter it with a scope on
/// another.
class TraceContextScope {
public:
    explicit TraceContextScope(const TraceContext& ctx)
        : previous_{detail::tl_context}
    {
        detail::tl_context = ctx;
    }
    ~TraceContextScope() { detail::tl_context = previous_; }

    TraceContextScope(const TraceContextScope&) = delete;
    TraceContextScope& operator=(const TraceContextScope&) = delete;

private:
    TraceContext previous_;
};


/// Mints a fresh context: random nonzero trace and span ids, sampled with
/// probability trace_sample_rate().
TraceContext make_trace_context();

/// A random nonzero span id — used when adopting a caller's trace id but
/// starting our own span under it.
std::uint64_t mint_span_id();

/// The probability ([0, 1]) that make_trace_context() returns a sampled
/// context.  Defaults to MGKO_TRACE_SAMPLE (1.0 when unset).
double trace_sample_rate();
/// Overrides the sample rate (clamped to [0, 1]); the trace_sample
/// binding lands here.
void set_trace_sample_rate(double rate);

/// The low 64 bits of the calling thread's *sampled* context's trace id,
/// 0 when no sampled context is active.  FlightRecorder stamps every
/// record with this word so /trace.json?trace_id= can filter one request.
inline std::uint64_t current_trace_word()
{
    return detail::tl_context.sampled ? detail::tl_context.trace_low : 0;
}

/// Attributes one completed kernel dispatch to the active context's cost
/// accumulator (no-op without one).  Called by Executor::run next to
/// on_operation_completed.
inline void note_request_kernel(const char* name, double wall_ns,
                                double flops, double bytes)
{
    if (detail::tl_context.cost != nullptr) {
        detail::tl_context.cost->note_kernel(name, wall_ns, flops, bytes);
    }
}
/// Attributes a pool allocation's bytes the same way; called by
/// Executor::alloc_bytes.
inline void note_request_alloc(double bytes)
{
    if (detail::tl_context.cost != nullptr) {
        detail::tl_context.cost->note_alloc(bytes);
    }
}


}  // namespace mgko::log
