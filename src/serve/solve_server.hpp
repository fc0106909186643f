// Solve-as-a-service: the request-serving layer on the serve:: spine.
//
// SolveServer runs the serve:: server core (serve/http.hpp) with a worker
// pool and keeps only its routes, its cache and its counters.  The
// economics mirror Ginkgo's LinOp design (generate once, apply many): a
// matrix uploaded once is parsed and factored once, then solved thousands
// of times against different right-hand sides.
//
//   POST /v1/operators   matrix payload -> cached operator handle.
//                        Body is JSON carrying either
//                          {"mtx": "<Matrix Market text>"}          or
//                          {"triplet": {"rows": R, "cols": C,
//                                       "entries": [[r, c, v], ...]}}
//                        Response: {"operator": "op-1", "rows", "cols",
//                        "nnz", "bytes"}.
//   POST /v1/solve       config JSON + operator handle or inline matrix.
//                        Body: {"config": {...config_solver schema...},
//                               "operator": "op-1" | "mtx"/"triplet": ...,
//                               "b": [...], "x0": [...]}   (b defaults to
//                        all ones, x0 to zeros).  The (operator, config)
//                        pair selects a cached generated solver — a cache
//                        hit skips parsing, conversion, and
//                        factorization.  The config describes one solver
//                        only: an unknown key answers 400 naming it, so a
//                        request cannot flip process-wide switches (those
//                        are set by environment variable or binding).
//                        Response: {"x": [...],
//                        "iterations", "converged", "residual_norm",
//                        "stop_reason", "cache": "hit"|"miss"|"inline",
//                        "operator"}.
//   GET  /v1/stats       live counters: requests by outcome, cache
//                        hits/misses/evictions and resident bytes, queue
//                        high-water mark, rejected (429) count.
//   GET  /v1/requests    bounded ring of recent per-request summaries:
//                        trace id, route, status, wall time, and the cost
//                        attributed to each request (flops, bytes, pool
//                        alloc bytes, kernel launches).  Filters:
//                        ?limit=N keeps the N most recent entries
//                        (1..256), ?trace_id=<16-or-32 hex> keeps one
//                        request's entries; malformed values answer the
//                        same typed JSON 400 as /trace.json.
//
// Request-scoped tracing (DESIGN.md §17): every request adopts the trace
// id and sampled flag of a valid W3C `traceparent` header (malformed
// headers are ignored and a fresh context minted — never a 400), mints a
// context otherwise (sampled per MGKO_TRACE_SAMPLE / the `trace_sample`
// binding), and echoes the context as a `traceparent` response header.
// While the request is in flight its context scopes the worker thread, so
// FlightRecorder records carry its trace id (filterable via
// /trace.json?trace_id= on the telemetry endpoint), metric observations
// leave OpenMetrics exemplars, and sampled /v1/solve responses gain a
// "cost" block with a per-kernel breakdown.
//   GET  /metrics        Prometheus text: the shared MetricsRegistry plus
//                        the server's own mgko_solve_* series and the
//                        measured tier's mgko_hw_*/mgko_sampling_* series.
//   GET  /healthz        liveness probe: 200 while the process serves,
//                        including during drain (the process is alive and
//                        still answering queued work).
//   GET  /readyz         readiness probe: 200 {"state": "accepting"} only
//                        while new connections are admitted; 503 with
//                        "draining" (stop() running, queued work still
//                        being served) or "stopped" (drain complete) —
//                        the signal a load balancer needs to pull the
//                        instance before /healthz ever flips.
//
// Concurrency: the core's acceptor feeds a bounded queue drained by
// `num_workers` workers.  Admission control is explicit backpressure —
// when the queue is full the acceptor answers 429 with a Retry-After
// header immediately instead of queueing unboundedly (clients see latency
// honestly instead of through a growing queue).  A request whose header
// block exceeds 8 KiB answers 431, a body beyond `max_body_bytes` 413, a
// read that misses the deadline 408; each of these carries a traceparent
// like every routed response.  An upload or inline solve whose operator
// declares more rows than `cache_capacity_bytes` holds at 16 B per row
// (the row term of the cache's solver estimate) also answers 413, before
// anything is allocated for it.  Cached solvers hold persistent workspaces,
// so each one is applied under its own mutex; different operators (and
// different configs on one operator) solve concurrently.  stop() is the
// core's graceful stop: it stops accepting, answers the connections still
// in the listen backlog, then drains queued and in-flight requests before
// joining the workers.
//
// Observability rides both stores of the event spine: every request adds
// to the totals in the shared MetricsRegistry (mgko_solve_latency_ns
// histograms per route, outcome counters) and to the events in the
// FlightRecorder (a "serve.solve" span, ...), so /metrics, /profile.json,
// /trace.json, /v1/stats and the crash black box all see solve traffic
// with no extra wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/types.hpp"
#include "serve/http.hpp"

namespace mgko::serve {


struct SolveServerOptions {
    /// TCP port; 0 binds an ephemeral port (see SolveServer::port()).
    int port{0};
    /// Worker threads draining the request queue.
    size_type num_workers{4};
    /// Accepted-but-unserviced connections held before the acceptor
    /// answers 429 + Retry-After instead of queueing further.
    size_type queue_capacity{64};
    /// Approximate byte budget for cached operators and their generated
    /// solvers; least-recently-used operators are evicted beyond it.
    size_type cache_capacity_bytes{size_type{64} << 20};
    /// Per-request body bound (413 beyond it) — matrix uploads dominate.
    size_type max_body_bytes{size_type{8} << 20};
    /// Wall-clock bound on reading one request (408) and writing its
    /// response.
    int request_deadline_ms{5000};
    /// Test-only: called by each worker after dequeuing a connection and
    /// before serving it; lets tests stall the pool deterministically to
    /// exercise backpressure.  Leave empty in production.
    std::function<void()> worker_test_hook{};
};


class SolveServer {
public:
    /// Binds and starts the acceptor + worker pool.  Throws BadParameter
    /// when the port lies outside [0, 65535] or cannot be bound, or when
    /// `num_workers` or `queue_capacity` is 0.
    static std::unique_ptr<SolveServer> start(SolveServerOptions options = {});

    ~SolveServer();

    SolveServer(const SolveServer&) = delete;
    SolveServer& operator=(const SolveServer&) = delete;

    /// The bound port (the concrete one when constructed with port 0).
    int port() const { return http_->port(); }

    /// Graceful shutdown: stop accepting, serve everything in the listen
    /// backlog, queued and in flight, join the pool.  Idempotent;
    /// destroying the server stops it too.
    void stop() { http_->stop(); }

    /// Point-in-time counters (also exported as /v1/stats and /metrics).
    struct Stats {
        /// Routed requests + unreadable ones (408/431/413/400) + 429s.
        std::uint64_t requests_total{0};
        std::uint64_t ok{0};
        std::uint64_t client_errors{0};  ///< 4xx other than 429
        std::uint64_t server_errors{0};  ///< 5xx
        std::uint64_t rejected{0};       ///< 429 backpressure answers
        std::uint64_t send_failures{0};  ///< responses we could not write
        std::uint64_t uploads{0};
        std::uint64_t solves{0};
        std::uint64_t cache_hits{0};
        std::uint64_t cache_misses{0};
        std::uint64_t cache_evictions{0};
        std::uint64_t solver_generations{0};
        size_type cache_operators{0};
        size_type cache_bytes{0};
        size_type queue_capacity{0};
        std::uint64_t queue_peak{0};
    };
    Stats stats() const;
    /// Stats as a JSON object (the /v1/stats body).
    std::string stats_json() const;
    /// The bounded recent-request ring as JSON (the /v1/requests body).
    /// `limit` keeps only the most recent N entries (0 means all);
    /// `trace_filter` (the low 64 bits of a trace id, 0 meaning no
    /// filter) keeps only entries whose trace id ends in that word.
    std::string requests_json(std::size_t limit = 0,
                              std::uint64_t trace_filter = 0) const;

    /// Routes one parsed request to a full HTTP response; exposed so unit
    /// tests can exercise routing, parsing, and the cache without
    /// sockets.  Thread-safe.
    std::string handle(const HttpRequest& request);

private:
    SolveServer() = default;

    std::string handle_upload(const HttpRequest& request);
    std::string handle_solve(const HttpRequest& request);
    std::string metrics_text() const;

    struct Impl;
    std::unique_ptr<Impl> impl_;

    SolveServerOptions options_;
    /// Declared last, so it is destroyed, and its workers joined, first.
    std::unique_ptr<HttpServer> http_;
};


/// Starts the process-wide solve server if none is running; returns the
/// bound port.  Like telemetry_start: with a server already running,
/// port 0 reports it and a conflicting explicit port throws BadParameter.
int solve_server_start(int port);

/// Graceful stop + discard of the process-wide server; no-op when none.
void solve_server_stop();

/// True while the process-wide server is running (solve_server_port()
/// != 0).
bool solve_server_active();

/// The process-wide server's port, 0 when inactive.
int solve_server_port();

/// The process-wide server's /v1/stats JSON; "{}" when inactive.
std::string solve_server_stats_json();

/// Starts the process-wide servers the environment asks for, once per
/// process: telemetry_start($MGKO_TELEMETRY_PORT) first, so the solve
/// server's executor feeds the exported metrics, then
/// solve_server_start($MGKO_SOLVE_PORT).  A variable that is not a port
/// number in [0, 65535] and a failed bind are reported on stderr rather
/// than thrown (an embedded library must not kill its host over an
/// occupied port).  bind::device() calls it before creating its executor;
/// a C++ program that honours these variables calls it from main().
void start_from_env();


}  // namespace mgko::serve
