// Live telemetry exposition — the pull side of the always-on tier.
//
// TelemetryServer is a minimal dependency-free HTTP/1.0 endpoint on the
// serve:: server core (serve/http.hpp) with one worker, and serves
//
//   GET /healthz           "ok" liveness probe
//   GET /metrics           Prometheus text: process_metrics_text() (the
//                          shared MetricsRegistry and the measured tier's
//                          mgko_hw_* / mgko_sampling_* series) plus the
//                          server's own mgko_flight_*/mgko_telemetry_*
//                          series, so a scrape is never empty
//   GET /profile.json      the shared MetricsRegistry's per-tag profile
//                          view ({"tags": ...}, the MGKO_PROFILE schema):
//                          totals since executors started feeding it
//                          while telemetry is live, not the ring's window
//   GET /profile_cpu.json  sampling-profiler aggregate, pprof-like JSON
//                          (log/sampling_profiler.hpp)
//   GET /flamegraph.txt    the same samples as folded stacks, one
//                          "frame;frame;... count" line per stack —
//                          flamegraph.pl-ready
//   GET /trace.json        flight-recorder snapshot as Chrome Trace JSON
//                          (the last events per thread)
//
// so a production host can be inspected while it runs instead of waiting
// for an exit-time dump (cf. Koch et al. on observability surviving
// embedding).  Serving is serial by design: responses are small snapshots
// and the instrumented threads never block on a scrape.  Up to 16 scrapes
// wait in the core's queue; past that a scrape is answered 429 with
// Retry-After at once.  Requests carry no body (413 when one is declared),
// a header block of at most 8 KiB (431 beyond it), and have 1000 ms to
// arrive (408) and to be written back.
//
// Process-wide control: telemetry_start(port) / telemetry_stop() manage a
// single shared server (also reachable through the `telemetry_start` /
// `telemetry_stop` bindings); serve::start_from_env() (solve_server.hpp)
// starts it when MGKO_TELEMETRY_PORT is set.  Port 0 binds an ephemeral
// port, reported by the return value / port().  While the shared server
// runs, executors created by the factories feed log::shared_metrics().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/http.hpp"

namespace mgko::serve {


class TelemetryServer {
public:
    /// Binds 0.0.0.0:`port` (0 picks an ephemeral port) and starts
    /// serving.  Throws BadParameter when `port` lies outside [0, 65535]
    /// or the socket cannot be bound.
    static std::unique_ptr<TelemetryServer> start(int port);

    TelemetryServer(const TelemetryServer&) = delete;
    TelemetryServer& operator=(const TelemetryServer&) = delete;

    /// The bound port (the concrete one when constructed with port 0).
    int port() const { return http_->port(); }

    std::uint64_t requests_served() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /// The core's graceful stop: scrapes already accepted or waiting in
    /// the listen backlog are answered first.  Idempotent; destroying the
    /// server stops it too.
    void stop() { http_->stop(); }

    /// Routes one request to a full HTTP response string; exposed so unit
    /// tests can exercise routing without sockets.
    static std::string respond(const std::string& method,
                               const std::string& target,
                               std::uint64_t requests_so_far);

private:
    TelemetryServer() = default;

    std::atomic<std::uint64_t> requests_{0};
    /// Declared last, so it is destroyed, and its workers joined, first.
    std::unique_ptr<HttpServer> http_;
};


/// The Prometheus text both servers' /metrics start with: the shared
/// MetricsRegistry, the hardware-counter series and the sampling
/// profiler's mgko_sampling_* series.  Each server appends its own.
std::string process_metrics_text();


/// Starts the process-wide server if none is running and returns its
/// port.  With one running, port 0 reports it and a different explicit
/// port throws BadParameter (the ProcessServer rule in serve/http.hpp).
/// Pass 0 to bind an ephemeral port on first start.
int telemetry_start(int port);

/// Stops and discards the process-wide server; no-op when none runs.
void telemetry_stop();

/// True while the process-wide server is running (telemetry_port() != 0).
bool telemetry_active();

/// The process-wide server's port, 0 when inactive.
int telemetry_port();


}  // namespace mgko::serve
