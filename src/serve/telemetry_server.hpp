// Live telemetry exposition — the pull side of the always-on tier.
//
// TelemetryServer is a minimal dependency-free HTTP/1.0 endpoint over raw
// POSIX sockets: one background thread accepts loopback or scrape traffic
// and serves
//
//   GET /healthz           "ok" liveness probe
//   GET /metrics           Prometheus text from the shared MetricsRegistry,
//                          plus the server's own mgko_flight_*/
//                          mgko_telemetry_* series (so a scrape is never
//                          empty) and the measured tier's mgko_hw_* /
//                          mgko_sampling_* series
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
// and the instrumented threads never block on a scrape.  Socket I/O goes
// through the shared serve/http.hpp helpers (bounded segmented request
// reads, EINTR/EAGAIN-hardened sends) — the same spine SolveServer's
// request traffic rides on.
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
#include <thread>

namespace mgko::serve {


class TelemetryServer {
public:
    /// Binds 0.0.0.0:`port` (0 picks an ephemeral port) and starts the
    /// accept thread.  Throws BadParameter when `port` lies outside
    /// [0, 65535] or the socket cannot be bound.
    static std::unique_ptr<TelemetryServer> start(int port);

    ~TelemetryServer();

    TelemetryServer(const TelemetryServer&) = delete;
    TelemetryServer& operator=(const TelemetryServer&) = delete;

    /// The bound port (the concrete one when constructed with port 0).
    int port() const { return port_; }

    std::uint64_t requests_served() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /// Stops the accept loop and joins the thread; idempotent (the
    /// destructor calls it).
    void stop();

    /// Routes one request to a full HTTP response string; exposed so unit
    /// tests can exercise routing without sockets.
    static std::string respond(const std::string& method,
                               const std::string& target,
                               std::uint64_t requests_so_far);

private:
    TelemetryServer() = default;
    void serve_loop();

    int listen_fd_{-1};
    int port_{0};
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::thread thread_;
};


/// Starts the process-wide server if none is running; returns the bound
/// port.  When a server is already running, `port` 0 (meaning "any
/// port") reports the running server's port, while a non-zero `port`
/// that differs from the bound one throws BadParameter — a second
/// explicit port is a conflicting configuration, not a request the
/// running server can satisfy.  Pass 0 to bind an ephemeral port on
/// first start (the concrete port comes back as the return value).
int telemetry_start(int port);

/// Stops and discards the process-wide server; no-op when none runs.
void telemetry_stop();

/// True while the process-wide server is running.
bool telemetry_active();

/// The process-wide server's port, 0 when inactive.
int telemetry_port();


}  // namespace mgko::serve
