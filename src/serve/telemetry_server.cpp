#include "serve/telemetry_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <mutex>
#include <sstream>

#include "core/exception.hpp"
#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "serve/http.hpp"

namespace mgko::serve {


std::string TelemetryServer::respond(const std::string& method,
                                     const std::string& target,
                                     std::uint64_t requests_so_far)
{
    if (method != "GET") {
        return json_response(405, error_json("method not allowed"));
    }
    // Strip any query string: scrapers commonly append cache busters.
    std::string path = target.substr(0, target.find('?'));
    if (path == "/healthz") {
        return http_response(200, "text/plain", "ok\n");
    }
    if (path == "/metrics") {
        auto recorder = log::shared_flight_recorder();
        std::ostringstream body;
        body << log::shared_metrics()->registry().prometheus_text();
        body << "# TYPE mgko_flight_records_total counter\n"
             << "mgko_flight_records_total " << recorder->recorded() << "\n"
             << "# TYPE mgko_flight_dropped_total counter\n"
             << "mgko_flight_dropped_total " << recorder->dropped() << "\n"
             << "# TYPE mgko_telemetry_requests_total counter\n"
             << "mgko_telemetry_requests_total " << requests_so_far << "\n";
        // Measured tier: hardware-counter series plus the sampling
        // profiler's own health counters.
        body << log::hw_counters_prometheus();
        body << "# TYPE mgko_sampling_hz gauge\n"
             << "mgko_sampling_hz " << log::sampling_hz() << "\n"
             << "# TYPE mgko_sampling_samples_total counter\n"
             << "mgko_sampling_samples_total " << log::sampling_samples()
             << "\n"
             << "# TYPE mgko_sampling_dropped_total counter\n"
             << "mgko_sampling_dropped_total " << log::sampling_dropped()
             << "\n";
        return http_response(200, "text/plain; version=0.0.4", body.str());
    }
    if (path == "/profile.json") {
        return http_response(
            200, "application/json",
            log::shared_metrics()->registry().profile_json());
    }
    if (path == "/profile_cpu.json") {
        // The measured profile: aggregated SIGPROF samples, pprof-like
        // shape.  Valid (with zero stacks) when sampling never ran.
        return http_response(200, "application/json",
                             log::sampling_profile_json());
    }
    if (path == "/flamegraph.txt") {
        // Folded stacks, one "frame;frame;... count" line per distinct
        // stack — pipe straight into flamegraph.pl.
        return http_response(200, "text/plain", log::sampling_folded());
    }
    if (path == "/trace.json") {
        // ?trace_id=<32-or-16 hex> narrows the dump to one request's
        // records — the navigation target for metric exemplars and
        // traceparent echoes.
        std::uint64_t filter = 0;
        const auto wanted = query_param(target, "trace_id");
        if (!wanted.empty()) {
            bool ok = false;
            filter = parse_trace_filter(wanted, ok);
            if (!ok) {
                return json_response(
                    400, error_json("trace_id must be 16 or 32 lowercase "
                                    "hex characters"));
            }
        }
        return http_response(
            200, "application/json",
            log::shared_flight_recorder()->to_chrome_trace_json(filter));
    }
    return json_response(404, error_json("not found: " + path));
}


std::unique_ptr<TelemetryServer> TelemetryServer::start(int port)
{
    std::unique_ptr<TelemetryServer> server{new TelemetryServer{}};
    const auto listener = listen_on(port, 16, "telemetry");
    server->listen_fd_ = listener.fd;
    server->port_ = listener.port;
    server->running_.store(true, std::memory_order_release);
    server->thread_ = std::thread{[raw = server.get()] { raw->serve_loop(); }};
    return server;
}


void TelemetryServer::serve_loop()
{
    while (running_.load(std::memory_order_acquire)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        // A bounded poll keeps stop() latency under ~100ms without
        // needing a self-pipe.
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
            continue;
        }
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) {
            continue;
        }
        set_nonblocking(client);
        // Requests may arrive in arbitrarily small TCP segments; the shared
        // reader accumulates until the header terminator (8 KiB bound,
        // telemetry requests carry no body) instead of trusting one recv.
        HttpRequest request;
        const auto result =
            read_http_request(client, request, 8 * 1024, 0, 1000);
        if (result == read_result::ok) {
            const auto count =
                requests_.fetch_add(1, std::memory_order_relaxed) + 1;
            send_all(client,
                     respond(request.method, request.target, count));
        } else if (result == read_result::timeout) {
            send_all(client,
                     json_response(408, error_json("request timeout")));
        } else if (result == read_result::too_large ||
                   result == read_result::malformed) {
            send_all(client,
                     json_response(
                         result == read_result::too_large ? 431 : 400,
                         error_json(result == read_result::too_large
                                        ? "request header fields too large"
                                        : "malformed request")));
        }
        ::close(client);
    }
}


void TelemetryServer::stop()
{
    if (!running_.exchange(false)) {
        return;
    }
    if (thread_.joinable()) {
        thread_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}


TelemetryServer::~TelemetryServer() { stop(); }


// --- process-wide server ---------------------------------------------------

namespace {

std::mutex& global_mutex()
{
    static std::mutex mutex;
    return mutex;
}

std::unique_ptr<TelemetryServer>& global_server()
{
    static std::unique_ptr<TelemetryServer> server;
    return server;
}

std::atomic<bool> global_active{false};
std::atomic<int> global_port{0};

}  // namespace


int telemetry_start(int port)
{
    std::lock_guard<std::mutex> guard{global_mutex()};
    auto& server = global_server();
    if (!server) {
        server = TelemetryServer::start(port);
        global_active.store(true, std::memory_order_release);
        global_port.store(server->port(), std::memory_order_release);
        log::set_shared_metrics_exported(true);
    } else if (port != 0 && port != server->port()) {
        // Silently answering with a server bound elsewhere hid
        // misconfigurations; an explicit conflicting port is an error.
        // Port 0 ("any port") keeps reporting the running server.
        throw BadParameter(
            __FILE__, __LINE__,
            "telemetry server already running on port " +
                std::to_string(server->port()) + ", cannot rebind to " +
                std::to_string(port) + " (telemetry_stop() it first)");
    }
    return server->port();
}


void telemetry_stop()
{
    std::lock_guard<std::mutex> guard{global_mutex()};
    log::set_shared_metrics_exported(false);
    global_active.store(false, std::memory_order_release);
    global_port.store(0, std::memory_order_release);
    global_server().reset();
}


bool telemetry_active()
{
    return global_active.load(std::memory_order_acquire);
}


int telemetry_port() { return global_port.load(std::memory_order_acquire); }


}  // namespace mgko::serve
