#include "serve/telemetry_server.hpp"

#include <sstream>

#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"

namespace mgko::serve {


std::string process_metrics_text()
{
    std::ostringstream body;
    body << log::shared_metrics()->registry().prometheus_text()
         << log::hw_counters_prometheus()
         << "# TYPE mgko_sampling_hz gauge\n"
         << "mgko_sampling_hz " << log::sampling_hz() << "\n"
         << "# TYPE mgko_sampling_samples_total counter\n"
         << "mgko_sampling_samples_total " << log::sampling_samples() << "\n"
         << "# TYPE mgko_sampling_dropped_total counter\n"
         << "mgko_sampling_dropped_total " << log::sampling_dropped()
         << "\n";
    return body.str();
}


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
        body << process_metrics_text()
             << "# TYPE mgko_flight_records_total counter\n"
             << "mgko_flight_records_total " << recorder->recorded() << "\n"
             << "# TYPE mgko_flight_dropped_total counter\n"
             << "mgko_flight_dropped_total " << recorder->dropped() << "\n"
             << "# TYPE mgko_telemetry_requests_total counter\n"
             << "mgko_telemetry_requests_total " << requests_so_far << "\n";
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
        std::string refusal;
        const auto filter = trace_id_filter(target, refusal);
        if (!refusal.empty()) {
            return refusal;
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
    // The core's defaults are telemetry's: 1 worker, a queue of 16, no
    // body, a 1000 ms deadline.
    HttpServerOptions options;
    options.port = port;
    options.owner = "telemetry";
    options.handle = [raw = server.get()](const HttpRequest& request) {
        const auto count =
            raw->requests_.fetch_add(1, std::memory_order_relaxed) + 1;
        return respond(request.method, request.target, count);
    };
    server->http_ = HttpServer::start(std::move(options));
    return server;
}


// --- process-wide server ---------------------------------------------------

namespace {

ProcessServer<TelemetryServer>& process_server()
{
    static ProcessServer<TelemetryServer> server{"telemetry server",
                                                 "telemetry_stop()"};
    return server;
}

}  // namespace


int telemetry_start(int port)
{
    return process_server().start(port, [](int p) {
        auto server = TelemetryServer::start(p);
        log::set_shared_metrics_exported(true);
        return server;
    });
}


void telemetry_stop()
{
    process_server().stop([] { log::set_shared_metrics_exported(false); });
}


bool telemetry_active() { return telemetry_port() != 0; }


int telemetry_port() { return process_server().port(); }


}  // namespace mgko::serve
