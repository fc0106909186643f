// Concurrent load test for serve::SolveServer (real wall clock, real
// sockets): hundreds of loopback clients fire a mixed workload — operator
// uploads, cache-hit solves against shared handles, cold inline solves,
// and stats scrapes — while the bench asserts the service-level contract:
// every request gets a complete response (zero dropped, zero truncated),
// 429 backpressure answers carry Retry-After and are retried, and a
// cache-hit solve never re-runs solver generation (checked against the
// server's own counters afterwards).
//
// Latencies are recorded into a MetricsRegistry histogram per traffic
// class and reported as p50/p95/p99 through the same log2-bucket quantile
// estimate the /metrics exporter uses.
//
//   bench_solve_server [--clients N] [--requests N] [--n SIZE]
//                      [--port P] [--serve-seconds S]
//
// After the load phase the bench turns on full trace sampling and checks
// the request-attribution contract (DESIGN.md §17): summed per-request
// "cost" flops must reconcile with the process-wide work model within 1%,
// and tracing must cost under 3% per request versus MGKO_TRACE_SAMPLE=0
// (min-of-batches, reported as the solve_server_attrib result block).
// The same interleaved methodology then gates the measured tier
// (DESIGN.md §18): the 199 Hz SIGPROF sampling profiler must cost <= 3%
// per request (the solve_server_sampling result block).
//
// MGKO_BENCH_SMOKE=1 shrinks the load to 8 clients x 50 requests (the CI
// observability job's smoke configuration).  --port binds the server to a
// fixed port and --serve-seconds keeps it serving after the workload so
// external clients (CI's curl probes) can scrape the live endpoints.
// Exits nonzero when any response is dropped, truncated, the workload
// produces no successes, or an attribution gate fails.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/harness.hpp"
#include "config/json.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "log/trace_context.hpp"
#include "serve/solve_server.hpp"
#include "serve/telemetry_server.hpp"

using namespace mgko;
using config::Json;

namespace {

constexpr const char* kClasses[] = {"upload", "solve_hit", "solve_inline",
                                    "stats"};

struct Totals {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> truncated{0};
    std::atomic<std::uint64_t> retries_429{0};
    std::atomic<std::uint64_t> failed_status{0};
};


int connect_loopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// One blocking request/response exchange; empty response on any socket
/// failure (counted as dropped by the caller).  `extra_headers` is spliced
/// into the request head verbatim ("Name: value\r\n" lines).
std::string exchange(int port, const std::string& method,
                     const std::string& target, const std::string& body,
                     const std::string& extra_headers = {})
{
    const int fd = connect_loopback(port);
    if (fd < 0) {
        return {};
    }
    std::string request = method + " " + target + " HTTP/1.0\r\n";
    if (!body.empty()) {
        request += "Content-Length: " + std::to_string(body.size()) +
                   "\r\nContent-Type: application/json\r\n";
    }
    request += extra_headers;
    request += "\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n =
            ::send(fd, request.data() + sent, request.size() - sent, 0);
        if (n <= 0) {
            ::close(fd);
            return {};
        }
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buffer[16 * 1024];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    ::close(fd);
    return response;
}

int status_of(const std::string& response)
{
    return response.size() > 12 ? std::atoi(response.c_str() + 9) : -1;
}

std::string body_of(const std::string& response)
{
    const auto split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string{}
                                      : response.substr(split + 4);
}

/// A response is complete iff its body length matches its Content-Length.
bool is_complete(const std::string& response)
{
    const auto split = response.find("\r\n\r\n");
    if (split == std::string::npos) {
        return false;
    }
    const auto header = response.substr(0, split);
    const auto pos = header.find("Content-Length:");
    if (pos == std::string::npos) {
        return false;
    }
    const long declared = std::strtol(header.c_str() + pos + 15, nullptr, 10);
    return response.size() - (split + 4) == static_cast<std::size_t>(declared);
}

int retry_after_seconds(const std::string& response)
{
    const auto pos = response.find("Retry-After:");
    if (pos == std::string::npos) {
        return 1;
    }
    const long parsed = std::strtol(response.c_str() + pos + 12, nullptr, 10);
    return parsed > 0 ? static_cast<int>(parsed) : 1;
}

Json laplacian_triplet(int n)
{
    Json triplet = Json::make_object();
    triplet["rows"] = Json{static_cast<std::int64_t>(n)};
    triplet["cols"] = Json{static_cast<std::int64_t>(n)};
    Json entries = Json::make_array();
    auto add = [&entries](int r, int c, double v) {
        Json e = Json::make_array();
        e.push_back(Json{static_cast<std::int64_t>(r)});
        e.push_back(Json{static_cast<std::int64_t>(c)});
        e.push_back(Json{v});
        entries.push_back(std::move(e));
    };
    for (int i = 0; i < n; ++i) {
        add(i, i, 2.0);
        if (i > 0) {
            add(i, i - 1, -1.0);
        }
        if (i + 1 < n) {
            add(i, i + 1, -1.0);
        }
    }
    triplet["entries"] = std::move(entries);
    return triplet;
}

Json cg_config()
{
    Json config = Json::make_object();
    config["type"] = Json{"solver::Cg"};
    config["max_iters"] = Json{std::int64_t{500}};
    config["reduction_factor"] = Json{1e-8};
    return config;
}

}  // namespace


int main(int argc, char** argv)
{
    int num_clients = 200;
    int requests_per_client = 20;
    int matrix_size = 64;
    if (const char* smoke = std::getenv("MGKO_BENCH_SMOKE");
        smoke != nullptr && *smoke != '\0' && std::strcmp(smoke, "0") != 0) {
        num_clients = 8;
        requests_per_client = 50;
    }
    int fixed_port = 0;
    int serve_seconds = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--clients" && i + 1 < argc) {
            num_clients = std::atoi(argv[++i]);
        } else if (flag == "--requests" && i + 1 < argc) {
            requests_per_client = std::atoi(argv[++i]);
        } else if (flag == "--n" && i + 1 < argc) {
            matrix_size = std::atoi(argv[++i]);
        } else if (flag == "--port" && i + 1 < argc) {
            fixed_port = std::atoi(argv[++i]);
        } else if (flag == "--serve-seconds" && i + 1 < argc) {
            serve_seconds = std::atoi(argv[++i]);
        }
    }

    // Telemetry must be live before any server creates its executor so the
    // shared metrics registry records executor-level series — the global
    // side of the request-attribution reconciliation below.  Honour a
    // CI-provided fixed port, fall back to an ephemeral one; the
    // environment's MGKO_SOLVE_PORT server starts after it.
    if (const char* env_port = std::getenv("MGKO_TELEMETRY_PORT");
        env_port == nullptr || *env_port == '\0') {
        serve::telemetry_start(0);
    }
    serve::start_from_env();

    serve::SolveServerOptions options;
    options.port = fixed_port;
    options.num_workers = static_cast<size_type>(
        std::max(4u, std::thread::hardware_concurrency()));
    options.queue_capacity =
        static_cast<size_type>(std::max(64, num_clients * 2));
    const auto num_workers = options.num_workers;
    const auto queue_capacity = options.queue_capacity;
    auto server = serve::SolveServer::start(std::move(options));
    std::printf("solve server bench: %d clients x %d requests on port %d "
                "(%zu workers, queue %zu)\n",
                num_clients, requests_per_client, server->port(),
                static_cast<std::size_t>(num_workers),
                static_cast<std::size_t>(queue_capacity));

    // Shared operators every solve_hit request reuses: the second request
    // per (operator, config) onwards must be served from the solver cache.
    constexpr int num_shared = 4;
    std::vector<std::string> handles;
    {
        Json payload = Json::make_object();
        payload["triplet"] = laplacian_triplet(matrix_size);
        const auto body = payload.dump();
        for (int i = 0; i < num_shared; ++i) {
            const auto response =
                exchange(server->port(), "POST", "/v1/operators", body);
            if (status_of(response) != 200) {
                std::fprintf(stderr, "seed upload failed:\n%s\n",
                             response.c_str());
                return 1;
            }
            const auto split = response.find("\r\n\r\n");
            handles.push_back(Json::parse(response.substr(split + 4))
                                  .at("operator")
                                  .as_string());
        }
    }

    const auto solve_body = [&](int which) {
        Json body = Json::make_object();
        body["operator"] = Json{handles[static_cast<std::size_t>(
            which % num_shared)]};
        body["config"] = cg_config();
        return body.dump();
    };
    Json inline_body_json = Json::make_object();
    inline_body_json["triplet"] = laplacian_triplet(matrix_size / 4 + 2);
    inline_body_json["config"] = cg_config();
    const auto inline_body = inline_body_json.dump();
    Json upload_payload = Json::make_object();
    upload_payload["triplet"] = laplacian_triplet(matrix_size / 2 + 2);
    const auto upload_body = upload_payload.dump();

    log::MetricsRegistry latencies;
    Totals totals;
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(num_clients));
    for (int c = 0; c < num_clients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < requests_per_client; ++r) {
                // Deterministic mix: ~5% uploads, ~75% cache-hit solves,
                // ~10% inline solves, ~10% stats scrapes.
                const int roll = (c * 31 + r * 7) % 20;
                const char* cls;
                std::string method = "POST", target, body;
                if (roll == 0) {
                    cls = "upload";
                    target = "/v1/operators";
                    body = upload_body;
                } else if (roll <= 15) {
                    cls = "solve_hit";
                    target = "/v1/solve";
                    body = solve_body(c + r);
                } else if (roll <= 17) {
                    cls = "solve_inline";
                    target = "/v1/solve";
                    body = inline_body;
                } else {
                    cls = "stats";
                    method = "GET";
                    target = "/v1/stats";
                }
                totals.sent.fetch_add(1, std::memory_order_relaxed);
                const auto begin = std::chrono::steady_clock::now();
                std::string response;
                for (int attempt = 0; attempt < 5; ++attempt) {
                    response = exchange(server->port(), method, target, body);
                    if (status_of(response) != 429) {
                        break;
                    }
                    totals.retries_429.fetch_add(1,
                                                 std::memory_order_relaxed);
                    std::this_thread::sleep_for(std::chrono::seconds(
                        retry_after_seconds(response)));
                }
                const auto ns = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count());
                if (response.empty()) {
                    totals.dropped.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (!is_complete(response)) {
                    totals.truncated.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (status_of(response) != 200) {
                    totals.failed_status.fetch_add(1,
                                                   std::memory_order_relaxed);
                    continue;
                }
                totals.ok.fetch_add(1, std::memory_order_relaxed);
                latencies.observe("bench_solve_latency_ns", cls, ns);
                latencies.observe("bench_solve_latency_ns", "all", ns);
            }
        });
    }
    for (auto& client : clients) {
        client.join();
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    const auto stats = server->stats();

    // --- request attribution -----------------------------------------------
    // Sequential fully-sampled traffic: every /v1/solve response must carry
    // a "cost" block, and the summed per-request flops must reconcile with
    // the shared registry's mgko_flops_total over the same window — the
    // request-attributed and executor-attributed views of the identical
    // drained work model.
    auto& registry = log::shared_metrics()->registry();
    log::set_trace_sample_rate(1.0);
    registry.reset();
    const int attrib_requests = 48;
    double attrib_flops = 0.0;
    std::uint64_t attrib_kernels = 0;
    int attrib_served = 0;
    bool missing_cost = false;
    for (int r = 0; r < attrib_requests; ++r) {
        const auto response =
            exchange(server->port(), "POST", "/v1/solve", solve_body(r));
        if (status_of(response) != 200) {
            continue;
        }
        const auto parsed = Json::parse(body_of(response));
        if (!parsed.contains("cost")) {
            missing_cost = true;
            continue;
        }
        const auto& cost = parsed.at("cost");
        attrib_flops += cost.at("flops").as_double();
        attrib_kernels +=
            static_cast<std::uint64_t>(cost.at("kernels").as_double());
        ++attrib_served;
    }
    double model_flops = 0.0;
    {
        const auto snapshot = Json::parse(registry.to_json());
        if (snapshot.at("counters").contains("mgko_flops_total")) {
            for (const auto& [tag, value] :
                 snapshot.at("counters").at("mgko_flops_total").items()) {
                (void)tag;
                model_flops += value.as_double();
            }
        }
    }
    const double attrib_error_percent =
        model_flops > 0.0
            ? std::abs(attrib_flops - model_flops) / model_flops * 100.0
            : 100.0;

    // --- tracing overhead --------------------------------------------------
    // Per-request cost with the sampler fully on vs fully off
    // (MGKO_TRACE_SAMPLE=0 equivalent), driven through handle() directly:
    // the traced path — context minting, per-kernel attribution, the
    // response cost block — is identical to socket traffic, but loopback
    // jitter (connect/recv scheduling) would otherwise swamp a
    // single-digit-percent signal.  Batches interleave A/B to decorrelate
    // machine drift; min-of-batches suppresses scheduler noise.
    // The probe solves a larger operator than the load mix: tracing has a
    // fixed per-request component (context minting, serializing the cost
    // block) on top of the per-kernel rate, and the budget is a statement
    // about requests that do real work — against the load mix's ~250us
    // toy solves the constant would masquerade as rate.
    const int overhead_batch = 32;
    const int overhead_repeats = 7;
    std::string probe_handle;
    {
        Json payload = Json::make_object();
        payload["triplet"] =
            laplacian_triplet(std::max(matrix_size * 4, 512));
        const auto response = exchange(server->port(), "POST",
                                       "/v1/operators", payload.dump());
        if (status_of(response) != 200) {
            std::fprintf(stderr, "probe upload failed:\n%s\n",
                         response.c_str());
            return 1;
        }
        probe_handle =
            Json::parse(body_of(response)).at("operator").as_string();
    }
    Json probe_body = Json::make_object();
    probe_body["operator"] = Json{probe_handle};
    probe_body["config"] = cg_config();
    serve::HttpRequest probe;
    probe.method = "POST";
    probe.target = "/v1/solve";
    probe.version = "HTTP/1.0";
    probe.body = probe_body.dump();
    const auto run_batch = [&] {
        const auto begin = std::chrono::steady_clock::now();
        for (int r = 0; r < overhead_batch; ++r) {
            const auto response = server->handle(probe);
            (void)response;
        }
        return static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count()) /
               overhead_batch;
    };
    run_batch();  // warmup
    double traced_ns = std::numeric_limits<double>::infinity();
    double untraced_ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < overhead_repeats; ++rep) {
        log::set_trace_sample_rate(1.0);
        traced_ns = std::min(traced_ns, run_batch());
        log::set_trace_sample_rate(0.0);
        untraced_ns = std::min(untraced_ns, run_batch());
    }
    log::set_trace_sample_rate(1.0);
    const double overhead_percent =
        untraced_ns > 0.0 ? (traced_ns - untraced_ns) / untraced_ns * 100.0
                          : 0.0;

    // --- sampling-profiler overhead ----------------------------------------
    // The measured tier's own budget: the SIGPROF sampler at 199 Hz must
    // cost <= 3% per request versus sampling off, measured with the same
    // interleaved min-of-batches methodology as the tracing gate above
    // (tracing stays fully on in both arms so only the sampler varies).
    const int sampling_hz = 199;
    const int restore_hz = log::sampling_hz();
    double sampled_ns = std::numeric_limits<double>::infinity();
    double unsampled_ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < overhead_repeats; ++rep) {
        log::sampling_start(sampling_hz);
        sampled_ns = std::min(sampled_ns, run_batch());
        log::sampling_stop();
        unsampled_ns = std::min(unsampled_ns, run_batch());
    }
    const std::uint64_t sampling_samples = log::sampling_samples();
    // Restore whatever the environment configured (CI runs the serve
    // window under MGKO_SAMPLING_HZ so curl sees a live flamegraph).
    if (restore_hz > 0) {
        log::sampling_start(restore_hz);
    }
    const double sampling_overhead_percent =
        unsampled_ns > 0.0
            ? (sampled_ns - unsampled_ns) / unsampled_ns * 100.0
            : 0.0;

    if (serve_seconds > 0) {
        // Fresh slate for external scrapers: the serve window's own
        // traffic repopulates the registry, so every exemplar a scraper
        // sees points at a request whose records are still in the flight
        // ring (the load phase above wrapped it many times over).
        registry.reset();
        // Scrape window for external clients (the CI smoke job curls the
        // live endpoints while we linger here).
        std::printf("serving for %d more seconds on port %d...\n",
                    serve_seconds, server->port());
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    }
    server->stop();

    bench::CsvBlock csv{"solve_server",
                        {"class", "requests", "p50_ms", "p95_ms", "p99_ms"}};
    const auto row = [&](const char* cls) {
        const auto h =
            latencies.histogram_snapshot("bench_solve_latency_ns", cls);
        csv.add_row({cls, std::to_string(h.count),
                     bench::fmt(h.quantile(0.50) * 1e-6),
                     bench::fmt(h.quantile(0.95) * 1e-6),
                     bench::fmt(h.quantile(0.99) * 1e-6)});
    };
    for (const char* cls : kClasses) {
        row(cls);
    }
    row("all");
    csv.print();

    bench::CsvBlock attrib_csv{
        "solve_server_attrib",
        {"requests", "attrib_flops", "model_flops", "attrib_error_percent",
         "traced_us_per_req", "untraced_us_per_req", "overhead_percent"}};
    attrib_csv.add_row({std::to_string(attrib_served),
                        bench::fmt(attrib_flops, "%.6g"),
                        bench::fmt(model_flops, "%.6g"),
                        bench::fmt(attrib_error_percent, "%.4f"),
                        bench::fmt(traced_ns * 1e-3),
                        bench::fmt(untraced_ns * 1e-3),
                        bench::fmt(overhead_percent, "%.3f")});
    attrib_csv.print();

    bench::CsvBlock sampling_csv{
        "solve_server_sampling",
        {"hz", "batch", "sampled_us_per_req", "unsampled_us_per_req",
         "overhead_percent", "samples"}};
    sampling_csv.add_row({std::to_string(sampling_hz),
                          std::to_string(overhead_batch),
                          bench::fmt(sampled_ns * 1e-3),
                          bench::fmt(unsampled_ns * 1e-3),
                          bench::fmt(sampling_overhead_percent, "%.3f"),
                          std::to_string(sampling_samples)});
    sampling_csv.print();

    const auto sent = totals.sent.load();
    const auto ok = totals.ok.load();
    std::printf(
        "\nsummary: %llu requests, %llu ok, %llu dropped, %llu truncated, "
        "%llu non-200, %llu 429-retries, %.1f req/s over %.2f s\n",
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(totals.dropped.load()),
        static_cast<unsigned long long>(totals.truncated.load()),
        static_cast<unsigned long long>(totals.failed_status.load()),
        static_cast<unsigned long long>(totals.retries_429.load()),
        static_cast<double>(ok) / wall_seconds, wall_seconds);
    std::printf(
        "server: %llu solves, %llu cache hits, %llu misses, %llu solver "
        "generations, %llu rejected, queue peak %llu/%zu\n",
        static_cast<unsigned long long>(stats.solves),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.solver_generations),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.queue_peak),
        static_cast<std::size_t>(stats.queue_capacity));

    bool failed = false;
    if (totals.dropped.load() != 0 || totals.truncated.load() != 0) {
        std::fprintf(stderr,
                     "FAIL: dropped or truncated responses under load\n");
        failed = true;
    }
    if (sent > 0 && ok == 0) {
        std::fprintf(stderr, "FAIL: no successful requests\n");
        failed = true;
    }
    // The cache contract: after the handful of cold misses (at most a few
    // per shared handle, when concurrent first solves race), every
    // cache-keyed solve must be a hit that skipped solver generation.
    // Only meaningful once the workload is big enough to amortize.
    if (sent >= 100 &&
        (stats.cache_hits == 0 || stats.cache_misses > stats.cache_hits)) {
        std::fprintf(stderr, "FAIL: solver cache did not amortize\n");
        failed = true;
    }
    std::printf("attribution: %d requests, %llu kernels, request flops "
                "%.6g vs model flops %.6g (%.4f%% apart); tracing overhead "
                "%.3f%% (%.3g us traced vs %.3g us untraced per request)\n",
                attrib_served,
                static_cast<unsigned long long>(attrib_kernels),
                attrib_flops, model_flops, attrib_error_percent,
                overhead_percent, traced_ns * 1e-3, untraced_ns * 1e-3);
    if (missing_cost || attrib_served == 0) {
        std::fprintf(stderr, "FAIL: fully sampled solve responses must "
                             "carry a 'cost' block\n");
        failed = true;
    }
    if (!std::isfinite(attrib_error_percent) || attrib_error_percent > 1.0) {
        std::fprintf(stderr,
                     "FAIL: per-request flops drift %.4f%% from the work "
                     "model (budget 1%%)\n",
                     attrib_error_percent);
        failed = true;
    }
    if (!std::isfinite(overhead_percent) || overhead_percent > 3.0) {
        std::fprintf(stderr,
                     "FAIL: tracing overhead %.3f%% exceeds the 3%% "
                     "budget\n",
                     overhead_percent);
        failed = true;
    }
    std::printf("sampling: %d Hz cost %.3f%% per request (%.3g us sampled "
                "vs %.3g us unsampled), %llu samples captured\n",
                sampling_hz, sampling_overhead_percent, sampled_ns * 1e-3,
                unsampled_ns * 1e-3,
                static_cast<unsigned long long>(sampling_samples));
    if (!std::isfinite(sampling_overhead_percent) ||
        sampling_overhead_percent > 3.0) {
        std::fprintf(stderr,
                     "FAIL: sampling overhead %.3f%% at %d Hz exceeds the "
                     "3%% budget\n",
                     sampling_overhead_percent, sampling_hz);
        failed = true;
    }
    if (sampling_samples == 0) {
        std::fprintf(stderr,
                     "FAIL: the sampled arm captured zero samples\n");
        failed = true;
    }
    return failed ? 1 : 0;
}
