// The always-on tier's exposition half: TelemetryServer request routing,
// the live loopback endpoints (/healthz, /metrics, /profile.json,
// /trace.json) scraped over real sockets, and the process-wide
// telemetry_start/stop lifecycle with the executors it feeds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "log/trace_context.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "serve/telemetry_server.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


// A connected loopback socket to 127.0.0.1:port; -1 when refused.
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

// Everything the peer sends until it closes.
std::string recv_all(int fd)
{
    std::string response;
    char buffer[4096];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    return response;
}

// Sends `request` verbatim and returns the whole response; empty string
// when the connection is refused.
std::string http_send(int port, const std::string& request)
{
    const int fd = connect_loopback(port);
    if (fd < 0) {
        return {};
    }
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
    auto response = recv_all(fd);
    ::close(fd);
    return response;
}

// Blocking HTTP/1.0 GET against 127.0.0.1:port; empty string when the
// connection is refused.
std::string http_get(int port, const std::string& target)
{
    return http_send(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

std::string body_of(const std::string& response)
{
    const auto split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string{}
                                      : response.substr(split + 4);
}

// Generates some executor and binding traffic so the flight recorder and
// metrics registry have something to expose.
void generate_telemetry_events()
{
    auto exec = ReferenceExecutor::create();
    exec->add_logger(log::shared_metrics());
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(
            exec, test::laplacian_1d<double, int32>(16))};
    auto x = Dense<double>::create_filled(exec, dim2{16, 1}, 1.0);
    auto y = Dense<double>::create_filled(exec, dim2{16, 1}, 0.0);
    a->apply(x.get(), y.get());
}


// --- request routing (no sockets) ----------------------------------------

TEST(TelemetryRouting, HealthzAnswersOk)
{
    const auto response = serve::TelemetryServer::respond("GET", "/healthz", 0);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_EQ(body_of(response), "ok\n");
}

TEST(TelemetryRouting, MetricsIsNeverEmptyAndDeclaresPrometheusType)
{
    const auto response = serve::TelemetryServer::respond("GET", "/metrics", 3);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
    const auto body = body_of(response);
    // The server's own series guarantee a scrape always has samples.
    EXPECT_NE(body.find("mgko_flight_records_total"), std::string::npos);
    EXPECT_NE(body.find("mgko_flight_dropped_total"), std::string::npos);
    EXPECT_NE(body.find("mgko_telemetry_requests_total 3"), std::string::npos);
}

TEST(TelemetryRouting, ProfileAndTraceAreParseableJson)
{
    generate_telemetry_events();
    const auto profile =
        body_of(serve::TelemetryServer::respond("GET", "/profile.json", 0));
    EXPECT_TRUE(config::Json::parse(profile).contains("tags"));
    const auto trace =
        body_of(serve::TelemetryServer::respond("GET", "/trace.json", 0));
    auto doc = config::Json::parse(trace);
    ASSERT_TRUE(doc.contains("traceEvents"));
    EXPECT_FALSE(doc.at("traceEvents").elements().empty());
}

TEST(TelemetryRouting, MeasuredTierRoutesServeProfileAndFlamegraph)
{
    log::sampling_stop();
    log::sampling_reset();
    // Inactive sampling still answers well-formed (empty) exports.
    auto response =
        serve::TelemetryServer::respond("GET", "/profile_cpu.json", 0);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
    auto doc = config::Json::parse(body_of(response));
    EXPECT_EQ(doc.at("profile").as_string(), "cpu_samples");
    EXPECT_EQ(doc.at("hz").as_int(), 0);
    EXPECT_TRUE(doc.at("stacks").elements().empty());
    response = serve::TelemetryServer::respond("GET", "/flamegraph.txt", 0);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(response.find("text/plain"), std::string::npos);
    EXPECT_EQ(body_of(response), "");

    // With samples captured, both exports carry the tagged stacks.
    ASSERT_TRUE(log::sampling_start(997));
    volatile double sink = 1.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (log::sampling_samples() < 10 &&
           std::chrono::steady_clock::now() < deadline) {
        log::SampleFrame frame{"telemetry.unit"};
        for (int i = 0; i < 50000; ++i) {
            sink = sink * 1.0000001 + 1e-9;
        }
    }
    log::sampling_stop();
    doc = config::Json::parse(body_of(
        serve::TelemetryServer::respond("GET", "/profile_cpu.json", 0)));
    EXPECT_GT(doc.at("samples").as_int(), 0);
    ASSERT_FALSE(doc.at("stacks").elements().empty());
    const auto folded = body_of(
        serve::TelemetryServer::respond("GET", "/flamegraph.txt", 0));
    EXPECT_NE(folded.find("mgko;telemetry.unit "), std::string::npos);
    log::sampling_reset();
}

TEST(TelemetryRouting, MetricsCarryTheMeasuredTierSeries)
{
    log::hw_counters_enable("rusage");
    {
        log::HwCounterScope scope{"telemetry.scrape"};
        volatile double sink = 1.0;
        for (int i = 0; i < 200000; ++i) {
            sink = sink * 1.0000001 + 1e-9;
        }
    }
    const auto body =
        body_of(serve::TelemetryServer::respond("GET", "/metrics", 0));
    EXPECT_NE(body.find("mgko_hw_active 1"), std::string::npos);
    EXPECT_NE(body.find("mgko_hw_source{source=\"rusage\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("mgko_hw_cpu_ns_total{kernel=\"telemetry.scrape\"}"),
              std::string::npos);
    EXPECT_NE(body.find("mgko_sampling_hz "), std::string::npos);
    EXPECT_NE(body.find("mgko_sampling_samples_total "), std::string::npos);
    EXPECT_NE(body.find("mgko_sampling_dropped_total "), std::string::npos);
    log::hw_counters_disable();
    log::hw_counters_reset();
}

TEST(TelemetryRouting, UnknownTargetIs404AndNonGetIs405)
{
    EXPECT_NE(serve::TelemetryServer::respond("GET", "/nope", 0)
                  .find("HTTP/1.0 404"),
              std::string::npos);
    EXPECT_NE(serve::TelemetryServer::respond("POST", "/metrics", 0)
                  .find("HTTP/1.0 405"),
              std::string::npos);
}

TEST(TelemetryRouting, QueryStringsAreIgnored)
{
    const auto response =
        serve::TelemetryServer::respond("GET", "/healthz?probe=1", 0);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
}

TEST(TelemetryRouting, TraceIdFilterNarrowsTheDumpToOneRequest)
{
    // Events recorded under a known sampled context...
    log::TraceContext ctx;
    ctx.trace_high = 0x4bf92f3577b34da6ULL;
    ctx.trace_low = 0xa3ce929d0e0e4736ULL;
    ctx.span_id = 1;
    ctx.sampled = true;
    {
        log::TraceContextScope scope{ctx};
        generate_telemetry_events();
    }
    // ...and unrelated traffic with no context at all.
    generate_telemetry_events();

    const auto filtered = body_of(serve::TelemetryServer::respond(
        "GET", "/trace.json?trace_id=4bf92f3577b34da6a3ce929d0e0e4736",
        0));
    auto doc = config::Json::parse(filtered);
    const auto& events = doc.at("traceEvents").elements();
    ASSERT_FALSE(events.empty());
    for (const auto& event : events) {
        EXPECT_EQ(event.at("args").at("trace_id").as_string(),
                  "a3ce929d0e0e4736");
    }
    // The 16-hex low-word form (what records actually carry) selects the
    // same request.
    const auto low_form = body_of(serve::TelemetryServer::respond(
        "GET", "/trace.json?trace_id=a3ce929d0e0e4736", 0));
    EXPECT_EQ(config::Json::parse(low_form).at("traceEvents").size(),
              events.size());
}

TEST(TelemetryRouting, MalformedTraceIdFilterIsATypedJson400)
{
    const char* malformed[] = {
        "/trace.json?trace_id=zz",
        "/trace.json?trace_id=123",  // neither 16 nor 32 digits
        "/trace.json?trace_id=A3CE929D0E0E4736",  // uppercase
        "/trace.json?trace_id=a3ce929d0e0e473X",
        "/trace.json?trace_id=XYZ92f3577b34da6a3ce929d0e0e4736",
    };
    for (const char* target : malformed) {
        const auto response =
            serve::TelemetryServer::respond("GET", target, 0);
        EXPECT_NE(response.find("HTTP/1.0 400"), std::string::npos)
            << target;
        EXPECT_NE(body_of(response).find("\"error\""), std::string::npos)
            << target;
    }
}


// --- live loopback server -------------------------------------------------

TEST(TelemetryServer, ServesHealthzAndMetricsOverLoopback)
{
    auto server = serve::TelemetryServer::start(0);
    ASSERT_GT(server->port(), 0);
    const auto health = http_get(server->port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_EQ(body_of(health), "ok\n");
    generate_telemetry_events();
    const auto metrics = http_get(server->port(), "/metrics");
    EXPECT_NE(metrics.find("mgko_flight_records_total"), std::string::npos);
    EXPECT_GE(server->requests_served(), 2u);
    server->stop();
}

TEST(TelemetryServer, AssemblesRequestsArrivingOneByteAtATime)
{
    // Regression: the old serve_loop issued a single recv() and parsed
    // whatever that returned, so a request split across TCP segments was
    // served "" -> 404.  The shared reader must tolerate the worst case.
    auto server = serve::TelemetryServer::start(0);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
    for (const char c : request) {
        ASSERT_EQ(::send(fd, &c, 1, 0), 1);
        ::usleep(2000);
    }
    std::string response;
    char buffer[512];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_EQ(body_of(response), "ok\n");
    server->stop();
}

TEST(TelemetryServer, AnswersRequestTimeoutWhenHeadersNeverComplete)
{
    auto server = serve::TelemetryServer::start(0);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Half a request, then silence: the server must give up with 408
    // instead of pinning its serve loop forever.
    const std::string partial = "GET /healthz HT";
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    std::string response;
    char buffer[512];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    ::close(fd);
    EXPECT_NE(response.find("HTTP/1.0 408"), std::string::npos);
    server->stop();
}

TEST(TelemetryServer, ServesTraceJsonOverLoopback)
{
    generate_telemetry_events();
    auto server = serve::TelemetryServer::start(0);
    const auto response = http_get(server->port(), "/trace.json");
    EXPECT_NE(response.find("application/json"), std::string::npos);
    auto doc = config::Json::parse(body_of(response));
    ASSERT_TRUE(doc.contains("traceEvents"));
    EXPECT_FALSE(doc.at("traceEvents").elements().empty());
}

TEST(TelemetryServer, StopRefusesFurtherConnections)
{
    auto server = serve::TelemetryServer::start(0);
    const int port = server->port();
    EXPECT_FALSE(http_get(port, "/healthz").empty());
    server->stop();
    EXPECT_TRUE(http_get(port, "/healthz").empty());
    server->stop();  // idempotent
}

TEST(TelemetryServer, StopAnswersEveryConnectionInTheListenBacklog)
{
    // A scrape whose connect() returned may still sit in the kernel's
    // listen backlog when stop() runs; stop() must accept and answer it,
    // not close the listener on it (a reset instead of a response).
    constexpr int rounds = 100;
    constexpr int clients = 6;
    const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
    int lost_rounds = 0;
    int lost_connections = 0;
    for (int round = 0; round < rounds; ++round) {
        auto server = serve::TelemetryServer::start(0);
        std::vector<int> fds;
        for (int i = 0; i < clients; ++i) {
            const int fd = connect_loopback(server->port());
            if (fd >= 0) {
                EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
                          static_cast<ssize_t>(request.size()));
            }
            fds.push_back(fd);
        }
        server->stop();
        int lost = 0;
        for (const int fd : fds) {
            if (fd < 0 || !test::is_complete_http_response(recv_all(fd))) {
                ++lost;
            }
            if (fd >= 0) {
                ::close(fd);
            }
        }
        lost_rounds += lost > 0 ? 1 : 0;
        lost_connections += lost;
    }
    EXPECT_EQ(lost_connections, 0)
        << lost_connections << " of " << rounds * clients
        << " connections got no complete response, in " << lost_rounds
        << " of " << rounds << " rounds";
}

TEST(TelemetryServer, AnswersOversizedHeadersWith431AndAnyBodyWith413)
{
    auto server = serve::TelemetryServer::start(0);
    const auto headers = http_send(
        server->port(), "GET /healthz HTTP/1.0\r\nx-junk: " +
                            std::string(9 * 1024, 'j') + "\r\n\r\n");
    EXPECT_NE(headers.find("HTTP/1.0 431"), std::string::npos) << headers;
    // Scrapes carry no body: declaring one is a 413, not a header error.
    const auto body = http_send(
        server->port(),
        "GET /metrics HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello");
    EXPECT_NE(body.find("HTTP/1.0 413"), std::string::npos) << body;
    for (const auto& response : {headers, body}) {
        EXPECT_TRUE(
            config::Json::parse(body_of(response)).contains("error"));
    }
    EXPECT_EQ(server->requests_served(), 0u);
    server->stop();
}

TEST(TelemetryServer, AnswersRetryAfterPastSixteenQueuedScrapes)
{
    // Half a request pins the only worker until its 1000 ms read deadline
    // (then 408), so of 18 more scrapes at most 16 queue and the rest are
    // answered 429 + Retry-After at once instead of waiting in the kernel
    // backlog.  The listen backlog is SOMAXCONN deep, so no connect waits
    // for a SYN retransmit; a burst that a loaded machine still pushes past
    // the deadline proves nothing and is run again.
    const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
    for (int round = 0; round < 3; ++round) {
        auto server = serve::TelemetryServer::start(0);
        const int stalled = connect_loopback(server->port());
        ASSERT_GE(stalled, 0);
        const std::string partial = "GET /healthz HT";
        ASSERT_EQ(::send(stalled, partial.data(), partial.size(), 0),
                  static_cast<ssize_t>(partial.size()));
        const auto started = std::chrono::steady_clock::now();
        std::vector<int> scrapes;
        for (int i = 0; i < 18; ++i) {
            const int fd = connect_loopback(server->port());
            ASSERT_GE(fd, 0);
            ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
                      static_cast<ssize_t>(request.size()));
            scrapes.push_back(fd);
        }
        const bool in_window = std::chrono::steady_clock::now() - started <
                               std::chrono::milliseconds(500);
        int ok = 0;
        int rejected = 0;
        for (const int fd : scrapes) {
            const auto response = recv_all(fd);
            ::close(fd);
            EXPECT_TRUE(test::is_complete_http_response(response))
                << response;
            if (response.find("HTTP/1.0 200") == 0) {
                ++ok;
            } else if (response.find("HTTP/1.0 429") == 0) {
                EXPECT_NE(response.find("Retry-After: 1"), std::string::npos);
                ++rejected;
            }
        }
        EXPECT_NE(recv_all(stalled).find("HTTP/1.0 408"), std::string::npos);
        ::close(stalled);
        if (in_window) {
            EXPECT_GE(rejected, 2);
            EXPECT_EQ(ok + rejected, 18);
            return;
        }
    }
    FAIL() << "no burst of 18 scrapes finished within 500 ms";
}

TEST(TelemetryServer, TwoInstancesBindDistinctPorts)
{
    auto first = serve::TelemetryServer::start(0);
    auto second = serve::TelemetryServer::start(0);
    EXPECT_NE(first->port(), second->port());
    EXPECT_FALSE(http_get(first->port(), "/healthz").empty());
    EXPECT_FALSE(http_get(second->port(), "/healthz").empty());
}


// --- process-wide lifecycle ----------------------------------------------

TEST(TelemetryLifecycle, StartIsIdempotentAndStopTearsDown)
{
    ASSERT_FALSE(serve::telemetry_active());
    const int port = serve::telemetry_start(0);
    EXPECT_GT(port, 0);
    EXPECT_TRUE(serve::telemetry_active());
    EXPECT_EQ(serve::telemetry_port(), port);
    // A second start reports the running server instead of rebinding.
    EXPECT_EQ(serve::telemetry_start(0), port);
    EXPECT_FALSE(http_get(port, "/healthz").empty());
    serve::telemetry_stop();
    EXPECT_FALSE(serve::telemetry_active());
    EXPECT_EQ(serve::telemetry_port(), 0);
    EXPECT_TRUE(http_get(port, "/healthz").empty());
    serve::telemetry_stop();  // no-op
}

TEST(TelemetryLifecycle, ConflictingExplicitPortThrows)
{
    ASSERT_FALSE(serve::telemetry_active());
    const int port = serve::telemetry_start(0);
    // Port 0 means "any" and reports the running server; re-requesting the
    // bound port is consistent; a *different* explicit port is a
    // conflicting configuration and must not be silently ignored (the old
    // behavior handed back the running server on the wrong port).
    EXPECT_EQ(serve::telemetry_start(0), port);
    EXPECT_EQ(serve::telemetry_start(port), port);
    EXPECT_THROW(serve::telemetry_start(port == 65535 ? 1024 : port + 1),
                 BadParameter);
    // The running server survives the rejected rebind.
    EXPECT_TRUE(serve::telemetry_active());
    EXPECT_FALSE(http_get(port, "/healthz").empty());
    serve::telemetry_stop();
}

TEST(TelemetryLifecycle, BindingsControlTheSharedServer)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    const auto port = m.call("telemetry_start", {}).as_int();
    EXPECT_GT(port, 0);
    EXPECT_TRUE(serve::telemetry_active());
    EXPECT_FALSE(http_get(static_cast<int>(port), "/healthz").empty());
    m.call("telemetry_stop", {});
    EXPECT_FALSE(serve::telemetry_active());
}

TEST(TelemetryLifecycle, ExecutorsCreatedWhileLiveFeedSharedMetrics)
{
    ASSERT_FALSE(serve::telemetry_active());
    const auto feeds_shared_metrics = [](const Executor& exec) {
        for (const auto& logger : exec.get_loggers()) {
            if (logger.get() == log::shared_metrics().get()) {
                return true;
            }
        }
        return false;
    };
    serve::telemetry_start(0);
    auto live = ReferenceExecutor::create();
    EXPECT_TRUE(feeds_shared_metrics(*live));
    serve::telemetry_stop();
    auto after = ReferenceExecutor::create();
    EXPECT_FALSE(feeds_shared_metrics(*after));
}

TEST(TelemetryLifecycle, LiveProfileServesASolvesEvents)
{
    ASSERT_FALSE(serve::telemetry_active());
    const int port = serve::telemetry_start(0);
    auto exec = ReferenceExecutor::create();
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(
            exec, test::laplacian_1d<double, int32>(16))};
    auto solver = config::config_solver(
        config::Json::parse(R"({"type": "cg", "max_iters": 5})"), exec, a);
    auto b = Dense<double>::create_filled(exec, dim2{16, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{16, 1}, 0.0);
    solver->apply(b.get(), x.get());
    // The solve's events are visible through the live endpoint.
    const auto profile =
        config::Json::parse(body_of(http_get(port, "/profile.json")));
    ASSERT_TRUE(profile.contains("tags"));
    EXPECT_GT(profile.at("tags").size(), 0);
    serve::telemetry_stop();
}

TEST(TelemetryLifecycle, PortsOutsideTheTcpRangeAreRejected)
{
    // Unchecked, a cast to uint16_t wraps these onto real ports (70000
    // onto 4464, -1 onto 65535).
    for (const int port : {-1, 65536, 70000}) {
        EXPECT_THROW(serve::TelemetryServer::start(port), BadParameter)
            << port;
        EXPECT_THROW(serve::telemetry_start(port), BadParameter) << port;
        EXPECT_FALSE(serve::telemetry_active()) << port;
    }
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    EXPECT_THROW(m.call("telemetry_start", {bind::Value{70000}}),
                 BadParameter);
    EXPECT_FALSE(serve::telemetry_active());
}


// A thread still serving scrapes while the process exits (an env-started
// server keeps running through static destruction) must find the shared
// stores alive.  Runs in a fresh child because it ends the process.
void scrape_while_exiting()
{
    log::shared_metrics()->registry().inc_counter("mgko_events_total", "x");
    log::shared_flight_recorder()->on_pool_hit(nullptr, 64);
    std::thread{[] {
        for (;;) {
            serve::TelemetryServer::respond("GET", "/profile.json", 0);
            serve::TelemetryServer::respond("GET", "/trace.json", 0);
        }
    }}.detach();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::exit(0);
}

TEST(TelemetryLifecycleDeathTest, ScrapesDuringExitFindTheSharedStoresAlive)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(scrape_while_exiting(), ::testing::ExitedWithCode(0), "");
}

}  // namespace
