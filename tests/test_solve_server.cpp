// The solve-as-a-service layer: the hardened serve/http.hpp helpers
// (send_all under a tiny send buffer, request reassembly from arbitrary
// segmentation, read deadlines) and SolveServer itself — upload/solve
// round trips over loopback, the (operator, config) solver cache with LRU
// eviction, 429 backpressure under a stalled worker pool, graceful drain,
// configs that try to flip process-wide switches, and the process-wide
// lifecycle including the environment-driven start.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "log/trace_context.hpp"
#include "matrix/csr.hpp"
#include "serve/http.hpp"
#include "serve/solve_server.hpp"
#include "serve/telemetry_server.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;
using config::Json;


// --- tiny blocking HTTP/1.0 client ----------------------------------------

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

std::string recv_all(int fd)
{
    std::string response;
    char buffer[8192];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    return response;
}

std::string http_request(int port, const std::string& method,
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
    auto response = recv_all(fd);
    ::close(fd);
    return response;
}

int status_of(const std::string& response)
{
    // "HTTP/1.0 NNN ..."
    return response.size() > 12 ? std::atoi(response.c_str() + 9) : -1;
}

std::string header_of(const std::string& response, const std::string& name)
{
    const auto head = response.substr(0, response.find("\r\n\r\n"));
    const auto key = name + ": ";
    auto pos = head.find(key);
    if (pos == std::string::npos) {
        return {};
    }
    pos += key.size();
    return head.substr(pos, head.find("\r\n", pos) - pos);
}

std::string body_of(const std::string& response)
{
    const auto split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string{}
                                      : response.substr(split + 4);
}


// --- payload builders ------------------------------------------------------

/// 1D Laplacian as the triplet upload payload.
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
    config["max_iters"] = Json{std::int64_t{200}};
    config["reduction_factor"] = Json{1e-10};
    return config;
}

std::string upload_laplacian(int port, int n)
{
    Json payload = Json::make_object();
    payload["triplet"] = laplacian_triplet(n);
    const auto response =
        http_request(port, "POST", "/v1/operators", payload.dump());
    EXPECT_EQ(status_of(response), 200) << response;
    return Json::parse(body_of(response)).at("operator").as_string();
}


// --- serve/http.hpp helpers ------------------------------------------------

TEST(HttpHelpers, SendAllSurvivesATinySendBuffer)
{
    // Regression: the old send_all treated EAGAIN as fatal, so a response
    // larger than the socket's send buffer was silently truncated the
    // moment the buffer filled.  With a deliberately tiny SO_SNDBUF and a
    // slow reader, every EAGAIN must be waited out instead.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int sndbuf = 4096;
    ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)),
              0);
    ASSERT_TRUE(serve::set_nonblocking(fds[0]));
    const std::string payload(512 * 1024, 'x');
    std::string received;
    std::thread reader{[&] {
        char buffer[1024];
        ssize_t n;
        while ((n = ::recv(fds[1], buffer, sizeof(buffer), 0)) > 0) {
            received.append(buffer, static_cast<std::size_t>(n));
            ::usleep(100);  // drain slower than the writer fills
        }
    }};
    EXPECT_TRUE(serve::send_all(fds[0], payload, 30000));
    ::shutdown(fds[0], SHUT_WR);
    reader.join();
    ::close(fds[0]);
    ::close(fds[1]);
    EXPECT_EQ(received.size(), payload.size());
    EXPECT_EQ(received, payload);
}

TEST(HttpHelpers, SendAllSurfacesABrokenPeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(serve::set_nonblocking(fds[0]));
    ::close(fds[1]);
    EXPECT_FALSE(serve::send_all(fds[0], std::string(64 * 1024, 'x'), 1000));
    ::close(fds[0]);
}

TEST(HttpHelpers, ReassemblesAByteByByteRequest)
{
    // Regression: the pre-fix server parsed whatever one recv() returned.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(serve::set_nonblocking(fds[0]));
    const std::string request =
        "POST /v1/solve HTTP/1.0\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: 5\r\n"
        "\r\n"
        "hello";
    std::thread writer{[&] {
        for (const char c : request) {
            ASSERT_EQ(::send(fds[1], &c, 1, 0), 1);
            ::usleep(500);
        }
    }};
    serve::HttpRequest parsed;
    const auto result =
        serve::read_http_request(fds[0], parsed, 8 * 1024, 1024, 10000);
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_EQ(result, serve::read_result::ok)
        << serve::to_string(result);
    EXPECT_EQ(parsed.method, "POST");
    EXPECT_EQ(parsed.target, "/v1/solve");
    EXPECT_EQ(parsed.header("content-type"), "application/json");
    EXPECT_EQ(parsed.body, "hello");
}

TEST(HttpHelpers, ReportsTimeoutWhenTheTerminatorNeverArrives)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(serve::set_nonblocking(fds[0]));
    const std::string partial = "GET /x HTTP/1.0\r\n";
    ASSERT_EQ(::send(fds[1], partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    serve::HttpRequest parsed;
    EXPECT_EQ(serve::read_http_request(fds[0], parsed, 8 * 1024, 0, 100),
              serve::read_result::timeout);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(HttpHelpers, BoundsTheHeaderBlockAndTheBody)
{
    // The two bounds fail differently, so servers can answer 431 for the
    // header block and 413 for the body.
    const auto read_after = [](const std::string& bytes,
                               std::size_t max_body_bytes) {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        EXPECT_TRUE(serve::set_nonblocking(fds[0]));
        EXPECT_GT(::send(fds[1], bytes.data(), bytes.size(), 0), 0);
        serve::HttpRequest parsed;
        const auto result = serve::read_http_request(fds[0], parsed, 1024,
                                                     max_body_bytes, 1000);
        ::close(fds[0]);
        ::close(fds[1]);
        return result;
    };
    EXPECT_EQ(read_after("GET /x HTTP/1.0\r\nx-junk: " +
                             std::string(16 * 1024, 'j'),
                         0),
              serve::read_result::header_too_large);
    // A complete header block that is still too long.
    EXPECT_EQ(read_after("GET /x HTTP/1.0\r\nx-junk: " +
                             std::string(1100, 'j') + "\r\n\r\n",
                         0),
              serve::read_result::header_too_large);
    EXPECT_EQ(read_after("POST /x HTTP/1.0\r\nContent-Length: 999999\r\n\r\n",
                         1024),
              serve::read_result::body_too_large);
    // With no body allowed, any declared body is too large...
    EXPECT_EQ(read_after("POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello",
                         0),
              serve::read_result::body_too_large);
    // ...but an empty one is fine.
    EXPECT_EQ(read_after("GET /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 0),
              serve::read_result::ok);
}

TEST(HttpHelpers, ConcurrentClientsEachGetTheirFullResponse)
{
    // The helpers are per-connection state machines with no shared state;
    // hammer one server from many threads and require byte-exact replies.
    serve::SolveServerOptions options;
    options.num_workers = 4;
    options.queue_capacity = 256;
    auto server = serve::SolveServer::start(std::move(options));
    constexpr int num_threads = 8;
    constexpr int per_thread = 25;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                const auto target =
                    (t + i) % 2 == 0 ? "/healthz" : "/v1/stats";
                const auto response =
                    http_request(server->port(), "GET", target, "");
                if (status_of(response) == 200 &&
                    response.find("Content-Length:") != std::string::npos &&
                    !body_of(response).empty()) {
                    ok.fetch_add(1);
                }
            }
        });
    }
    for (auto& c : clients) {
        c.join();
    }
    EXPECT_EQ(ok.load(), num_threads * per_thread);
    server->stop();
}


// --- SolveServer routing and solving ---------------------------------------

TEST(SolveServer, UploadSolveRoundTripOverLoopback)
{
    auto server = serve::SolveServer::start({});
    ASSERT_GT(server->port(), 0);
    const auto handle = upload_laplacian(server->port(), 32);
    EXPECT_EQ(handle.rfind("op-", 0), 0u);

    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();
    const auto response =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    ASSERT_EQ(status_of(response), 200) << response;
    const auto result = Json::parse(body_of(response));
    EXPECT_TRUE(result.at("converged").as_bool());
    EXPECT_GT(result.at("iterations").as_int(), 0);
    EXPECT_EQ(result.at("cache").as_string(), "miss");
    ASSERT_EQ(result.at("x").size(), 32u);
    // A*x = b with b = ones: check the first interior residual row.
    const auto& x = result.at("x").elements();
    const double r1 = -x[0].as_double() + 2.0 * x[1].as_double() -
                      x[2].as_double();
    EXPECT_NEAR(r1, 1.0, 1e-6);
    server->stop();
}

TEST(SolveServer, CacheHitSkipsRegeneration)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 24);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();

    const auto first =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    ASSERT_EQ(status_of(first), 200) << first;
    EXPECT_EQ(Json::parse(body_of(first)).at("cache").as_string(), "miss");
    const auto second =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    ASSERT_EQ(status_of(second), 200) << second;
    EXPECT_EQ(Json::parse(body_of(second)).at("cache").as_string(), "hit");

    // The cache's reason to exist: one generation, many solves.
    const auto stats = server->stats();
    EXPECT_EQ(stats.solver_generations, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.solves, 2u);
    server->stop();
}

TEST(SolveServer, InlineMatrixSolvesWithoutCaching)
{
    auto server = serve::SolveServer::start({});
    Json solve = Json::make_object();
    solve["triplet"] = laplacian_triplet(8);
    solve["config"] = cg_config();
    const auto response =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    ASSERT_EQ(status_of(response), 200) << response;
    EXPECT_EQ(Json::parse(body_of(response)).at("cache").as_string(),
              "inline");
    EXPECT_EQ(server->stats().cache_operators, 0u);
    server->stop();
}

TEST(SolveServer, MtxUploadAndCustomRhs)
{
    auto server = serve::SolveServer::start({});
    std::ostringstream mtx;
    mtx << "%%MatrixMarket matrix coordinate real general\n"
        << "2 2 2\n"
        << "1 1 2.0\n"
        << "2 2 4.0\n";
    Json upload = Json::make_object();
    upload["mtx"] = Json{mtx.str()};
    const auto uploaded = http_request(server->port(), "POST",
                                       "/v1/operators", upload.dump());
    ASSERT_EQ(status_of(uploaded), 200) << uploaded;
    const auto parsed = Json::parse(body_of(uploaded));
    EXPECT_EQ(parsed.at("rows").as_int(), 2);
    EXPECT_EQ(parsed.at("nnz").as_int(), 2);

    Json solve = Json::make_object();
    solve["operator"] = parsed.at("operator");
    solve["config"] = cg_config();
    Json b = Json::make_array();
    b.push_back(Json{4.0});
    b.push_back(Json{8.0});
    solve["b"] = std::move(b);
    const auto response =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    ASSERT_EQ(status_of(response), 200) << response;
    const auto result = Json::parse(body_of(response));
    const auto& x = result.at("x").elements();
    EXPECT_NEAR(x[0].as_double(), 2.0, 1e-8);
    EXPECT_NEAR(x[1].as_double(), 2.0, 1e-8);
    server->stop();
}

TEST(SolveServer, RoutingErrorsAreTypedJson)
{
    // handle() is exposed precisely so error paths need no sockets.
    auto server = serve::SolveServer::start({});
    serve::HttpRequest request;
    request.method = "GET";
    request.target = "/nope";
    EXPECT_NE(server->handle(request).find("HTTP/1.0 404"),
              std::string::npos);
    request.target = "/v1/solve";  // GET on a POST-only route
    EXPECT_NE(server->handle(request).find("HTTP/1.0 405"),
              std::string::npos);
    request.method = "POST";
    request.body = "this is not json";
    const auto malformed = server->handle(request);
    EXPECT_NE(malformed.find("HTTP/1.0 400"), std::string::npos);
    EXPECT_NE(body_of(malformed).find("error"), std::string::npos);
    request.body = "{\"config\": {\"type\": \"solver::Cg\"}}";
    EXPECT_NE(server->handle(request).find("HTTP/1.0 400"),
              std::string::npos);  // no operator, no matrix, no criteria
    server->stop();
}

TEST(SolveServer, UnknownOperatorHandleIs404)
{
    auto server = serve::SolveServer::start({});
    Json solve = Json::make_object();
    solve["operator"] = Json{"op-999"};
    solve["config"] = cg_config();
    const auto response =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    EXPECT_EQ(status_of(response), 404) << response;
    server->stop();
}

TEST(SolveServer, StatsAndMetricsExposeTraffic)
{
    auto server = serve::SolveServer::start({});
    upload_laplacian(server->port(), 16);
    const auto stats_response =
        http_request(server->port(), "GET", "/v1/stats", "");
    ASSERT_EQ(status_of(stats_response), 200);
    const auto stats = Json::parse(body_of(stats_response));
    EXPECT_GE(stats.at("requests_total").as_int(), 1);
    EXPECT_EQ(stats.at("uploads").as_int(), 1);
    EXPECT_EQ(stats.at("cache").at("operators").as_int(), 1);
    EXPECT_GT(stats.at("cache").at("bytes").as_int(), 0);
    const auto metrics = body_of(
        http_request(server->port(), "GET", "/metrics", ""));
    EXPECT_NE(metrics.find("mgko_solve_requests_served_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("mgko_solve_cache_bytes"), std::string::npos);
    server->stop();
}


// --- request-scoped tracing ------------------------------------------------

constexpr const char* kTraceparent =
    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
constexpr const char* kTraceId = "4bf92f3577b34da6a3ce929d0e0e4736";

TEST(SolveServerTracing, AdoptsTheCallersTraceIdAndEchoesIt)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 16);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();

    const auto response = http_request(
        server->port(), "POST", "/v1/solve", solve.dump(),
        std::string{"traceparent: "} + kTraceparent + "\r\n");
    ASSERT_EQ(status_of(response), 200) << response;

    // The echo carries the caller's trace id under a span of our own.
    const auto echoed = header_of(response, "traceparent");
    ASSERT_EQ(echoed.size(), 55u) << echoed;
    EXPECT_EQ(echoed.substr(3, 32), kTraceId);
    EXPECT_NE(echoed.substr(36, 16), "00f067aa0ba902b7");
    EXPECT_EQ(echoed.substr(53), "01");  // sampled flag adopted

    // Sampled requests answer with the attribution block, tagged with the
    // same trace id.
    const auto result = Json::parse(body_of(response));
    ASSERT_TRUE(result.contains("cost")) << body_of(response);
    const auto& cost = result.at("cost");
    EXPECT_EQ(cost.at("trace_id").as_string(), kTraceId);
    EXPECT_GT(cost.at("flops").as_double(), 0.0);
    EXPECT_GT(cost.at("kernels").as_int(), 0);
    EXPECT_GT(cost.at("per_kernel").size(), 0u);
    double breakdown_flops = 0.0;
    for (const auto& [name, slice] : cost.at("per_kernel").items()) {
        (void)name;
        EXPECT_GT(slice.at("count").as_int(), 0);
        breakdown_flops += slice.at("flops").as_double();
    }
    EXPECT_NEAR(breakdown_flops, cost.at("flops").as_double(),
                1e-6 * cost.at("flops").as_double() + 1e-9);
    server->stop();
}

TEST(SolveServer, DivergingSolveAnswersParseableJsonFlaggedNonFinite)
{
    auto server = serve::SolveServer::start({});
    // IR with relaxation 5 on the Laplacian (eigenvalues up to ~4) blows
    // up to inf/nan; the sampled trace adds the hand-written cost block.
    Json ir = Json::make_object();
    ir["type"] = Json{"solver::Ir"};
    ir["relaxation_factor"] = Json{5.0};
    ir["max_iters"] = Json{std::int64_t{2000}};
    ir["reduction_factor"] = Json{1e-10};
    Json solve = Json::make_object();
    solve["triplet"] = laplacian_triplet(16);
    solve["config"] = ir;
    const auto header = std::string{"traceparent: "} + kTraceparent + "\r\n";
    const auto diverged = http_request(server->port(), "POST", "/v1/solve",
                                       solve.dump(), header);
    ASSERT_EQ(status_of(diverged), 200) << diverged;
    Json result;
    ASSERT_NO_THROW(result = Json::parse(body_of(diverged)))
        << body_of(diverged);
    EXPECT_TRUE(result.at("non_finite").as_bool());
    EXPECT_FALSE(result.at("converged").as_bool());
    EXPECT_TRUE(result.at("residual_norm").is_null());
    EXPECT_TRUE(result.contains("cost"));

    solve["config"] = cg_config();
    const auto converged = http_request(server->port(), "POST", "/v1/solve",
                                        solve.dump(), header);
    ASSERT_EQ(status_of(converged), 200) << converged;
    EXPECT_FALSE(Json::parse(body_of(converged)).contains("non_finite"));
    server->stop();
}

TEST(SolveServerTracing, UnsampledCallerContextSkipsTheCostBlock)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 16);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();

    // Same trace id, sampled flag 00: adopted as-is per W3C, so no
    // attribution is collected for this request.
    const auto response = http_request(
        server->port(), "POST", "/v1/solve", solve.dump(),
        std::string{"traceparent: 00-"} + kTraceId +
            "-00f067aa0ba902b7-00\r\n");
    ASSERT_EQ(status_of(response), 200) << response;
    const auto echoed = header_of(response, "traceparent");
    ASSERT_EQ(echoed.size(), 55u);
    EXPECT_EQ(echoed.substr(3, 32), kTraceId);
    EXPECT_EQ(echoed.substr(53), "00");
    EXPECT_FALSE(Json::parse(body_of(response)).contains("cost"));
    server->stop();
}

TEST(SolveServerTracing, MalformedTraceparentIsIgnoredNeverRejected)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 8);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();

    const char* malformed[] = {
        "traceparent: not-a-traceparent\r\n",
        "traceparent: 01-4bf92f3577b34da6a3ce929d0e0e4736-"
        "00f067aa0ba902b7-01\r\n",
        "traceparent: 00-00000000000000000000000000000000-"
        "00f067aa0ba902b7-01\r\n",
        "traceparent: 00-4BF92F3577B34DA6A3CE929D0E0E4736-"
        "00f067aa0ba902b7-01\r\n",
    };
    for (const char* header : malformed) {
        const auto response = http_request(server->port(), "POST",
                                           "/v1/solve", solve.dump(), header);
        // Never a client error: the header is dropped and a fresh context
        // minted, so the response still echoes a *valid* traceparent with
        // a different trace id.
        ASSERT_EQ(status_of(response), 200) << header << response;
        const auto echoed = header_of(response, "traceparent");
        ASSERT_EQ(echoed.size(), 55u) << header;
        EXPECT_TRUE(serve::parse_traceparent(echoed).valid()) << echoed;
        EXPECT_NE(echoed.substr(3, 32), kTraceId);
        EXPECT_NE(echoed.substr(3, 32),
                  "00000000000000000000000000000000");
    }
    server->stop();
}

TEST(SolveServerTracing, EveryRouteEchoesATraceparent)
{
    auto server = serve::SolveServer::start({});
    for (const char* target : {"/healthz", "/v1/stats", "/v1/requests",
                               "/metrics", "/definitely-not-a-route"}) {
        const auto response =
            http_request(server->port(), "GET", target, "");
        const auto echoed = header_of(response, "traceparent");
        EXPECT_EQ(echoed.size(), 55u) << target;
        EXPECT_TRUE(serve::parse_traceparent(echoed).valid()) << target;
    }
    server->stop();
}

TEST(SolveServerTracing, CostBlockCountsAreExact)
{
    // 300 CG iterations on a 2000-point Laplacian: 301 csr_spmv calls of
    // 2 * 5998 flops each, 3,610,796 in all, which six significant digits
    // cannot hold.
    auto server = serve::SolveServer::start({});
    constexpr int n = 2000;
    Json config = cg_config();
    config["max_iters"] = Json{std::int64_t{300}};
    config["reduction_factor"] = Json{1e-30};
    Json solve = Json::make_object();
    solve["triplet"] = laplacian_triplet(n);
    solve["config"] = config;
    const auto response = http_request(
        server->port(), "POST", "/v1/solve", solve.dump(),
        std::string{"traceparent: "} + kTraceparent + "\r\n");
    ASSERT_EQ(status_of(response), 200) << response;
    const auto result = Json::parse(body_of(response));
    const auto& spmv = result.at("cost").at("per_kernel").at("csr_spmv");
    const std::int64_t nnz = 3 * n - 2;
    EXPECT_EQ(spmv.at("count").as_int(), 301);
    EXPECT_EQ(spmv.at("flops").as_double(),
              static_cast<double>(spmv.at("count").as_int() * 2 * nnz))
        << body_of(response);
    server->stop();
}

TEST(SolveServerTracing, RecentRequestsRingExposesPerRequestSummaries)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 16);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();
    const auto solved = http_request(
        server->port(), "POST", "/v1/solve", solve.dump(),
        std::string{"traceparent: "} + kTraceparent + "\r\n");
    ASSERT_EQ(status_of(solved), 200);

    const auto response =
        http_request(server->port(), "GET", "/v1/requests", "");
    ASSERT_EQ(status_of(response), 200) << response;
    const auto doc = Json::parse(body_of(response));
    EXPECT_GT(doc.at("capacity").as_int(), 0);
    const auto& requests = doc.at("requests").elements();
    ASSERT_GE(requests.size(), 2u);  // the upload and the solve at least
    bool found_solve = false;
    for (const auto& entry : requests) {
        EXPECT_EQ(entry.at("trace_id").as_string().size(), 32u);
        EXPECT_GT(entry.at("wall_ns").as_double(), 0.0);
        if (entry.at("trace_id").as_string() == kTraceId) {
            found_solve = true;
            EXPECT_EQ(entry.at("route").as_string(), "serve.solve");
            EXPECT_EQ(entry.at("status").as_int(), 200);
            EXPECT_TRUE(entry.at("sampled").as_bool());
            EXPECT_GT(entry.at("flops").as_double(), 0.0);
            EXPECT_GT(entry.at("kernels").as_int(), 0);
        }
    }
    EXPECT_TRUE(found_solve) << body_of(response);
    // The ring is GET-only.
    EXPECT_EQ(status_of(http_request(server->port(), "POST",
                                     "/v1/requests", "{}")),
              405);
    server->stop();
}

TEST(SolveServerTracing, RequestsRingHonorsLimitAndTraceFilters)
{
    auto server = serve::SolveServer::start({});
    const auto handle = upload_laplacian(server->port(), 16);
    Json solve = Json::make_object();
    solve["operator"] = Json{handle};
    solve["config"] = cg_config();
    ASSERT_EQ(status_of(http_request(
                  server->port(), "POST", "/v1/solve", solve.dump(),
                  std::string{"traceparent: "} + kTraceparent + "\r\n")),
              200);
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(status_of(http_request(server->port(), "GET", "/v1/stats",
                                         "")),
                  200);
    }

    // ?limit=N keeps the N most recent summaries.
    auto response =
        http_request(server->port(), "GET", "/v1/requests?limit=2", "");
    ASSERT_EQ(status_of(response), 200) << response;
    auto doc = Json::parse(body_of(response));
    EXPECT_EQ(doc.at("requests").elements().size(), 2u);
    for (const auto& entry : doc.at("requests").elements()) {
        EXPECT_EQ(entry.at("route").as_string(), "serve.stats");
    }

    // ?trace_id= selects by W3C trace id, full 32-hex or last-16 forms.
    for (const auto& filter :
         {std::string{kTraceId}, std::string{kTraceId}.substr(16)}) {
        response = http_request(server->port(), "GET",
                                "/v1/requests?trace_id=" + filter, "");
        ASSERT_EQ(status_of(response), 200) << response;
        doc = Json::parse(body_of(response));
        const auto& matched = doc.at("requests").elements();
        ASSERT_EQ(matched.size(), 1u) << filter;
        EXPECT_EQ(matched[0].at("trace_id").as_string(), kTraceId);
        EXPECT_EQ(matched[0].at("route").as_string(), "serve.solve");
    }

    // Filters compose; a trace id with no matches is an empty selection,
    // not an error.
    response = http_request(
        server->port(), "GET",
        std::string{"/v1/requests?limit=1&trace_id="} + kTraceId, "");
    ASSERT_EQ(status_of(response), 200) << response;
    EXPECT_EQ(Json::parse(body_of(response)).at("requests").elements().size(),
              1u);
    response = http_request(server->port(), "GET",
                            "/v1/requests?trace_id=ffffffffffffffff", "");
    ASSERT_EQ(status_of(response), 200) << response;
    EXPECT_TRUE(
        Json::parse(body_of(response)).at("requests").elements().empty());

    // Malformed filters answer typed 400s, never a truncated default view.
    for (const char* bad : {"/v1/requests?limit=0", "/v1/requests?limit=999",
                            "/v1/requests?limit=abc",
                            "/v1/requests?limit=-3"}) {
        response = http_request(server->port(), "GET", bad, "");
        EXPECT_EQ(status_of(response), 400) << bad << response;
        EXPECT_NE(body_of(response).find(
                      "limit must be an integer in [1, 256]"),
                  std::string::npos)
            << bad;
    }
    for (const char* bad :
         {"/v1/requests?trace_id=xyz",
          "/v1/requests?trace_id=4BF92F3577B34DA6",
          "/v1/requests?trace_id=4bf92f3577b34da6a3"}) {
        response = http_request(server->port(), "GET", bad, "");
        EXPECT_EQ(status_of(response), 400) << bad << response;
        EXPECT_NE(body_of(response).find(
                      "trace_id must be 16 or 32 lowercase hex characters"),
                  std::string::npos)
            << bad;
    }
    server->stop();
}


// --- cache eviction --------------------------------------------------------

TEST(SolveServer, EvictsLeastRecentlyUsedOperatorsBeyondTheByteBudget)
{
    serve::SolveServerOptions options;
    // Each 64-point Laplacian stages ~190 entries * 24 B + 1 KiB of
    // bookkeeping ~= 5.5 KiB; a 12 KiB budget holds two at most.
    options.cache_capacity_bytes = 12 * 1024;
    auto server = serve::SolveServer::start(std::move(options));
    const auto first = upload_laplacian(server->port(), 64);
    const auto second = upload_laplacian(server->port(), 64);
    // Touch the first so the second becomes the LRU victim.
    Json solve = Json::make_object();
    solve["operator"] = Json{first};
    solve["config"] = cg_config();
    ASSERT_EQ(status_of(http_request(server->port(), "POST", "/v1/solve",
                                     solve.dump())),
              200);
    const auto third = upload_laplacian(server->port(), 64);
    const auto stats = server->stats();
    EXPECT_GE(stats.cache_evictions, 1u);
    EXPECT_LE(stats.cache_operators, 2u);

    // The evicted handle answers 404; the survivors still solve.
    solve["operator"] = Json{second};
    EXPECT_EQ(status_of(http_request(server->port(), "POST", "/v1/solve",
                                     solve.dump())),
              404);
    solve["operator"] = Json{third};
    EXPECT_EQ(status_of(http_request(server->port(), "POST", "/v1/solve",
                                     solve.dump())),
              200);
    server->stop();
}


// --- backpressure and graceful drain ---------------------------------------

class WorkerStall {
public:
    void maybe_block()
    {
        std::unique_lock<std::mutex> lock{mutex_};
        ++entered_;
        entered_cv_.notify_all();
        release_cv_.wait(lock, [this] { return !stalled_; });
    }

    /// Blocks until `count` workers have entered the stall.
    void await_entered(int count)
    {
        std::unique_lock<std::mutex> lock{mutex_};
        entered_cv_.wait(lock, [&] { return entered_ >= count; });
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock{mutex_};
            stalled_ = false;
        }
        release_cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable entered_cv_;
    std::condition_variable release_cv_;
    int entered_{0};
    bool stalled_{true};
};

TEST(SolveServer, AnswersRetryAfterWhenTheQueueIsFull)
{
    auto stall = std::make_shared<WorkerStall>();
    serve::SolveServerOptions options;
    options.num_workers = 1;
    options.queue_capacity = 1;
    options.worker_test_hook = [stall] { stall->maybe_block(); };
    auto server = serve::SolveServer::start(std::move(options));

    // First client occupies the only worker (stalled in the hook)...
    const int busy = connect_loopback(server->port());
    ASSERT_GE(busy, 0);
    const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(busy, request.data(), request.size(), 0), 0);
    stall->await_entered(1);
    // ...the second fills the queue...
    const int queued = connect_loopback(server->port());
    ASSERT_GE(queued, 0);
    ASSERT_GT(::send(queued, request.data(), request.size(), 0), 0);
    // ...and with worker busy + queue full, the next must be turned away
    // immediately with 429 and a Retry-After hint, not left hanging.
    const auto rejected =
        http_request(server->port(), "GET", "/healthz", "");
    EXPECT_EQ(status_of(rejected), 429) << rejected;
    EXPECT_NE(rejected.find("Retry-After:"), std::string::npos);

    stall->release();
    EXPECT_NE(recv_all(busy).find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(recv_all(queued).find("HTTP/1.0 200"), std::string::npos);
    ::close(busy);
    ::close(queued);
    const auto stats = server->stats();
    EXPECT_GE(stats.rejected, 1u);
    EXPECT_GE(stats.queue_peak, 1u);
    server->stop();
}

TEST(SolveServer, StopDrainsQueuedAndInFlightRequests)
{
    auto stall = std::make_shared<WorkerStall>();
    serve::SolveServerOptions options;
    options.num_workers = 1;
    options.queue_capacity = 8;
    options.worker_test_hook = [stall] { stall->maybe_block(); };
    auto server = serve::SolveServer::start(std::move(options));

    const int in_flight = connect_loopback(server->port());
    const int queued = connect_loopback(server->port());
    ASSERT_GE(in_flight, 0);
    ASSERT_GE(queued, 0);
    const std::string request = "GET /v1/stats HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(in_flight, request.data(), request.size(), 0), 0);
    stall->await_entered(1);
    ASSERT_GT(::send(queued, request.data(), request.size(), 0), 0);

    // stop() must not abandon either connection: it stops accepting, then
    // waits for the pool to drain both before returning.
    std::thread stopper{[&] { server->stop(); }};
    stall->release();
    stopper.join();
    EXPECT_NE(recv_all(in_flight).find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(recv_all(queued).find("HTTP/1.0 200"), std::string::npos);
    ::close(in_flight);
    ::close(queued);
    // New connections are refused after stop.
    EXPECT_EQ(http_request(server->port(), "GET", "/healthz", ""), "");
}

/// Opens `clients` connections to `port`, sends `request` on each, calls
/// `stop()` at once and returns how many connections got no complete
/// HTTP response.
int lost_at_stop(int port, int clients, const std::string& request,
                 const std::function<void()>& stop)
{
    std::vector<int> fds;
    for (int i = 0; i < clients; ++i) {
        const int fd = connect_loopback(port);
        if (fd >= 0) {
            EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
                      static_cast<ssize_t>(request.size()));
        }
        fds.push_back(fd);
    }
    stop();
    int lost = 0;
    for (const int fd : fds) {
        if (fd < 0 || !test::is_complete_http_response(recv_all(fd))) {
            ++lost;
        }
        if (fd >= 0) {
            ::close(fd);
        }
    }
    return lost;
}

TEST(SolveServer, StopAnswersEveryConnectionInTheListenBacklog)
{
    // A client whose connect() returned may still sit in the kernel's
    // listen backlog when stop() runs; stop() must accept and answer it,
    // not close the listener on it (a reset instead of a response).
    constexpr int rounds = 100;
    constexpr int clients = 6;
    int lost_rounds = 0;
    int lost_connections = 0;
    for (int round = 0; round < rounds; ++round) {
        serve::SolveServerOptions options;
        options.num_workers = 1;
        auto server = serve::SolveServer::start(std::move(options));
        const int lost =
            lost_at_stop(server->port(), clients,
                         "GET /healthz HTTP/1.0\r\n\r\n",
                         [&server] { server->stop(); });
        lost_rounds += lost > 0 ? 1 : 0;
        lost_connections += lost;
    }
    EXPECT_EQ(lost_connections, 0)
        << lost_connections << " of " << rounds * clients
        << " connections got no complete response, in " << lost_rounds
        << " of " << rounds << " rounds";
}

TEST(SolveServer, AnswersOversizedHeadersWith431AndOversizedBodiesWith413)
{
    serve::SolveServerOptions options;
    options.max_body_bytes = 1024;
    auto server = serve::SolveServer::start(std::move(options));
    const auto headers =
        http_request(server->port(), "GET", "/healthz", "",
                     "x-junk: " + std::string(9 * 1024, 'j') + "\r\n");
    EXPECT_EQ(status_of(headers), 431) << headers;
    const auto body = http_request(server->port(), "POST", "/v1/solve",
                                   std::string(4096, 'b'));
    EXPECT_EQ(status_of(body), 413) << body;
    for (const auto& response : {headers, body}) {
        EXPECT_TRUE(Json::parse(body_of(response)).contains("error"));
        // Refusals echo a traceparent like every routed response.
        EXPECT_TRUE(
            serve::parse_traceparent(header_of(response, "traceparent"))
                .valid())
            << response;
    }
    server->stop();
    const auto stats = server->stats();
    EXPECT_EQ(stats.requests_total, 2u);
    EXPECT_EQ(stats.client_errors, 2u);
}

TEST(SolveServer, ReadyzDistinguishesAcceptingDrainingAndStopped)
{
    auto stall = std::make_shared<WorkerStall>();
    serve::SolveServerOptions options;
    options.num_workers = 1;
    options.queue_capacity = 8;
    options.worker_test_hook = [stall] { stall->maybe_block(); };
    auto server = serve::SolveServer::start(std::move(options));

    // Accepting: readiness and liveness agree.  All probes go through
    // handle() directly — the stall hook pauses every *worker*, so
    // socket-borne probes would just park in the queue.
    serve::HttpRequest readyz;
    readyz.method = "GET";
    readyz.target = "/readyz";
    serve::HttpRequest healthz;
    healthz.method = "GET";
    healthz.target = "/healthz";
    auto response = server->handle(readyz);
    ASSERT_EQ(status_of(response), 200) << response;
    auto doc = Json::parse(body_of(response));
    EXPECT_EQ(doc.at("state").as_string(), "accepting");
    EXPECT_TRUE(doc.at("accepting").as_bool());

    // Occupy the only worker, then stop() on another thread: the server
    // enters its drain window (not accepting, pool still finishing work).
    const int in_flight = connect_loopback(server->port());
    ASSERT_GE(in_flight, 0);
    const std::string request = "GET /v1/stats HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(in_flight, request.data(), request.size(), 0), 0);
    stall->await_entered(1);
    std::thread stopper{[&] { server->stop(); }};

    // The listener is already closed during the drain, so readiness is
    // probed in process via handle() — the same code path the route serves.
    std::string draining;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        draining = server->handle(readyz);
        if (status_of(draining) == 503) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(status_of(draining), 503) << draining;
    doc = Json::parse(body_of(draining));
    EXPECT_EQ(doc.at("state").as_string(), "draining");
    EXPECT_FALSE(doc.at("accepting").as_bool());
    // Liveness stays green while draining: the process is healthy, it just
    // must be rotated out of the load balancer.
    EXPECT_EQ(status_of(server->handle(healthz)), 200);

    stall->release();
    stopper.join();
    EXPECT_NE(recv_all(in_flight).find("HTTP/1.0 200"), std::string::npos);
    ::close(in_flight);

    // Fully drained: still 503 (never re-add to rotation), now "stopped".
    const auto stopped = server->handle(readyz);
    EXPECT_EQ(status_of(stopped), 503) << stopped;
    doc = Json::parse(body_of(stopped));
    EXPECT_EQ(doc.at("state").as_string(), "stopped");
    EXPECT_FALSE(doc.at("accepting").as_bool());
}


// --- process-wide lifecycle ------------------------------------------------

TEST(SolveServerLifecycle, StartStopAndConflictingPortThrows)
{
    ASSERT_FALSE(serve::solve_server_active());
    EXPECT_EQ(serve::solve_server_stats_json(), "{}");
    const int port = serve::solve_server_start(0);
    EXPECT_GT(port, 0);
    EXPECT_TRUE(serve::solve_server_active());
    EXPECT_EQ(serve::solve_server_port(), port);
    EXPECT_EQ(serve::solve_server_start(0), port);
    EXPECT_EQ(serve::solve_server_start(port), port);
    EXPECT_THROW(serve::solve_server_start(port == 65535 ? 1024 : port + 1),
                 BadParameter);
    EXPECT_NE(serve::solve_server_stats_json(), "{}");
    EXPECT_EQ(status_of(http_request(port, "GET", "/healthz", "")), 200);
    serve::solve_server_stop();
    EXPECT_FALSE(serve::solve_server_active());
    EXPECT_EQ(serve::solve_server_port(), 0);
    serve::solve_server_stop();  // no-op
}

TEST(SolveServerLifecycle, PortsOutsideTheTcpRangeAreRejected)
{
    // Unchecked, a cast to uint16_t wraps these onto real ports (-1 onto
    // 65535).
    for (const int port : {-1, 65536, 70000}) {
        serve::SolveServerOptions options;
        options.port = port;
        EXPECT_THROW(serve::SolveServer::start(options), BadParameter)
            << port;
        EXPECT_THROW(serve::solve_server_start(port), BadParameter) << port;
        EXPECT_FALSE(serve::solve_server_active()) << port;
    }
}

TEST(SolveServer, ProcessWideSwitchKeysAnswer400AndChangeNothing)
{
    // A client's config reaches config::generate_solver verbatim, so a key
    // that acted on the process would let one request start listeners or
    // retune sampling.
    auto server = serve::SolveServer::start({});
    const bool telemetry = serve::telemetry_active();
    const bool solve_server = serve::solve_server_active();
    const int sampling_hz = log::sampling_hz();
    const std::string hw_source = log::hw_counters_source();
    const double trace_sample = log::trace_sample_rate();
    for (const auto& [key, value] : test::process_switch_keys()) {
        Json body = Json::make_object();
        body["triplet"] = laplacian_triplet(4);
        body["config"] = cg_config();
        body["config"][key] = Json::parse(value);
        serve::HttpRequest request;
        request.method = "POST";
        request.target = "/v1/solve";
        request.body = body.dump();
        const auto response = server->handle(request);
        EXPECT_EQ(status_of(response), 400) << key << "\n" << response;
        EXPECT_NE(body_of(response).find("unknown config key '" + key + "'"),
                  std::string::npos)
            << response;
    }
    EXPECT_EQ(serve::telemetry_active(), telemetry);
    EXPECT_EQ(serve::solve_server_active(), solve_server);
    EXPECT_EQ(log::sampling_hz(), sampling_hz);
    EXPECT_EQ(log::hw_counters_source(), hw_source);
    EXPECT_EQ(log::trace_sample_rate(), trace_sample);
    server->stop();
}


TEST(SolveServer, InlineTriangularSolveWithoutDiagonalAnswers400)
{
    // U = [[2, 1], [0, .]]: a non-unit sweep would divide row 1 by an
    // absent diagonal, and U x = b would not hold for the answer.
    auto server = serve::SolveServer::start({});
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/solve";
    request.body =
        R"({"triplet": {"rows": 2, "cols": 2, "entries": [[0, 0, 2.0], )"
        R"([0, 1, 1.0]]}, "b": [3.0, 3.0], )"
        R"("config": {"type": "solver::UpperTrs"}})";
    const auto response = server->handle(request);
    EXPECT_EQ(status_of(response), 400) << response;
    EXPECT_NE(body_of(response).find("missing at row 1"), std::string::npos)
        << response;
    server->stop();
}


TEST(SolveServer, NumbersOutsideInt64AndPartialMtxTokensAnswer400)
{
    // A real where an integer is read must fit int64 (1e300, or an
    // integer literal past int64, which parses as the real it spells),
    // and every Matrix Market field must be a whole number.
    auto server = serve::SolveServer::start({});
    const auto post = [&](const std::string& target,
                          const std::string& body) {
        serve::HttpRequest request;
        request.method = "POST";
        request.target = target;
        request.body = body;
        return server->handle(request);
    };
    const std::string triplet = laplacian_triplet(4).dump();
    for (const char* max_iters :
         {"1e300", "-1e300", "99999999999999999999", "9223372036854775808"}) {
        const auto response =
            post("/v1/solve", R"({"triplet": )" + triplet +
                                  R"(, "config": {"type": "solver::Cg", )"
                                  R"("reduction_factor": 1e-8, "max_iters": )" +
                                  max_iters + "}}");
        EXPECT_EQ(status_of(response), 400) << max_iters << "\n" << response;
        EXPECT_NE(body_of(response).find("does not fit a 64-bit integer"),
                  std::string::npos)
            << response;
    }
    for (const char* triplet_body :
         {R"({"rows": 2, "cols": 2, "entries": [[1e300, 0, 1.0]]})",
          R"({"rows": 2, "cols": 2, "entries": [[0, -1e19, 1.0]]})",
          R"({"rows": 9223372036854775808, "cols": 2, "entries": []})"}) {
        const auto response = post(
            "/v1/operators", std::string{R"({"triplet": )"} + triplet_body +
                                 "}");
        EXPECT_EQ(status_of(response), 400) << triplet_body << "\n"
                                            << response;
    }
    for (const char* entry : {"1 1.5 2", "1 1 2,5", "1 1 0x10"}) {
        Json upload = Json::make_object();
        upload["mtx"] = Json{std::string{"%%MatrixMarket matrix coordinate "
                                         "real general\n2 2 1\n"} +
                             entry + "\n"};
        const auto response = post("/v1/operators", upload.dump());
        EXPECT_EQ(status_of(response), 400) << entry << "\n" << response;
    }
    EXPECT_EQ(server->stats().cache_operators, 0u);
    server->stop();
}


TEST(SolveServer, DeeplyNestedBodyAnswers400AndTheServerStaysUp)
{
    // 100,000 '[' parse one recursion level each without a depth bound;
    // the body is far below max_body_bytes, so it reaches the parser.
    auto server = serve::SolveServer::start({});
    const auto response = http_request(server->port(), "POST", "/v1/solve",
                                       std::string(100000, '['));
    EXPECT_EQ(status_of(response), 400) << response.substr(0, 200);
    EXPECT_NE(body_of(response).find("nesting deeper than"),
              std::string::npos)
        << body_of(response);
    EXPECT_EQ(status_of(http_request(server->port(), "GET", "/healthz", "")),
              200);
    server->stop();
}

TEST(SolveServer, OperatorsBeyondTheCacheBudgetAnswer413)
{
    // A one-entry Matrix Market document that declares 2^40 x 2^40: its
    // rows alone, at 16 B each in a generated solver, exceed the default
    // 64 MiB budget, so the upload and the inline solve answer 413 before
    // anything is allocated for them.
    auto server = serve::SolveServer::start({});
    Json upload = Json::make_object();
    upload["mtx"] = Json{std::string{
        "%%MatrixMarket matrix coordinate real general\n"
        "1099511627776 1099511627776 1\n1 1 1.0\n"}};
    const auto uploaded = http_request(server->port(), "POST",
                                       "/v1/operators", upload.dump());
    EXPECT_EQ(status_of(uploaded), 413) << uploaded;
    for (const char* named : {"1099511627776 rows", "67108864 bytes"}) {
        EXPECT_NE(body_of(uploaded).find(named), std::string::npos)
            << uploaded;
    }
    EXPECT_EQ(server->stats().cache_operators, 0u);

    Json solve = upload;
    solve["config"] = cg_config();
    const auto solved =
        http_request(server->port(), "POST", "/v1/solve", solve.dump());
    EXPECT_EQ(status_of(solved), 413) << solved;
    EXPECT_EQ(server->stats().solver_generations, 0u);
    EXPECT_EQ(status_of(http_request(server->port(), "GET", "/healthz", "")),
              200);
    server->stop();
}

// --- serve::start_from_env ------------------------------------------------
//
// start_from_env runs once per process, so each case runs in a fresh
// child (the threadsafe death-test style re-executes the binary) and
// reports its verdict through the exit code.

/// Sets both port variables to `port`, calls start_from_env, and exits 0
/// when both servers came up and the solve server's executor feeds the
/// shared metrics the telemetry server exports (its kernels show up as
/// op.* series after one solve), 1 otherwise.
[[noreturn]] void start_both_from_env_and_check_metrics(const char* port)
{
    ::setenv("MGKO_TELEMETRY_PORT", port, 1);
    ::setenv("MGKO_SOLVE_PORT", port, 1);
    serve::start_from_env();
    bool ok = serve::telemetry_active() && serve::solve_server_active();
    if (ok) {
        log::shared_metrics()->registry().reset();
        Json body = Json::make_object();
        body["triplet"] = laplacian_triplet(4);
        body["config"] = cg_config();
        const auto response = http_request(serve::solve_server_port(), "POST",
                                           "/v1/solve", body.dump());
        ok = status_of(response) == 200 &&
             log::shared_metrics()->registry().prometheus_text().find(
                 "mgko_events_total{tag=\"op.") != std::string::npos;
    }
    std::_Exit(ok ? 0 : 1);
}

/// Sets both port variables to `value` and exits 0 when start_from_env
/// returns without starting either server.
[[noreturn]] void start_neither_from_env(const char* value)
{
    ::setenv("MGKO_TELEMETRY_PORT", value, 1);
    ::setenv("MGKO_SOLVE_PORT", value, 1);
    serve::start_from_env();
    std::_Exit(serve::telemetry_active() || serve::solve_server_active()
                   ? 1
                   : 0);
}

TEST(StartFromEnvDeathTest, PortZeroStartsBothServersWithMetrics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(start_both_from_env_and_check_metrics("0"),
                ::testing::ExitedWithCode(0), "mgko: solve server on port");
}

TEST(StartFromEnvDeathTest, OutOfRangePortStartsNeither)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(start_neither_from_env("70000"),
                ::testing::ExitedWithCode(0),
                "MGKO_SOLVE_PORT='70000' is not a port");
}

TEST(StartFromEnvDeathTest, NonNumericPortStartsNeither)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(start_neither_from_env("abc"), ::testing::ExitedWithCode(0),
                "MGKO_TELEMETRY_PORT='abc' is not a port");
}

}  // namespace
