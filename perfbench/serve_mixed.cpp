// serve_mixed: the solve-as-a-service path.  An in-process SolveServer
// takes a closed loop of nproc client connections over loopback; each
// client waits for its reply before sending the next request.
//
// Reads are cache-hit /v1/solve requests on a resident set of a few-
// thousand-row operators (2-D stencils and planar meshes with CG+Jacobi,
// power-law operators with GMRES+ILU).  Writes are Matrix Market uploads
// that churn the LRU cache and inline solves (parse, generate, solve,
// discard).  Every client sends one upload and two inline solves after
// each full cycle of reads, which puts writes near a quarter of the
// server's time; each run prints the measured share as
// serve_mixed.write_time_share.  HTTP, JSON, the cache, config glue and
// small-kernel dispatch do the work here.
//
// Why no read ever misses the cache: capacity is measured to hold the
// resident set plus one churn upload per client, and each client reads
// every resident operator between two of its uploads.  When an upload
// overflows the budget, some client therefore has two uploads resident,
// the older of which is older than every resident operator's last read,
// so the least-recently-used entry is always a churn upload.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <omp.h>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "core/mtx_io.hpp"
#include "matgen/matgen.hpp"
#include "matrix/dense.hpp"
#include "serve/solve_server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mgko;
using config::Json;

const char* cg_jacobi = R"({"type": "solver::Cg", "max_iters": 2000,
    "reduction_factor": 1e-8,
    "preconditioner": {"type": "preconditioner::Jacobi"}})";
const char* gmres_ilu = R"({"type": "solver::Gmres", "krylov_dim": 30,
    "max_iters": 2000, "reduction_factor": 1e-8,
    "preconditioner": {"type": "preconditioner::Ilu"}})";
/// Bound on the true relative residual the benchmark recomputes; the
/// solvers stop on their own (preconditioned or recurrence) residual at
/// 1e-8, which the true one may exceed by a modest factor.
constexpr double residual_limit = 1e-6;
constexpr int rhs_per_operator = 4;
constexpr int inline_per_cycle = 2;
/// Kernel threads of the server's executor: workers x kernel threads must
/// not exceed nproc, and the server runs nproc workers.
constexpr int kernel_threads = 1;

struct Problem {
    std::string name;
    data64 data;
    HostCsr host;
    Json config;
};

Problem make_problem(std::string name, data64 data, const char* config)
{
    HostCsr host{data};
    return {std::move(name), std::move(data), std::move(host),
            Json::parse(config)};
}

std::string mtx_text(const data64& data)
{
    std::ostringstream out;
    write_mtx(out, data);
    return out.str();
}

/// A JSON array of doubles, each printed with round-trip precision.
std::string json_vector(const std::vector<double>& v)
{
    std::string out = "[";
    char number[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(number, sizeof(number), "%s%.17g", i ? ", " : "", v[i]);
        out += number;
    }
    return out + "]";
}


// --- loopback HTTP client ----------------------------------------------------

struct HttpResult {
    int status{0};
    std::string body;
    /// Empty when the response was a complete HTTP message.
    std::string error;
};

HttpResult exchange(int port, const std::string& target,
                    const std::string& body, const std::string& headers = {})
{
    HttpResult result;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        result.error = "socket failed";
        return result;
    }
    // A reply that never comes fails the op instead of hanging the run.
    const timeval timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        result.error = "connect failed";
        return result;
    }
    std::string request = "POST " + target +
                          " HTTP/1.0\r\nContent-Type: application/json\r\n"
                          "Content-Length: " +
                          std::to_string(body.size()) + "\r\n" + headers +
                          "\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            result.error = "send failed";
            return result;
        }
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buffer[64 * 1024];
    ssize_t received;
    while ((received = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<std::size_t>(received));
    }
    ::close(fd);
    if (received < 0) {
        result.error = "recv failed";
        return result;
    }
    const auto head_end = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) {
        result.error = "incomplete response head";
        return result;
    }
    result.status = std::atoi(response.c_str() + response.find(' ') + 1);
    const auto head = response.substr(0, head_end);
    result.body = response.substr(head_end + 4);
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const auto cl = lower.find("\r\ncontent-length:");
    if (cl == std::string::npos) {
        result.error = "response without Content-Length";
    } else if (std::strtoull(head.c_str() + cl + 17, nullptr, 10) !=
               result.body.size()) {
        result.error = "truncated response body";
    }
    return result;
}


enum class op_class { read, upload, inline_solve };

const char* class_name(op_class c)
{
    switch (c) {
    case op_class::read:
        return "op.read";
    case op_class::upload:
        return "op.upload";
    case op_class::inline_solve:
        return "op.inline";
    }
    return "op";
}

struct ClientSample {
    op_class cls;
    OpSample op;
    /// Resident operator of a read; -1 for writes.
    int resident{-1};
};

/// Holds the closed-loop clients between two requests while the main
/// thread rebuilds the server at a slice boundary.
class Gate {
public:
    /// Client side, before each request: returns at once while the gate
    /// is open, else waits until it opens.
    void pass()
    {
        std::unique_lock<std::mutex> lock{mutex_};
        if (!closed_) {
            return;
        }
        ++held_;
        changed_.notify_all();
        changed_.wait(lock, [&] { return !closed_; });
        --held_;
    }
    /// Closes the gate and waits until all `clients` are held, so none
    /// has a request in flight.
    void close(int clients)
    {
        std::unique_lock<std::mutex> lock{mutex_};
        closed_ = true;
        changed_.wait(lock, [&] { return held_ == clients; });
    }
    void open()
    {
        std::lock_guard<std::mutex> lock{mutex_};
        closed_ = false;
        changed_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable changed_;
    bool closed_{false};
    int held_{0};
};

struct SessionResult {
    std::vector<ClientSample> samples;
    StealMeter steal;
    serve::SolveServer::Stats before;
    serve::SolveServer::Stats after;
};


class ServeMixed : public Workload {
public:
    ServeMixed(std::uint64_t seed, const std::string&) : seed_{seed}
    {
        // Resident set: varied structure, 3136 rows each.  Reads are one
        // latency class with two modes: the 2-D stencils need ~170 CG
        // iterations, the planar and power-law operators a few dozen.  Two
        // of ten operators are slow, so p50 lies inside the fast mode and
        // p90 in the middle of the slow one, away from the boundary at 0.8.
        std::uint64_t s = seed * 104729;
        resident_.push_back(make_problem(
            "lap2d_49x64", matgen::stencil_2d_5pt(49, 64), cg_jacobi));
        resident_.push_back(make_problem(
            "lap2d_64x49", matgen::stencil_2d_5pt(64, 49), cg_jacobi));
        for (const char* name :
             {"planar_a", "planar_b", "planar_c", "planar_d"}) {
            resident_.push_back(make_problem(
                name, matgen::planar_graph(3136, ++s), cg_jacobi));
        }
        for (const char* name :
             {"powerlaw_a", "powerlaw_b", "powerlaw_c", "powerlaw_d"}) {
            resident_.push_back(make_problem(
                name, matgen::power_law_rows(3136, 6, 1.6, ++s), gmres_ilu));
        }
        // Churn uploads all share one sparsity pattern, so every upload
        // costs the cache the same bytes; only the values vary.
        std::mt19937_64 engine{seed};
        std::uniform_real_distribution<double> jitter{0.0, 1.0};
        for (int i = 0; i < 8; ++i) {
            auto data = matgen::stencil_2d_5pt(50, 50);
            for (auto& e : data.entries) {
                if (e.row == e.col) {
                    e.value += jitter(engine);
                }
            }
            Json body = Json::make_object();
            body["mtx"] = Json{mtx_text(data)};
            churn_bodies_.push_back(body.dump());
            churn_nnz_ = data.num_stored();
        }
        // Inline solves: small operators of each structure.
        inline_.push_back(make_problem(
            "inline_lap2d", matgen::stencil_2d_5pt(40, 40), cg_jacobi));
        inline_.push_back(make_problem(
            "inline_planar", matgen::planar_graph(1600, ++s), cg_jacobi));
        inline_.push_back(make_problem(
            "inline_powerlaw", matgen::power_law_rows(1600, 6, 1.6, ++s),
            gmres_ilu));
        for (auto& p : inline_) {
            inline_rhs_.push_back(random_vector(p.host.rows, engine));
            Json body = Json::make_object();
            body["config"] = p.config;
            body["mtx"] = Json{mtx_text(p.data)};
            body["b"] = Json::parse(json_vector(inline_rhs_.back()));
            inline_bodies_.push_back(body.dump());
        }
        // Read bodies are {"b": [...], "config": {...}, "operator": "op-N"};
        // all but the handle is serialized here, outside any timing.
        for (auto& p : resident_) {
            std::vector<std::vector<double>> rhs;
            std::vector<std::string> heads;
            for (int i = 0; i < rhs_per_operator; ++i) {
                rhs.push_back(random_vector(p.host.rows, engine));
                heads.push_back("{\"b\": " + json_vector(rhs.back()) +
                                ", \"config\": " + p.config.dump() +
                                ", \"operator\": \"");
            }
            resident_rhs_.push_back(std::move(rhs));
            read_heads_.push_back(std::move(heads));
            Json body = Json::make_object();
            body["mtx"] = Json{mtx_text(p.data)};
            resident_upload_.push_back(body.dump());
        }
    }

    ~ServeMixed() override { stop_server(); }

    void describe(Report& report) const override
    {
        double entries = 0.0;
        for (const auto& p : resident_) {
            entries += static_cast<double>(p.data.num_stored());
        }
        report.meta("serve_mixed.resident_operators",
                    static_cast<double>(resident_.size()));
        report.meta("serve_mixed.resident_stored_entries", entries);
        report.meta("serve_mixed.clients", static_cast<double>(num_cores()));
        report.meta("serve_mixed.server_workers",
                    static_cast<double>(num_cores()));
        report.meta("serve_mixed.kernel_threads",
                    static_cast<double>(kernel_threads));
        report.meta("serve_mixed.working_set_mib", entries * 12.0 / 1048576.0);
    }

    SetupSample setup(Report& report) override
    {
        if (capacity_ == 0) {
            capacity_ = measure_capacity();
            report.meta("serve_mixed.cache_capacity_bytes",
                        static_cast<double>(capacity_));
            report.meta("serve_mixed.resident_cache_bytes",
                        static_cast<double>(resident_bytes_));
            report.meta("serve_mixed.churn_upload_bytes",
                        static_cast<double>(churn_bytes_));
        }
        stop_server();
        ScopedSpan span{"serve.setup"};
        const SetupTimer timer;
        start_server(capacity_);
        const auto first = populate();
        const auto sample = timer.stop();
        check_first_solves(report, first);
        return sample;
    }

    void run(Report& report, double seconds, bool traced,
             const Between& between) override
    {
        session_ = session(report, seconds, traced, between);
        const auto& samples = session_->samples;
        std::vector<OpSample> ops;
        std::vector<OpSample> reads;
        for (const auto& c : samples) {
            ops.push_back(c.op);
            if (c.cls == op_class::read) {
                reads.push_back(c.op);
            }
        }
        if (traced) {
            report_traced_loop(report, reads);
            report.metric("core.pool_misses_per_op", replay_pool_misses(),
                          "count", 20);
            return;
        }
        // Latency percentiles over reads; ops_per_s over every class.
        report_end_to_end(report, ops, session_->steal);
        report_traffic_mix(report, samples);
        for (std::size_t i = 0; i < resident_.size(); ++i) {
            std::vector<double> ms;
            for (const auto& c : samples) {
                if (c.resident == static_cast<int>(i)) {
                    ms.push_back(c.op.seconds * 1e3);
                }
            }
            if (!ms.empty()) {
                report.meta("serve_mixed.read_p50_ms." + resident_[i].name,
                            median(ms));
            }
        }
    }

    void probe(Report& report) override
    {
        if (!session_) {
            session_ = session(report, 2.0, false, {});
        }
        const auto& s = *session_;
        std::vector<double> upload_ms;
        std::vector<double> inline_ms;
        for (const auto& c : s.samples) {
            if (c.cls == op_class::upload) {
                upload_ms.push_back(c.op.seconds * 1e3);
            } else if (c.cls == op_class::inline_solve) {
                inline_ms.push_back(c.op.seconds * 1e3);
            }
        }
        if (upload_ms.empty() || inline_ms.empty()) {
            report.fail("serve_mixed: session ran no writes");
            return;
        }
        report.metric("serve.upload_ms", median(upload_ms), "ms",
                      upload_ms.size());
        report.metric("serve.inline_ms", median(inline_ms), "ms",
                      inline_ms.size());
        const auto d = [&](std::uint64_t serve::SolveServer::Stats::*field) {
            return static_cast<double>(s.after.*field - s.before.*field);
        };
        const double hits = d(&serve::SolveServer::Stats::cache_hits);
        const double misses = d(&serve::SolveServer::Stats::cache_misses);
        report.metric("serve.cache_hit_ratio",
                      hits / std::max(1.0, hits + misses), "ratio",
                      static_cast<std::size_t>(hits + misses));
        report.metric("serve.cache_evictions",
                      d(&serve::SolveServer::Stats::cache_evictions), "count");
        report.metric("serve.solver_generations",
                      d(&serve::SolveServer::Stats::solver_generations),
                      "count");
        report.metric("serve.queue_peak",
                      static_cast<double>(s.after.queue_peak), "count");
        report.metric("serve.rejected", d(&serve::SolveServer::Stats::rejected),
                      "count");
        probe_handle(report);
        probe_config(report);
    }

private:
    /// Op count and summed round trip of each request class over the whole
    /// window.  With no more clients than server workers no request waits
    /// in the queue, so a class's summed round trip is its share of the
    /// server's time plus loopback transport.
    static void report_traffic_mix(Report& report,
                                   const std::vector<ClientSample>& samples)
    {
        double seconds[3] = {0.0, 0.0, 0.0};
        double count[3] = {0.0, 0.0, 0.0};
        for (const auto& c : samples) {
            const auto k = static_cast<std::size_t>(c.cls);
            seconds[k] += c.op.seconds;
            count[k] += 1.0;
        }
        const char* names[3] = {"read", "upload", "inline"};
        for (std::size_t k = 0; k < 3; ++k) {
            report.meta(std::string{"serve_mixed.ops."} + names[k], count[k]);
            report.meta(std::string{"serve_mixed.round_trip_s."} + names[k],
                        seconds[k]);
        }
        const double writes = seconds[1] + seconds[2];
        report.meta("serve_mixed.write_time_share",
                    writes / std::max(1e-12, writes + seconds[0]));
    }

    static std::vector<double> random_vector(std::int64_t n,
                                             std::mt19937_64& engine)
    {
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        std::vector<double> v(static_cast<std::size_t>(n));
        for (auto& x : v) {
            x = dist(engine);
        }
        return v;
    }

    void start_server(size_type capacity)
    {
        serve::SolveServerOptions options;
        options.num_workers = static_cast<size_type>(num_cores());
        options.cache_capacity_bytes = capacity;
        // The server's executor takes the OpenMP thread count in force
        // when start() builds it: one kernel thread per worker.
        const int previous = omp_get_max_threads();
        omp_set_num_threads(kernel_threads);
        server_ = serve::SolveServer::start(options);
        omp_set_num_threads(previous);
    }

    void stop_server()
    {
        if (server_) {
            server_->stop();
            server_.reset();
        }
    }

    /// Resident bytes as the server accounts them, plus room for one churn
    /// upload per client and half of one more, measured on a sizing
    /// server with an unbounded budget.
    size_type measure_capacity()
    {
        start_server(size_type{1} << 40);
        Report sizing;
        check_first_solves(sizing, populate());
        const auto resident = server_->stats().cache_bytes;
        const auto r = exchange(server_->port(), "/v1/operators",
                                churn_bodies_[0]);
        const auto churn = server_->stats().cache_bytes - resident;
        stop_server();
        if (r.status != 200 || churn == 0 || !sizing.correct()) {
            throw std::runtime_error("serve_mixed: capacity sizing failed");
        }
        churn_bytes_ = churn;
        resident_bytes_ = resident;
        const auto clients = static_cast<size_type>(num_cores());
        return resident + clients * churn + churn / 2;
    }

    /// Uploads the resident set and solves each once, which generates its
    /// solver (the cache miss every later read avoids).  Returns the first
    /// solves' responses, checked by the caller outside the timed setup.
    std::vector<HttpResult> populate()
    {
        read_bodies_.clear();
        std::vector<HttpResult> first;
        for (std::size_t i = 0; i < resident_.size(); ++i) {
            const auto up = exchange(server_->port(), "/v1/operators",
                                     resident_upload_[i]);
            if (!up.error.empty() || up.status != 200) {
                throw std::runtime_error("serve_mixed: resident upload failed");
            }
            const auto handle =
                Json::parse(up.body).at("operator").as_string();
            std::vector<std::string> bodies;
            for (const auto& head : read_heads_[i]) {
                bodies.push_back(head + handle + "\"}");
            }
            read_bodies_.push_back(std::move(bodies));
            first.push_back(
                exchange(server_->port(), "/v1/solve", read_bodies_[i][0]));
        }
        return first;
    }

    void check_first_solves(Report& report,
                            const std::vector<HttpResult>& first) const
    {
        for (std::size_t i = 0; i < first.size(); ++i) {
            const auto why = check_solve(first[i], resident_[i].host,
                                         resident_rhs_[i][0], "miss");
            if (!why.empty()) {
                report.fail("serve_mixed setup: " + resident_[i].name + ": " +
                            why);
            }
        }
    }

    std::string check_solve(const HttpResult& r, const HostCsr& a,
                            const std::vector<double>& b,
                            const char* expect_cache) const
    {
        if (!r.error.empty()) {
            return r.error;
        }
        if (r.status != 200) {
            return "HTTP " + std::to_string(r.status) + ": " +
                   r.body.substr(0, 200);
        }
        Json doc;
        try {
            doc = Json::parse(r.body);
        } catch (const std::exception& e) {
            return std::string{"unparseable response: "} + e.what();
        }
        if (!doc.contains("converged") || !doc.at("converged").as_bool()) {
            return "solve did not converge";
        }
        if (doc.at("cache").as_string() != expect_cache) {
            return "cache outcome " + doc.at("cache").as_string() +
                   ", expected " + expect_cache;
        }
        std::vector<double> x;
        for (const auto& v : doc.at("x").elements()) {
            x.push_back(v.as_double());
        }
        const double res = relative_residual(a, b, x);
        if (!(res <= residual_limit)) {
            return "residual " + std::to_string(res) + " above limit";
        }
        return {};
    }

    /// One closed-loop client: it cycles through every resident operator
    /// in a seeded order, then sends one upload and two inline solves.
    void client(int id, Report& report, const std::atomic<bool>& stop,
                Gate& gate, std::atomic<std::size_t>& reads_done,
                std::vector<ClientSample>& out, bool toggle_tracing,
                double start_s)
    {
        std::mt19937_64 engine{seed_ * 31 + static_cast<std::uint64_t>(id)};
        std::vector<std::size_t> order(resident_.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::uint64_t op = static_cast<std::uint64_t>(id) << 40;
        std::size_t churn = static_cast<std::size_t>(id);
        std::size_t inline_next = static_cast<std::size_t>(id);
        const std::string sampled_header =
            "traceparent: 00-0af7651916cd43dd8448eb211c80319c-"
            "b7ad6b7169203331-01\r\n";
        const auto timed = [&](op_class cls, int resident,
                               const std::string& target,
                               const std::string& body, auto&& check) {
            if (toggle_tracing) {
                const auto block =
                    static_cast<long>((now_s() - start_s) / 0.5);
                Tracer::get().set_enabled(block % 2 == 0);
            }
            ClientSample sample{cls, {}, resident};
            sample.op.latency_class = cls == op_class::read;
            sample.op.traced = Tracer::get().enabled();
            HttpResult r;
            {
                ScopedSpan span{class_name(cls), ++op};
                const double t0 = now_s();
                {
                    ScopedSpan inner{"http.exchange"};
                    r = exchange(server_->port(), target, body,
                                 sample.op.traced && cls == op_class::read
                                     ? sampled_header
                                     : std::string{});
                }
                sample.op.end_s = now_s();
                sample.op.seconds = sample.op.end_s - t0;
            }
            ScopedSpan check_span{"check", op};
            std::string failure;
            try {
                failure = check(r, sample.op);
            } catch (const std::exception& e) {
                failure = std::string{class_name(cls)} +
                          ": malformed response: " + e.what();
            }
            report.op(failure);
            out.push_back(sample);
            if (cls == op_class::read) {
                reads_done.fetch_add(1);
            }
        };
        // Every request first passes the gate, which holds the client while
        // the server is rebuilt.  A rebuild replaces read_bodies_, so a
        // read takes its body only after passing.
        const auto pass = [&] {
            gate.pass();
            return !stop.load();
        };
        while (!stop.load()) {
            std::shuffle(order.begin(), order.end(), engine);
            for (const auto i : order) {
                const auto rhs = static_cast<std::size_t>(
                    engine() % static_cast<std::uint64_t>(rhs_per_operator));
                if (!pass()) {
                    return;
                }
                timed(op_class::read, static_cast<int>(i), "/v1/solve",
                      read_bodies_[i][rhs],
                      [&](const HttpResult& r, OpSample& s) {
                          note_cost(r, s);
                          const auto why =
                              check_solve(r, resident_[i].host,
                                          resident_rhs_[i][rhs], "hit");
                          return why.empty() ? why
                                             : resident_[i].name + ": " + why;
                      });
            }
            if (!pass()) {
                return;
            }
            timed(op_class::upload, -1, "/v1/operators",
                  churn_bodies_[churn++ % churn_bodies_.size()],
                  [&](const HttpResult& r, OpSample&) -> std::string {
                      if (!r.error.empty() || r.status != 200) {
                          return "upload: HTTP " + std::to_string(r.status) +
                                 " " + r.error;
                      }
                      const auto doc = Json::parse(r.body);
                      if (doc.at("nnz").as_int() !=
                          static_cast<std::int64_t>(churn_nnz_)) {
                          return "upload: wrong nnz echoed";
                      }
                      return {};
                  });
            for (int k = 0; k < inline_per_cycle; ++k) {
                if (!pass()) {
                    return;
                }
                const auto j = inline_next++ % inline_.size();
                timed(op_class::inline_solve, -1, "/v1/solve",
                      inline_bodies_[j],
                      [&](const HttpResult& r, OpSample&) {
                          const auto why = check_solve(
                              r, inline_[j].host, inline_rhs_[j], "inline");
                          return why.empty() ? why
                                             : inline_[j].name + ": " + why;
                      });
            }
        }
    }

    /// Reads the per-kernel cost block a sampled response carries: launch
    /// count and kernel-body wall time attributed to this request.
    static void note_cost(const HttpResult& r, OpSample& s)
    {
        if (!s.traced || r.status != 200) {
            return;
        }
        try {
            const auto doc = Json::parse(r.body);
            if (!doc.contains("cost")) {
                return;
            }
            const auto& cost = doc.at("cost");
            s.launches = cost.at("kernels").as_double();
            double kernel_ns = 0.0;
            for (const auto& [name, slice] : cost.at("per_kernel").items()) {
                kernel_ns += slice.at("wall_ns").as_double();
            }
            s.kernel_ns = kernel_ns;
        } catch (const std::exception&) {
        }
    }

    /// Runs the closed loop for `seconds` of measuring.  At each slice
    /// boundary `between` (when set) rebuilds the server while the gate
    /// holds every client between two requests.
    SessionResult session(Report& report, double seconds, bool traced,
                          const Between& between)
    {
        SessionResult result;
        result.before = server_->stats();
        const int clients = num_cores();
        std::atomic<bool> stop{false};
        Gate gate;
        std::atomic<std::size_t> reads_done{0};
        std::vector<std::vector<ClientSample>> per_client(
            static_cast<std::size_t>(clients));
        const double t0 = now_s();
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                client(c, report, stop, gate, reads_done,
                       per_client[static_cast<std::size_t>(c)], traced, t0);
            });
        }
        std::exception_ptr failure;
        try {
            // Measure for `seconds`, and on until p90 of reads is
            // supported.
            double next_snapshot = t0;
            while (true) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                if (between && result.steal.due()) {
                    gate.close(clients);
                    result.steal.tick();
                    between();
                    result.steal.resume();
                    gate.open();
                } else {
                    result.steal.tick();
                }
                if (now_s() >= next_snapshot) {
                    snapshot_stats();
                    next_snapshot += 0.5;
                }
                const double elapsed = result.steal.measured_s();
                if (elapsed >= 4 * seconds ||
                    (elapsed >= seconds &&
                     reads_done.load() >= min_latency_samples)) {
                    break;
                }
            }
        } catch (...) {
            failure = std::current_exception();
        }
        stop.store(true);
        gate.open();
        for (auto& t : threads) {
            t.join();
        }
        if (failure) {
            std::rethrow_exception(failure);
        }
        result.steal.close();
        snapshot_stats();
        if (traced) {
            Tracer::get().set_enabled(true);
        }
        for (auto& v : per_client) {
            result.samples.insert(result.samples.end(), v.begin(), v.end());
        }
        result.after = server_->stats();
        return result;
    }

    /// SolveServer::stats() as a counter snapshot of the traced run.
    void snapshot_stats() const
    {
        const auto st = server_->stats();
        Tracer::get().counters(
            "serve.stats",
            {{"requests_total", static_cast<double>(st.requests_total)},
             {"cache_hits", static_cast<double>(st.cache_hits)},
             {"cache_misses", static_cast<double>(st.cache_misses)},
             {"cache_evictions", static_cast<double>(st.cache_evictions)},
             {"solver_generations",
              static_cast<double>(st.solver_generations)},
             {"cache_bytes", static_cast<double>(st.cache_bytes)},
             {"queue_peak", static_cast<double>(st.queue_peak)},
             {"rejected", static_cast<double>(st.rejected)}});
    }

    /// Round trip of one recorded read against SolveServer::handle on the
    /// same request in process; the difference is socket transport.  The
    /// read is on the cheapest resident (GMRES+ILU on a power-law
    /// operator), so the solve's jitter does not swamp the transport.
    void probe_handle(Report& report)
    {
        ScopedSpan span{"probe.serve_handle"};
        const auto which = cheapest_resident();
        serve::HttpRequest request;
        request.method = "POST";
        request.target = "/v1/solve";
        request.version = "HTTP/1.0";
        request.body = read_bodies_[which][0];
        request.headers["content-length"] = std::to_string(request.body.size());
        request.headers["content-type"] = "application/json";
        std::vector<double> handle_s;
        std::vector<double> transport_s;
        for (int round = 0; round < 40; ++round) {
            double t0 = now_s();
            const auto response = server_->handle(request);
            const double handle = now_s() - t0;
            t0 = now_s();
            const auto r = exchange(server_->port(), "/v1/solve", request.body);
            transport_s.push_back(now_s() - t0 - handle);
            handle_s.push_back(handle);
            const auto why = check_solve(r, resident_[which].host,
                                         resident_rhs_[which][0], "hit");
            if (!why.empty()) {
                report.fail("serve probe: " + why);
            }
            if (response.rfind("HTTP/1.0 200", 0) != 0 &&
                response.rfind("HTTP/1.1 200", 0) != 0) {
                report.fail("serve probe: handle() did not answer 200");
            }
            if (round == 0) {
                recorded_response_ = r.body;
            }
        }
        report.metric("serve.handle_ms", median(handle_s) * 1e3, "ms", 40);
        report.metric("serve.transport_ms", median(transport_s) * 1e3, "ms",
                      40);
    }

    std::size_t cheapest_resident() const
    {
        for (std::size_t i = 0; i < resident_.size(); ++i) {
            if (resident_[i].name == "powerlaw_a") {
                return i;
            }
        }
        return 0;
    }

    /// Config glue on the server's own inputs, replayed on a one-thread
    /// executor like each server worker's.
    void probe_config(Report& report)
    {
        auto exec = OmpExecutor::create(1);
        {
            ScopedSpan span{"probe.generate"};
            std::vector<double> t;
            for (const auto& p : resident_) {
                const double t0 = now_s();
                config::generate_solver(p.config, exec, p.data);
                t.push_back(now_s() - t0);
            }
            double sum = 0.0;
            for (const double v : t) {
                sum += v;
            }
            report.metric("config.generate_ms",
                          sum / static_cast<double>(t.size()) * 1e3, "ms",
                          t.size());
        }
        {
            ScopedSpan span{"probe.apply_glue"};
            const auto which = cheapest_resident();
            const auto& p = resident_[which];
            const auto& rhs = resident_rhs_[which][0];
            auto solver = config::generate_solver(p.config, exec, p.data);
            const auto n = static_cast<size_type>(p.host.rows);
            auto b = Dense<double>::create(exec, dim2{n, 1});
            auto x = Dense<double>::create(exec, dim2{n, 1});
            for (size_type i = 0; i < n; ++i) {
                b->at(i, 0) = rhs[static_cast<std::size_t>(i)];
            }
            std::vector<double> glue;
            for (int round = 0; round < 40; ++round) {
                double t0 = now_s();
                config::apply_solver(p.config, exec, solver.get(), rhs);
                const double through_config = now_s() - t0;
                x->fill(0.0);
                t0 = now_s();
                solver->apply(b.get(), x.get());
                glue.push_back(through_config - (now_s() - t0));
            }
            report.metric("config.apply_glue_ms", median(glue) * 1e3, "ms", 40);
        }
        {
            ScopedSpan span{"probe.json"};
            std::vector<double> parse;
            for (int round = 0; round < 5; ++round) {
                for (const auto& bodies : read_bodies_) {
                    const double t0 = now_s();
                    Json::parse(bodies[0]);
                    parse.push_back(now_s() - t0);
                }
            }
            report.metric("config.json_parse_us", median(parse) * 1e6, "us",
                          parse.size());
            const auto doc = Json::parse(recorded_response_);
            const auto dump = time_reps(30, [&] { doc.dump(); });
            report.metric("config.json_dump_us", median(dump) * 1e6, "us", 30);
        }
    }

    /// Pool misses per read, replayed on a one-thread executor: the
    /// server's own executor is private, so its allocator counters are not
    /// visible from outside.
    double replay_pool_misses()
    {
        ScopedSpan span{"probe.replay_pool"};
        auto exec = OmpExecutor::create(1);
        const auto& p = resident_[0];
        auto solver = config::generate_solver(p.config, exec, p.data);
        config::apply_solver(p.config, exec, solver.get(), resident_rhs_[0][0]);
        const auto before = exec->num_allocations();
        for (int i = 0; i < 20; ++i) {
            config::apply_solver(p.config, exec, solver.get(),
                                 resident_rhs_[0][i % rhs_per_operator]);
        }
        return static_cast<double>(exec->num_allocations() - before) / 20.0;
    }

    std::uint64_t seed_;
    std::vector<Problem> resident_;
    std::vector<std::vector<std::vector<double>>> resident_rhs_;
    /// Per resident and right-hand side: a read body up to its handle.
    std::vector<std::vector<std::string>> read_heads_;
    std::vector<std::string> resident_upload_;
    std::vector<std::string> churn_bodies_;
    size_type churn_nnz_{0};
    size_type churn_bytes_{0};
    size_type resident_bytes_{0};
    std::vector<Problem> inline_;
    std::vector<std::vector<double>> inline_rhs_;
    std::vector<std::string> inline_bodies_;

    size_type capacity_{0};
    std::unique_ptr<serve::SolveServer> server_;
    std::vector<std::vector<std::string>> read_bodies_;
    std::string recorded_response_;
    std::optional<SessionResult> session_;
};

}  // namespace


std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed,
                                           const std::string& out_dir)
{
    return std::make_unique<ServeMixed>(seed, out_dir);
}


}  // namespace perfbench
