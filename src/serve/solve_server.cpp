#include "serve/solve_server.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <initializer_list>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/exception.hpp"
#include "core/executor.hpp"
#include "core/mtx_io.hpp"
#include "log/dump_path.hpp"
#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "log/trace_context.hpp"
#include "serve/telemetry_server.hpp"

namespace mgko::serve {

namespace {

using config::Json;

/// An unknown operator handle: a client-visible 404, distinct from the
/// 400 every other mgko::Error maps to.
class NotFoundError : public Error {
public:
    NotFoundError(const std::string& file, int line, const std::string& what)
        : Error(file, line, what)
    {}
};

/// An operator the cache could never hold: a client-visible 413.
class TooLargeError : public Error {
public:
    TooLargeError(const std::string& file, int line, const std::string& what)
        : Error(file, line, what)
    {}
};

/// Bytes per row in the cache's estimate of a generated solver.
constexpr size_type solver_row_bytes = 16;

/// Refuses an operator whose rows alone, at solver_row_bytes each, exceed
/// the cache budget.  Checked right after the payload is parsed, so that a
/// size line of a few bytes cannot make generate allocate row pointers for
/// it.
void check_rows_fit(size_type rows, size_type capacity_bytes)
{
    if (rows > capacity_bytes / solver_row_bytes) {
        throw TooLargeError(
            __FILE__, __LINE__,
            "operator of " + std::to_string(rows) + " rows needs " +
                std::to_string(solver_row_bytes) +
                " bytes per row, beyond the cache capacity of " +
                std::to_string(capacity_bytes) + " bytes");
    }
}

/// Size of one value/index pair for the configured types; used by the
/// cache's byte estimate.
size_type config_element_bytes(const Json& config)
{
    return size_of(config::config_value_type(config)) +
           size_of(config::config_index_type(config));
}

/// Parses the matrix payload of an upload or inline-solve body: either a
/// Matrix Market document under "mtx" or a triplet object under
/// "triplet".  Throws BadParameter / FileError on malformed payloads.
matrix_data<double, int64> parse_matrix_payload(const Json& body)
{
    if (body.contains("mtx")) {
        std::istringstream stream{body.at("mtx").as_string()};
        return read_mtx(stream, "<upload>");
    }
    if (!body.contains("triplet")) {
        throw BadParameter(__FILE__, __LINE__,
                           "matrix payload requires 'mtx' or 'triplet'");
    }
    const auto& triplet = body.at("triplet");
    const auto rows = triplet.at("rows").as_int();
    const auto cols = triplet.at("cols").as_int();
    MGKO_ENSURE(rows > 0 && cols > 0,
                "'triplet' needs positive 'rows' and 'cols'");
    matrix_data<double, int64> data{
        dim2{static_cast<size_type>(rows), static_cast<size_type>(cols)}};
    for (const auto& entry : triplet.at("entries").elements()) {
        const auto& cells = entry.elements();
        MGKO_ENSURE(cells.size() == 3,
                    "'triplet' entries are [row, col, value] triples");
        data.add(cells[0].as_int(), cells[1].as_int(),
                 cells[2].as_double());
    }
    data.validate();
    data.sort_row_major();
    data.sum_duplicates();
    return data;
}

std::vector<double> parse_vector(const Json& body, const std::string& key,
                                 size_type rows)
{
    if (!body.contains(key)) {
        return {};
    }
    std::vector<double> result;
    result.reserve(rows);
    for (const auto& cell : body.at(key).elements()) {
        result.push_back(cell.as_double());
    }
    MGKO_ENSURE(static_cast<size_type>(result.size()) == rows,
                "'" + key + "' length " + std::to_string(result.size()) +
                    " does not match the operator's " +
                    std::to_string(rows) + " rows");
    return result;
}

}  // namespace


/// Cache and request-ring state behind the public interface.
struct SolveServer::Impl {
    /// One generated solver: the product of parse + convert + factor for a
    /// concrete (operator, config) pair.  Iterative solvers keep
    /// persistent workspaces, so applies are serialized per solver by
    /// apply_mutex; distinct solvers apply concurrently.
    struct CachedSolver {
        std::unique_ptr<LinOp> solver;
        std::mutex apply_mutex;
        size_type bytes{0};
    };

    /// One uploaded operator: staging data plus the solvers generated from
    /// it, keyed by the compact config document.
    struct OperatorEntry {
        std::string handle;
        matrix_data<double, int64> data;
        size_type staging_bytes{0};
        std::map<std::string, std::shared_ptr<CachedSolver>> solvers;
        std::list<std::string>::iterator lru_position;
    };

    std::shared_ptr<Executor> exec;

    // --- operator cache (cache_mutex guards all four) ---
    std::mutex cache_mutex;
    std::map<std::string, std::shared_ptr<OperatorEntry>> operators;
    std::list<std::string> lru;  ///< front = least recently used
    size_type cache_bytes{0};
    std::uint64_t next_handle{0};

    // --- recent-request ring (GET /v1/requests) ---
    /// One served request's summary: identity plus the cost attributed to
    /// it while its context was in scope.
    struct RequestSummary {
        std::string trace_id;
        std::string route;
        int status{0};
        bool sampled{false};
        double wall_ns{0.0};
        double flops{0.0};
        double bytes{0.0};
        double alloc_bytes{0.0};
        std::uint64_t kernels{0};
    };
    static constexpr std::size_t recent_capacity = 256;
    std::mutex recent_mutex;
    std::deque<RequestSummary> recent;  ///< front = oldest

    void record_request(RequestSummary summary)
    {
        std::lock_guard<std::mutex> guard{recent_mutex};
        recent.push_back(std::move(summary));
        while (recent.size() > recent_capacity) {
            recent.pop_front();
        }
    }

    // --- counters (relaxed: each is independently monotone); the core
    // counts 429s, unreadable requests, send failures and the queue peak.
    std::atomic<std::uint64_t> requests_total{0};  ///< handle() calls
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> client_errors{0};
    std::atomic<std::uint64_t> server_errors{0};
    std::atomic<std::uint64_t> uploads{0};
    std::atomic<std::uint64_t> solves{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<std::uint64_t> cache_evictions{0};
    std::atomic<std::uint64_t> solver_generations{0};

    /// Moves `handle` to the back (most recently used) of the LRU list.
    /// Caller holds cache_mutex.
    void touch(OperatorEntry& entry)
    {
        lru.erase(entry.lru_position);
        entry.lru_position = lru.insert(lru.end(), entry.handle);
    }

    /// Evicts least-recently-used operators until the cache fits the
    /// budget, sparing `in_use`.  Caller holds cache_mutex.
    void evict_to_fit(size_type capacity, const std::string& in_use)
    {
        auto it = lru.begin();
        while (cache_bytes > capacity && it != lru.end()) {
            if (*it == in_use) {
                ++it;
                continue;
            }
            auto found = operators.find(*it);
            size_type freed = found->second->staging_bytes;
            for (const auto& [key, solver] : found->second->solvers) {
                freed += solver->bytes;
            }
            cache_bytes -= std::min(cache_bytes, freed);
            operators.erase(found);
            it = lru.erase(it);
            cache_evictions.fetch_add(1, std::memory_order_relaxed);
            log::shared_metrics()->registry().inc_counter(
                "mgko_solve_cache_total", "evict");
        }
    }
};


SolveServer::~SolveServer() = default;


std::unique_ptr<SolveServer> SolveServer::start(SolveServerOptions options)
{
    std::unique_ptr<SolveServer> server{new SolveServer{}};
    server->options_ = std::move(options);
    server->impl_ = std::make_unique<Impl>();
    server->impl_->exec = OmpExecutor::create();

    HttpServerOptions http;
    http.port = server->options_.port;
    http.owner = "solve server";
    http.num_workers = server->options_.num_workers;
    http.queue_capacity = server->options_.queue_capacity;
    http.max_body_bytes = server->options_.max_body_bytes;
    http.deadline_ms = server->options_.request_deadline_ms;
    http.worker_hook = server->options_.worker_test_hook;
    http.handle = [raw = server.get()](const HttpRequest& request) {
        return raw->handle(request);
    };
    // The core's own answers (429, 408/431/413/400) carry a traceparent
    // like every routed response; a 429 also counts as an outcome in the
    // shared registry.
    http.refuse = [](int status, const std::string& reason) {
        if (status == 429) {
            log::shared_metrics()->registry().inc_counter(
                "mgko_solve_requests_total", "serve.rejected");
        }
        return json_response(status, error_json(reason),
                             emit_traceparent(log::make_trace_context()));
    };
    server->http_ = HttpServer::start(std::move(http));
    return server;
}


std::string SolveServer::handle(const HttpRequest& request)
{
    impl_->requests_total.fetch_add(1, std::memory_order_relaxed);
    const std::string path =
        request.target.substr(0, request.target.find('?'));
    const char* route = path == "/v1/solve"       ? "serve.solve"
                        : path == "/v1/operators" ? "serve.upload"
                        : path == "/v1/stats"     ? "serve.stats"
                        : path == "/v1/requests"  ? "serve.requests"
                                                  : "serve.other";
    // Measured tier: the route becomes a sampling-profiler frame, so
    // flamegraphs show serve.solve -> kernel stacks (one relaxed load
    // when the profiler is off).
    log::SampleFrame sample_frame{route};
    // Adopt the caller's W3C trace context (its trace id and sampling
    // decision, under a fresh span of our own) or mint one; a malformed
    // traceparent header is ignored, never rejected.  The scope makes
    // every span, kernel dispatch, metric observation, and pool
    // allocation below attributable to exactly this request.
    log::TraceContext ctx = parse_traceparent(request.header("traceparent"));
    if (ctx.valid()) {
        ctx.span_id = log::mint_span_id();
    } else {
        ctx = log::make_trace_context();
    }
    log::RequestCost cost;
    if (ctx.sampled) {
        ctx.cost = &cost;
    }
    log::TraceContextScope scope{ctx};
    auto& registry = log::shared_metrics()->registry();
    auto recorder = log::shared_flight_recorder();
    recorder->on_span_begin(route);
    const auto started = std::chrono::steady_clock::now();
    // Each /v1 route takes one method; any other is a typed 405.
    const char* method =
        path == "/v1/operators" || path == "/v1/solve"   ? "POST"
        : path == "/v1/stats" || path == "/v1/requests" ? "GET"
                                                         : nullptr;
    std::string response;
    try {
        if (method != nullptr && request.method != method) {
            response = json_response(
                405, error_json(path + " is " + method + "-only"));
        } else if (path == "/healthz") {
            response = http_response(200, "text/plain", "ok\n");
        } else if (path == "/readyz") {
            // Readiness is stricter than liveness: a load balancer pulls
            // the instance on the first 503 here, while /healthz stays 200
            // until the process exits.  Three states, one transition each:
            // accepting -> draining (stop() running, queue still served)
            // -> stopped (drain complete).
            Json ready = Json::make_object();
            const auto state = http_->state();
            const bool accepting = state == server_state::accepting;
            ready["state"] = Json{std::string{to_string(state)}};
            ready["accepting"] = Json{accepting};
            response = json_response(accepting ? 200 : 503, ready);
        } else if (path == "/metrics") {
            response = http_response(200, "text/plain; version=0.0.4",
                                     metrics_text());
        } else if (path == "/v1/stats") {
            response = http_response(200, "application/json",
                                     stats_json() + "\n");
        } else if (path == "/v1/requests") {
            // ?limit=N bounds the answer to the N most recent entries,
            // ?trace_id= narrows it to one request.  Malformed values are
            // typed 400s in the same shape /trace.json answers with, not
            // silently ignored filters.
            const auto limit_text = query_param(request.target, "limit");
            char* end = nullptr;
            const long limit = std::strtol(limit_text.c_str(), &end, 10);
            std::string bad_trace_id;
            const auto trace_filter =
                trace_id_filter(request.target, bad_trace_id);
            if (!limit_text.empty() &&
                (*end != '\0' || limit < 1 ||
                 limit > static_cast<long>(Impl::recent_capacity))) {
                response = json_response(
                    400, error_json("limit must be an integer in [1, " +
                                    std::to_string(Impl::recent_capacity) +
                                    "]"));
            } else if (!bad_trace_id.empty()) {
                response = std::move(bad_trace_id);
            } else {
                response = http_response(
                    200, "application/json",
                    requests_json(static_cast<std::size_t>(limit),
                                  trace_filter) +
                        "\n");
            }
        } else if (path == "/v1/operators") {
            response = handle_upload(request);
        } else if (path == "/v1/solve") {
            response = handle_solve(request);
        } else {
            response = json_response(
                404, error_json("unknown target: " + path));
        }
    } catch (const NotFoundError& e) {
        response = json_response(404, error_json(e.what()));
    } catch (const TooLargeError& e) {
        response = json_response(413, error_json(e.what()));
    } catch (const Error& e) {
        // The repo's own exceptions are client errors: malformed configs,
        // malformed matrices, mismatched shapes.
        response = json_response(400, error_json(e.what()));
    } catch (const std::exception& e) {
        response = json_response(500, error_json(e.what()));
    }
    const int status = std::atoi(response.c_str() + 9);  // "HTTP/1.0 NNN"
    const auto wall_ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - started)
                .count());
    recorder->on_operation_completed(nullptr, route, wall_ns, 0.0, 0.0);
    recorder->on_span_end(route);
    registry.observe("mgko_solve_latency_ns", route, wall_ns);
    const char* outcome = status < 400                  ? "ok"
                          : status == 429              ? "rejected"
                          : status < 500               ? "client_error"
                                                        : "server_error";
    registry.inc_counter("mgko_solve_requests_total",
                         std::string{route} + "." + outcome);
    if (status < 400) {
        impl_->ok.fetch_add(1, std::memory_order_relaxed);
    } else if (status < 500) {
        impl_->client_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
        impl_->server_errors.fetch_add(1, std::memory_order_relaxed);
    }
    const auto totals = cost.quick_totals();
    impl_->record_request({ctx.trace_id_hex(), route, status, ctx.sampled,
                           wall_ns, totals.flops, totals.bytes,
                           totals.alloc_bytes, totals.kernels});
    // Echo the context on every response so the caller can navigate from
    // its own logs to /trace.json?trace_id= and /v1/requests.
    return with_response_header(std::move(response), emit_traceparent(ctx));
}


std::string SolveServer::requests_json(std::size_t limit,
                                       std::uint64_t trace_filter) const
{
    // Trace ids are stored as 32-hex text; a filter (parsed to the low
    // 64 bits, same as /trace.json) matches when the id's last 16 hex
    // digits equal the filter's — so both 16- and 32-digit queries find
    // their request.
    char filter_hex[17] = {0};
    if (trace_filter != 0) {
        std::snprintf(filter_hex, sizeof(filter_hex), "%016llx",
                      static_cast<unsigned long long>(trace_filter));
    }
    Json doc = Json::make_object();
    Json list = Json::make_array();
    {
        std::lock_guard<std::mutex> guard{impl_->recent_mutex};
        std::vector<const Impl::RequestSummary*> selected;
        selected.reserve(impl_->recent.size());
        for (const auto& summary : impl_->recent) {
            if (trace_filter != 0 &&
                (summary.trace_id.size() < 16 ||
                 summary.trace_id.compare(summary.trace_id.size() - 16, 16,
                                          filter_hex) != 0)) {
                continue;
            }
            selected.push_back(&summary);
        }
        // The ring is oldest-first; "the N most recent" keeps the tail.
        const std::size_t start =
            (limit > 0 && selected.size() > limit)
                ? selected.size() - limit
                : 0;
        for (std::size_t i = start; i < selected.size(); ++i) {
            const auto& summary = *selected[i];
            Json entry = Json::make_object();
            entry["trace_id"] = Json{summary.trace_id};
            entry["route"] = Json{summary.route};
            entry["status"] =
                Json{static_cast<std::int64_t>(summary.status)};
            entry["sampled"] = Json{summary.sampled};
            entry["wall_ns"] = Json{summary.wall_ns};
            entry["flops"] = Json{summary.flops};
            entry["bytes"] = Json{summary.bytes};
            entry["alloc_bytes"] = Json{summary.alloc_bytes};
            entry["kernels"] =
                Json{static_cast<std::int64_t>(summary.kernels)};
            list.push_back(std::move(entry));
        }
    }
    doc["requests"] = std::move(list);
    doc["capacity"] =
        Json{static_cast<std::int64_t>(Impl::recent_capacity)};
    return doc.dump();
}


std::string SolveServer::handle_upload(const HttpRequest& request)
{
    auto body = Json::parse(request.body);
    auto data = parse_matrix_payload(body);
    check_rows_fit(data.size.rows, options_.cache_capacity_bytes);
    const auto staging_bytes =
        static_cast<size_type>(data.entries.size()) *
            sizeof(matrix_data<double, int64>::entry) +
        1024;  // map/list/handle bookkeeping
    auto entry = std::make_shared<Impl::OperatorEntry>();
    entry->data = std::move(data);
    entry->staging_bytes = staging_bytes;
    Json response = Json::make_object();
    {
        std::lock_guard<std::mutex> guard{impl_->cache_mutex};
        entry->handle = "op-" + std::to_string(++impl_->next_handle);
        entry->lru_position =
            impl_->lru.insert(impl_->lru.end(), entry->handle);
        impl_->operators[entry->handle] = entry;
        impl_->cache_bytes += staging_bytes;
        impl_->evict_to_fit(options_.cache_capacity_bytes, entry->handle);
    }
    impl_->uploads.fetch_add(1, std::memory_order_relaxed);
    response["operator"] = Json{entry->handle};
    response["rows"] =
        Json{static_cast<std::int64_t>(entry->data.size.rows)};
    response["cols"] =
        Json{static_cast<std::int64_t>(entry->data.size.cols)};
    response["nnz"] =
        Json{static_cast<std::int64_t>(entry->data.num_stored())};
    response["bytes"] = Json{static_cast<std::int64_t>(staging_bytes)};
    return json_response(200, response);
}


std::string SolveServer::handle_solve(const HttpRequest& request)
{
    // Measured tier: counter reading at entry, delta at response time.
    // Costs two clock reads when counters are off (hw_read_now always
    // fills cpu_ns/wall_ns so the "measured" block degrades, never lies).
    const auto hw_begin = log::hw_read_now();
    auto body = Json::parse(request.body);
    MGKO_ENSURE(body.contains("config"),
                "solve request requires a 'config' object");
    const auto config = body.at("config");
    const auto config_key = config.dump();

    std::shared_ptr<Impl::OperatorEntry> entry;
    std::shared_ptr<Impl::CachedSolver> cached;
    const char* cache_outcome = "inline";
    std::string handle_name;
    auto& registry = log::shared_metrics()->registry();

    matrix_data<double, int64> inline_data;
    if (body.contains("operator")) {
        handle_name = body.at("operator").as_string();
        std::lock_guard<std::mutex> guard{impl_->cache_mutex};
        auto found = impl_->operators.find(handle_name);
        if (found == impl_->operators.end()) {
            throw NotFoundError(
                __FILE__, __LINE__,
                "unknown operator '" + handle_name +
                    "' (expired from the cache or never uploaded)");
        }
        entry = found->second;
        impl_->touch(*entry);
        auto solver_it = entry->solvers.find(config_key);
        if (solver_it != entry->solvers.end()) {
            cached = solver_it->second;
            cache_outcome = "hit";
        }
    } else {
        inline_data = parse_matrix_payload(body);
        check_rows_fit(inline_data.size.rows, options_.cache_capacity_bytes);
    }

    size_type rows = entry ? entry->data.size.rows : inline_data.size.rows;
    std::unique_ptr<LinOp> inline_solver;
    LinOp* solver = nullptr;

    if (cached) {
        impl_->cache_hits.fetch_add(1, std::memory_order_relaxed);
        registry.inc_counter("mgko_solve_cache_total", "hit");
        solver = cached->solver.get();
    } else if (entry) {
        // Miss: generate (parse + convert + factor) outside the cache
        // lock — factorization is the expensive step the cache exists to
        // amortize — then publish.  Two concurrent misses may both
        // generate; the first one published wins and the loser's work is
        // discarded (correct, just not free).
        impl_->cache_misses.fetch_add(1, std::memory_order_relaxed);
        registry.inc_counter("mgko_solve_cache_total", "miss");
        auto generated = std::make_shared<Impl::CachedSolver>();
        generated->solver =
            config::generate_solver(config, impl_->exec, entry->data);
        impl_->solver_generations.fetch_add(1, std::memory_order_relaxed);
        registry.inc_counter("mgko_solve_generations_total", "serve");
        generated->bytes =
            static_cast<size_type>(entry->data.num_stored()) *
                config_element_bytes(config) * 3 +
            rows * solver_row_bytes + 4096;
        {
            std::lock_guard<std::mutex> guard{impl_->cache_mutex};
            auto [it, inserted] =
                entry->solvers.emplace(config_key, generated);
            if (inserted) {
                impl_->cache_bytes += generated->bytes;
                impl_->evict_to_fit(options_.cache_capacity_bytes,
                                    entry->handle);
            }
            cached = it->second;
        }
        cache_outcome = "miss";
        solver = cached->solver.get();
    } else {
        // Inline matrix: solve once, cache nothing.
        inline_solver =
            config::generate_solver(config, impl_->exec, inline_data);
        impl_->solver_generations.fetch_add(1, std::memory_order_relaxed);
        registry.inc_counter("mgko_solve_generations_total", "serve");
        solver = inline_solver.get();
    }

    auto rhs = parse_vector(body, "b", rows);
    if (rhs.empty()) {
        rhs.assign(rows, 1.0);
    }
    const auto guess = parse_vector(body, "x0", rows);

    config::solve_report report;
    if (cached) {
        // Persistent workspaces make a generated solver single-flight;
        // distinct (operator, config) pairs still solve concurrently.
        std::lock_guard<std::mutex> guard{cached->apply_mutex};
        report =
            config::apply_solver(config, impl_->exec, solver, rhs, guess);
    } else {
        report =
            config::apply_solver(config, impl_->exec, solver, rhs, guess);
    }
    impl_->solves.fetch_add(1, std::memory_order_relaxed);

    Json response = Json::make_object();
    Json solution = Json::make_array();
    bool non_finite = !std::isfinite(report.residual_norm);
    for (const double v : report.solution) {
        non_finite |= !std::isfinite(v);
        solution.push_back(Json{v});
    }
    response["x"] = std::move(solution);
    response["iterations"] =
        Json{static_cast<std::int64_t>(report.iterations)};
    response["converged"] = Json{report.converged};
    response["residual_norm"] = Json{report.residual_norm};
    // Non-finite numbers are dumped as null; the flag says so explicitly.
    if (non_finite) {
        response["non_finite"] = Json{true};
    }
    response["stop_reason"] = Json{report.stop_reason};
    response["cache"] = Json{cache_outcome};
    if (!handle_name.empty()) {
        response["operator"] = Json{handle_name};
    }
    // Sampled requests answer "what did this solve cost": the work the
    // executor attributed to this request's context while it was in
    // scope, down to a per-kernel breakdown.  Serialized by hand and
    // spliced into the dumped body: this runs on every sampled request,
    // and a Json subtree (one map node per kernel) costs more to build
    // and walk than serializing the numbers directly.  Kernel names are
    // identifier-like literals, so no string escaping is needed.
    const auto ctx = log::current_trace_context();
    if (ctx.cost == nullptr) {
        return json_response(200, response);
    }
    const auto totals = ctx.cost->snapshot();
    std::string cost;
    cost.reserve(256 + totals.per_kernel.size() * 128);
    // `"key": value` pairs, comma-separated, each number in the shortest
    // text that reads back exactly (null when not finite).
    const auto fields =
        [&cost](std::initializer_list<std::pair<const char*, double>> list) {
            const char* separator = "";
            for (const auto& [key, value] : list) {
                cost += separator;
                cost += '"';
                cost += key;
                cost += "\": ";
                cost += log::json_number(value);
                separator = ", ";
            }
        };
    cost += ",\"cost\": {\"trace_id\": \"" + ctx.trace_id_hex() + "\", ";
    fields({{"flops", totals.flops},
            {"bytes", totals.bytes},
            {"alloc_bytes", totals.alloc_bytes}});
    cost += ", \"kernels\": " + std::to_string(totals.kernels) +
            ", \"per_kernel\": {";
    const char* separator = "";
    for (const auto& [name, slice] : totals.per_kernel) {
        cost += separator;
        separator = ", ";
        cost += "\"" + name + "\": {\"count\": " +
                std::to_string(slice.count) + ", ";
        fields({{"wall_ns", slice.wall_ns},
                {"flops", slice.flops},
                {"bytes", slice.bytes}});
        cost += "}";
    }
    cost += "}}";
    // The "measured" sibling of "cost": the same request seen by the
    // hardware-counter tier instead of the model.  gflops/gbps proxies
    // divide the *modeled* work by the *measured* CPU time — the
    // model-drift gate compares exactly these two views.
    const auto hw_delta = log::hw_read_now() - hw_begin;
    const double cpu_ns = hw_delta.cpu_ns > 0.0 ? hw_delta.cpu_ns : 0.0;
    cost += ",\"measured\": {\"source\": \"";
    cost += log::hw_counters_source();
    cost += "\", ";
    fields({{"wall_ns", hw_delta.wall_ns},
            {"cpu_ns", cpu_ns},
            {"cycles", hw_delta.cycles},
            {"instructions", hw_delta.instructions},
            {"llc_misses", hw_delta.llc_misses},
            {"gflops_proxy", cpu_ns > 0.0 ? totals.flops / cpu_ns : 0.0},
            {"gbps_proxy", cpu_ns > 0.0 ? totals.bytes / cpu_ns : 0.0}});
    cost += "}";
    auto payload = response.dump();
    payload.insert(payload.size() - 1, cost);
    return http_response(200, "application/json", payload + "\n");
}


std::string SolveServer::metrics_text() const
{
    const auto s = stats();
    std::ostringstream body;
    body << process_metrics_text();
    body << "# TYPE mgko_solve_requests_served_total counter\n"
         << "mgko_solve_requests_served_total " << s.requests_total << "\n"
         << "# TYPE mgko_solve_rejected_total counter\n"
         << "mgko_solve_rejected_total " << s.rejected << "\n"
         << "# TYPE mgko_solve_cache_hits_total counter\n"
         << "mgko_solve_cache_hits_total " << s.cache_hits << "\n"
         << "# TYPE mgko_solve_cache_misses_total counter\n"
         << "mgko_solve_cache_misses_total " << s.cache_misses << "\n"
         << "# TYPE mgko_solve_cache_evictions_total counter\n"
         << "mgko_solve_cache_evictions_total " << s.cache_evictions << "\n"
         << "# TYPE mgko_solve_cache_bytes gauge\n"
         << "mgko_solve_cache_bytes " << s.cache_bytes << "\n"
         << "# TYPE mgko_solve_queue_peak gauge\n"
         << "mgko_solve_queue_peak " << s.queue_peak << "\n";
    return body.str();
}


SolveServer::Stats SolveServer::stats() const
{
    const auto http = http_->stats();
    Stats s;
    // Requests the core refused (429) or could not read (408/431/413/400)
    // never reach handle(); they still count, the unreadable ones as
    // client errors.
    s.requests_total = impl_->requests_total.load(std::memory_order_relaxed) +
                       http.read_failures + http.rejected;
    s.ok = impl_->ok.load(std::memory_order_relaxed);
    s.client_errors = impl_->client_errors.load(std::memory_order_relaxed) +
                      http.read_failures;
    s.server_errors = impl_->server_errors.load(std::memory_order_relaxed);
    s.rejected = http.rejected;
    s.send_failures = http.send_failures;
    s.uploads = impl_->uploads.load(std::memory_order_relaxed);
    s.solves = impl_->solves.load(std::memory_order_relaxed);
    s.cache_hits = impl_->cache_hits.load(std::memory_order_relaxed);
    s.cache_misses = impl_->cache_misses.load(std::memory_order_relaxed);
    s.cache_evictions =
        impl_->cache_evictions.load(std::memory_order_relaxed);
    s.solver_generations =
        impl_->solver_generations.load(std::memory_order_relaxed);
    s.queue_peak = http.queue_peak;
    s.queue_capacity = options_.queue_capacity;
    {
        std::lock_guard<std::mutex> guard{impl_->cache_mutex};
        s.cache_operators = static_cast<size_type>(impl_->operators.size());
        s.cache_bytes = impl_->cache_bytes;
    }
    return s;
}


std::string SolveServer::stats_json() const
{
    const auto s = stats();
    Json doc = Json::make_object();
    auto put = [&doc](const char* key, std::uint64_t v) {
        doc[key] = Json{static_cast<std::int64_t>(v)};
    };
    put("requests_total", s.requests_total);
    put("ok", s.ok);
    put("client_errors", s.client_errors);
    put("server_errors", s.server_errors);
    put("rejected", s.rejected);
    put("send_failures", s.send_failures);
    put("uploads", s.uploads);
    put("solves", s.solves);
    Json cache = Json::make_object();
    cache["operators"] = Json{static_cast<std::int64_t>(s.cache_operators)};
    cache["bytes"] = Json{static_cast<std::int64_t>(s.cache_bytes)};
    cache["capacity_bytes"] =
        Json{static_cast<std::int64_t>(options_.cache_capacity_bytes)};
    cache["hits"] = Json{static_cast<std::int64_t>(s.cache_hits)};
    cache["misses"] = Json{static_cast<std::int64_t>(s.cache_misses)};
    cache["evictions"] =
        Json{static_cast<std::int64_t>(s.cache_evictions)};
    cache["solver_generations"] =
        Json{static_cast<std::int64_t>(s.solver_generations)};
    doc["cache"] = std::move(cache);
    Json queue = Json::make_object();
    queue["capacity"] =
        Json{static_cast<std::int64_t>(s.queue_capacity)};
    queue["peak"] = Json{static_cast<std::int64_t>(s.queue_peak)};
    doc["queue"] = std::move(queue);
    doc["workers"] =
        Json{static_cast<std::int64_t>(options_.num_workers)};
    return doc.dump();
}


// --- process-wide server ---------------------------------------------------

namespace {

ProcessServer<SolveServer>& process_server()
{
    static ProcessServer<SolveServer> server{"solve server",
                                             "solve_server_stop()"};
    return server;
}

/// Starts one process-wide server on the port environment variable
/// `variable` names, if set.  A value that is not a port number in
/// [0, 65535] and a failed bind are reported on stderr rather than
/// thrown: an embedded library must not kill its host over an occupied
/// port.
void start_on_env_port(const char* variable, const char* what,
                       int (*start)(int))
{
    const char* value = std::getenv(variable);
    if (value == nullptr || *value == '\0') {
        return;
    }
    char* end = nullptr;
    const long port = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "mgko: %s='%s' is not a port\n", variable,
                     value);
        return;
    }
    try {
        const int bound = start(static_cast<int>(port));
        std::fprintf(stderr, "mgko: %s on port %d\n", what, bound);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mgko: %s failed: %s\n", what, e.what());
    }
}

}  // namespace


int solve_server_start(int port)
{
    return process_server().start(port, [](int p) {
        SolveServerOptions options;
        options.port = p;
        return SolveServer::start(std::move(options));
    });
}


void solve_server_stop() { process_server().stop(); }


bool solve_server_active() { return solve_server_port() != 0; }


int solve_server_port() { return process_server().port(); }


std::string solve_server_stats_json()
{
    std::string json = "{}";
    process_server().visit(
        [&json](SolveServer& server) { json = server.stats_json(); });
    return json;
}


void start_from_env()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Telemetry first, so the solve server's executor (created next)
        // feeds the exported shared metrics.
        start_on_env_port("MGKO_TELEMETRY_PORT", "telemetry server",
                          telemetry_start);
        start_on_env_port("MGKO_SOLVE_PORT", "solve server",
                          solve_server_start);
    });
}


}  // namespace mgko::serve
