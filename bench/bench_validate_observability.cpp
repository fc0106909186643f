// Validates the observability artifacts a bench run dumps:
//
//     bench_validate_observability [--profile f] [--metrics f]
//                                  [--prometheus f] [--flight f]
//                                  [--overhead f] [--sellcs f]
//                                  [--solveserver f] [--exemplars m,t]
//                                  [--requestattrib f]
//                                  [--diff baseline,fresh]
//
// Each JSON file is parsed with the repo's own config/json.hpp and checked
// for the invariants CI relies on:
//   * profile:    the metrics registry's profile view (MGKO_PROFILE,
//                 /profile.json) — a non-empty "tags" object whose
//                 entries carry "count" and "wall_ns";
//   * metrics:    MetricsRegistry JSON — "counters" and "histograms"
//                 objects;
//   * prometheus: a /metrics response body — non-empty Prometheus text
//                 exposition (every line a comment or `name{labels} value`);
//   * flight:     a Chrome trace from the flight recorder (MGKO_TRACE,
//                 /trace.json or flight_dump) — a non-empty "traceEvents"
//                 array where every event carries "name", "ph", and "ts",
//                 and whose per-track 'B'/'E' events are well nested;
//   * overhead:   a BENCH_micro_overhead.json result block — every row's
//                 "overhead_percent" must be finite and < 5.0, the
//                 always-on flight recorder budget;
//   * sellcs:     a BENCH_roofline_sellcs_formats.json result block — on
//                 every row SELL-C-σ must achieve >= 1.15x the ELL
//                 GFLOP/s and >= the ELL GB/s, the speed-pass gate;
//   * solveserver: a BENCH_solve_server.json result block — an aggregate
//                 'all' row must exist with requests > 0, and every served
//                 class must report finite, ordered latency quantiles;
//   * amg:        a BENCH_amg.json result block, optionally followed by a
//                 comma and a trace dump from the same run — AMG-CG must
//                 beat Jacobi-CG and ILU-CG on iteration count on every
//                 row and need <= 25% of the Jacobi-CG iterations on the
//                 largest 2D Poisson row; when the trace is given, its
//                 per-level "amg.cycle.level<k>" spans must be present and
//                 well nested (level k strictly inside level k-1);
//   * exemplars:  comma-separated /metrics body and /trace.json dump from
//                 the same live server — every OpenMetrics exemplar
//                 (` # {trace_id="..."} value` after a histogram bucket
//                 sample) must satisfy the exemplar grammar, and every
//                 exemplar's trace id must resolve to at least one record
//                 in the trace dump (the metrics -> trace causality hop);
//   * requestattrib: a BENCH_solve_server_attrib.json result block — the
//                 summed per-request "cost" flops must sit within 1% of
//                 the global work model and the tracing overhead under
//                 the 3% budget;
//   * diff:       two comma-separated result blocks (committed baseline,
//                 fresh run) — same figure/columns/row count, every
//                 numeric cell within 10% relative, metadata ignored;
//   * drift:      a BENCH_measured_drift.json result block, optionally
//                 followed by a comma and the expected counter source —
//                 on every benched kernel with modeled work and enough
//                 measured CPU time, the measured/modeled join must sit
//                 inside loose directional bands (cpu/wall ratio near 1,
//                 plausible GFLOP/s and GB/s proxies, and on the
//                 perf_event rung an instructions-per-flop ratio a real
//                 CPU can produce) — the model-drift gate;
//   * folded:     a /flamegraph.txt dump — at least one line, every line
//                 matching the folded-stack grammar
//                 `frame(;frame)* count` flamegraph.pl consumes;
//   * sampling:   a BENCH_solve_server_sampling.json result block — the
//                 199 Hz sampling profiler's per-request overhead must be
//                 finite and <= 3%, with samples actually captured.
//
// Exits 0 when every given file validates, 1 (with a diagnostic on stderr)
// otherwise, so the CI observability job fails on malformed output.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "config/json.hpp"

namespace {

using mgko::config::Json;

bool fail(const std::string& file, const std::string& what)
{
    std::fprintf(stderr, "[observability] %s: %s\n", file.c_str(),
                 what.c_str());
    return false;
}

bool load(const std::string& file, Json& out)
{
    std::ifstream stream{file};
    if (!stream) {
        return fail(file, "cannot open file");
    }
    try {
        out = Json::parse(stream);
    } catch (const std::exception& e) {
        return fail(file, std::string{"JSON parse error: "} + e.what());
    }
    return true;
}

bool validate_profile(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("tags")) {
        return fail(file, "missing 'tags'");
    }
    const auto& tags = doc.at("tags");
    if (!tags.is_object() || tags.items().empty()) {
        return fail(file, "'tags' must be a non-empty object");
    }
    for (const auto& [tag, stats] : tags.items()) {
        if (!stats.is_object() || !stats.contains("count") ||
            !stats.contains("wall_ns")) {
            return fail(file, "tag '" + tag + "' lacks count/wall_ns");
        }
    }
    std::printf("[observability] %s: %zu profile tags OK\n", file.c_str(),
                tags.items().size());
    return true;
}

bool validate_metrics(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("counters") ||
        !doc.contains("histograms")) {
        return fail(file, "missing 'counters'/'histograms'");
    }
    if (!doc.at("counters").is_object() || !doc.at("histograms").is_object()) {
        return fail(file, "'counters' and 'histograms' must be objects");
    }
    std::printf("[observability] %s: metrics document OK\n", file.c_str());
    return true;
}

// A Prometheus text exposition line is a comment/blank or
// `metric_name{labels} value` with an optional trailing timestamp; this
// checks the subset our exporters emit (metric name grammar, balanced
// label braces, parseable value).
bool validate_prometheus(const std::string& file)
{
    std::ifstream stream{file};
    if (!stream) {
        return fail(file, "cannot open file");
    }
    std::string line;
    std::size_t samples = 0;
    std::size_t line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto bad = [&](const std::string& what) {
            return fail(file, "line " + std::to_string(line_no) + ": " + what +
                                  ": " + line);
        };
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::size_t i = 0;
        if (!std::isalpha(static_cast<unsigned char>(line[0])) &&
            line[0] != '_') {
            return bad("metric name must start [a-zA-Z_]");
        }
        while (i < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[i])) ||
                line[i] == '_' || line[i] == ':')) {
            ++i;
        }
        if (i < line.size() && line[i] == '{') {
            const auto close = line.find('}', i);
            if (close == std::string::npos) {
                return bad("unterminated label set");
            }
            i = close + 1;
        }
        if (i >= line.size() || line[i] != ' ') {
            return bad("expected ' ' before value");
        }
        const std::string value = line.substr(i + 1);
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end == value.c_str() && value != "+Inf" && value != "-Inf" &&
            value != "NaN") {
            return bad("unparseable sample value");
        }
        ++samples;
    }
    if (samples == 0) {
        return fail(file, "no samples in exposition");
    }
    std::printf("[observability] %s: %zu prometheus samples OK\n",
                file.c_str(), samples);
    return true;
}


// Chrome trace from the flight recorder: every event carries name/ph/ts,
// and the 'B'/'E' events are well nested per (pid, tid) track — the
// guarantee the recorder's repair pass makes despite ring wraparound.
bool validate_flight(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("traceEvents") ||
        !doc.at("traceEvents").is_array()) {
        return fail(file, "missing 'traceEvents' array");
    }
    const auto& events = doc.at("traceEvents");
    if (events.elements().empty()) {
        return fail(file, "'traceEvents' must be non-empty");
    }
    std::map<double, std::vector<std::string>> stacks;
    for (const auto& event : events.elements()) {
        if (!event.is_object() || !event.contains("name") ||
            !event.contains("ph") || !event.contains("ts")) {
            return fail(file, "event lacks name/ph/ts");
        }
        const auto phase = event.at("ph").as_string();
        const auto tid =
            event.contains("tid") ? event.at("tid").as_double() : 0.0;
        if (phase == "B") {
            stacks[tid].push_back(event.at("name").as_string());
        } else if (phase == "E") {
            auto& stack = stacks[tid];
            const auto name = event.at("name").as_string();
            if (stack.empty() || stack.back() != name) {
                return fail(file, "unbalanced span 'E': " + name);
            }
            stack.pop_back();
        }
    }
    for (const auto& [tid, stack] : stacks) {
        if (!stack.empty()) {
            return fail(file, "span left open on tid " +
                                  std::to_string(static_cast<long>(tid)) +
                                  ": " + stack.back());
        }
    }
    std::printf("[observability] %s: %zu flight events, spans well nested\n",
                file.c_str(), events.elements().size());
    return true;
}


// BENCH_micro_overhead.json: every row's overhead_percent column must be
// finite and under the 5% always-on budget.
bool validate_overhead(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("columns") ||
        !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    std::size_t overhead_column = columns.size();
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i].as_string() == "overhead_percent") {
            overhead_column = i;
        }
    }
    if (overhead_column == columns.size()) {
        return fail(file, "no 'overhead_percent' column");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    for (const auto& row : rows) {
        if (!row.is_array() || row.elements().size() <= overhead_column) {
            return fail(file, "row shorter than the overhead column");
        }
        const double overhead =
            row.elements()[overhead_column].as_double();
        if (!std::isfinite(overhead)) {
            return fail(file, "overhead_percent is not finite");
        }
        if (overhead >= 5.0) {
            std::ostringstream what;
            what << "always-on overhead " << overhead
                 << "% exceeds the 5% budget";
            return fail(file, what.str());
        }
        std::printf(
            "[observability] %s: flight recorder overhead %.3f%% < 5%% OK\n",
            file.c_str(), overhead);
    }
    return true;
}

// BENCH_roofline_sellcs_formats.json: the SELL-C-σ speed gate.  Every
// row must show sellcs_gflops >= 1.15 * ell_gflops and sellcs_gbps >=
// ell_gbps, CI's protection against regressing the format's entire
// reason to exist.
bool validate_solveserver(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("figure") ||
        doc.at("figure").as_string() != "solve_server") {
        return fail(file, "not a solve_server result block");
    }
    if (!doc.contains("columns") || !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto cls = column_of("class");
    const auto requests = column_of("requests");
    const auto p50 = column_of("p50_ms");
    const auto p99 = column_of("p99_ms");
    if (cls == columns.size() || requests == columns.size() ||
        p50 == columns.size() || p99 == columns.size()) {
        return fail(file, "missing class/requests/p50_ms/p99_ms columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    bool saw_all = false;
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <= std::max({cls, requests, p50, p99})) {
            return fail(file, "row shorter than the gate columns");
        }
        const double count = cells[requests].as_double();
        const double p50_ms = cells[p50].as_double();
        const double p99_ms = cells[p99].as_double();
        // A class can legitimately be empty in a tiny smoke run, but a
        // served class must carry finite, ordered quantiles.
        if (count > 0 &&
            (!std::isfinite(p50_ms) || !std::isfinite(p99_ms) ||
             p50_ms <= 0.0 || p99_ms + 1e-12 < p50_ms)) {
            return fail(file, "class '" + cells[cls].as_string() +
                                  "' has malformed latency quantiles");
        }
        if (cells[cls].as_string() == "all") {
            saw_all = true;
            if (count <= 0) {
                return fail(file, "the aggregate row served no requests");
            }
            std::printf("[observability] %s: %g requests, p50 %.3g ms, "
                        "p99 %.3g ms OK\n",
                        file.c_str(), count, p50_ms, p99_ms);
        }
    }
    if (!saw_all) {
        return fail(file, "no aggregate 'all' row");
    }
    return true;
}


bool validate_sellcs(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("columns") ||
        !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto ell_gf = column_of("ell_gflops");
    const auto sell_gf = column_of("sellcs_gflops");
    const auto ell_gb = column_of("ell_gbps");
    const auto sell_gb = column_of("sellcs_gbps");
    if (ell_gf == columns.size() || sell_gf == columns.size() ||
        ell_gb == columns.size() || sell_gb == columns.size()) {
        return fail(file, "missing ell/sellcs gflops/gbps columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <= std::max({ell_gf, sell_gf, ell_gb, sell_gb})) {
            return fail(file, "row shorter than the gate columns");
        }
        const double speedup =
            cells[sell_gf].as_double() / cells[ell_gf].as_double();
        const double gbps_ratio =
            cells[sell_gb].as_double() / cells[ell_gb].as_double();
        if (!std::isfinite(speedup) || speedup < 1.15) {
            std::ostringstream what;
            what << "SELL-C-sigma/ELL GFLOP/s " << speedup
                 << " below the 1.15x gate";
            return fail(file, what.str());
        }
        if (!std::isfinite(gbps_ratio) || gbps_ratio < 1.0) {
            std::ostringstream what;
            what << "SELL-C-sigma effective GB/s " << gbps_ratio
                 << "x ELL, below the 1.0x gate";
            return fail(file, what.str());
        }
        std::printf("[observability] %s: sellcs %.2fx ELL GFLOP/s, "
                    "%.2fx GB/s OK\n",
                    file.c_str(), speedup, gbps_ratio);
    }
    return true;
}


// BENCH_amg.json (+ optional trace): the AMG milestone gates.  Iteration
// counts are deterministic on the ReferenceExecutor, so these are exact:
// AMG-CG strictly beats Jacobi-CG and ILU-CG everywhere, and on the
// largest 2D Poisson row wins by at least 4x over Jacobi-CG.  The trace
// check replays the dumped span events and verifies the V-cycle's
// "amg.cycle.level<k>" spans nest strictly inside level k-1.
bool validate_amg(const std::string& files)
{
    const auto comma = files.find(',');
    const auto result_file =
        comma == std::string::npos ? files : files.substr(0, comma);
    Json doc;
    if (!load(result_file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("figure") ||
        doc.at("figure").as_string() != "amg") {
        return fail(result_file, "not an amg result block");
    }
    if (!doc.contains("columns") || !doc.contains("rows")) {
        return fail(result_file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto matrix = column_of("matrix");
    const auto n_col = column_of("n");
    const auto jacobi = column_of("jacobi_iters");
    const auto ilu = column_of("ilu_iters");
    const auto amg = column_of("amg_iters");
    const auto setup = column_of("amg_setup_s");
    const auto solve = column_of("amg_solve_s");
    if (matrix == columns.size() || n_col == columns.size() ||
        jacobi == columns.size() || ilu == columns.size() ||
        amg == columns.size() || setup == columns.size() ||
        solve == columns.size()) {
        return fail(result_file, "missing matrix/n/*_iters/amg_*_s columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(result_file, "no result rows");
    }
    double largest_2d_n = -1.0;
    double largest_2d_ratio = 0.0;
    std::string largest_2d_name;
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <=
            std::max({matrix, n_col, jacobi, ilu, amg, setup, solve})) {
            return fail(result_file, "row shorter than the gate columns");
        }
        const auto name = cells[matrix].as_string();
        const double jacobi_iters = cells[jacobi].as_double();
        const double ilu_iters = cells[ilu].as_double();
        const double amg_iters = cells[amg].as_double();
        if (amg_iters < 1.0 || !std::isfinite(cells[setup].as_double()) ||
            !std::isfinite(cells[solve].as_double()) ||
            cells[setup].as_double() <= 0.0 ||
            cells[solve].as_double() <= 0.0) {
            return fail(result_file,
                        "'" + name + "' has a degenerate amg row");
        }
        if (amg_iters >= ilu_iters || amg_iters >= jacobi_iters) {
            std::ostringstream what;
            what << "'" << name << "': AMG-CG " << amg_iters
                 << " iters does not beat ILU-CG " << ilu_iters
                 << " / Jacobi-CG " << jacobi_iters;
            return fail(result_file, what.str());
        }
        if (name.rfind("poisson2d", 0) == 0 &&
            cells[n_col].as_double() > largest_2d_n) {
            largest_2d_n = cells[n_col].as_double();
            largest_2d_ratio = amg_iters / jacobi_iters;
            largest_2d_name = name;
        }
    }
    if (largest_2d_n < 0.0) {
        return fail(result_file, "no poisson2d row to apply the 4x gate to");
    }
    if (largest_2d_ratio > 0.25) {
        std::ostringstream what;
        what << "'" << largest_2d_name << "': AMG-CG/Jacobi-CG iteration "
             << "ratio " << largest_2d_ratio << " above the 0.25 gate";
        return fail(result_file, what.str());
    }
    std::printf("[observability] %s: %zu rows, AMG-CG beats Jacobi/ILU "
                "everywhere, largest-2D ratio %.3f <= 0.25 OK\n",
                result_file.c_str(), rows.size(), largest_2d_ratio);
    if (comma == std::string::npos) {
        return true;
    }

    const auto trace_file = files.substr(comma + 1);
    Json trace;
    if (!load(trace_file, trace)) {
        return false;
    }
    if (!trace.is_object() || !trace.contains("traceEvents") ||
        !trace.at("traceEvents").is_array()) {
        return fail(trace_file, "missing 'traceEvents' array");
    }
    const std::string prefix = "amg.cycle.level";
    std::map<double, std::vector<int>> level_stacks;
    std::size_t span_count = 0;
    int max_level = -1;
    for (const auto& event : trace.at("traceEvents").elements()) {
        if (!event.is_object() || !event.contains("name") ||
            !event.contains("ph")) {
            continue;
        }
        const auto name = event.at("name").as_string();
        if (name.rfind(prefix, 0) != 0) {
            continue;
        }
        const int level = std::atoi(name.c_str() + prefix.size());
        const auto phase = event.at("ph").as_string();
        const auto tid =
            event.contains("tid") ? event.at("tid").as_double() : 0.0;
        auto& stack = level_stacks[tid];
        if (phase == "B") {
            // A V-cycle descends one level at a time: level k only opens
            // inside an open level k-1 (level 0 at the top).
            const int expected = stack.empty() ? 0 : stack.back() + 1;
            if (level != expected) {
                std::ostringstream what;
                what << "span '" << name << "' opened at depth "
                     << stack.size() << " (expected level " << expected
                     << ")";
                return fail(trace_file, what.str());
            }
            stack.push_back(level);
            max_level = std::max(max_level, level);
            ++span_count;
        } else if (phase == "E") {
            if (stack.empty() || stack.back() != level) {
                return fail(trace_file,
                            "span '" + name + "' closed out of order");
            }
            stack.pop_back();
        }
    }
    for (const auto& [tid, stack] : level_stacks) {
        if (!stack.empty()) {
            return fail(trace_file, "amg cycle span left open on tid " +
                                        std::to_string(static_cast<long>(tid)));
        }
    }
    if (span_count == 0 || max_level < 1) {
        return fail(trace_file, "no nested amg.cycle.level spans in trace");
    }
    std::printf("[observability] %s: %zu amg.cycle spans across %d levels "
                "well nested OK\n",
                trace_file.c_str(), span_count, max_level + 1);
    return true;
}


// OpenMetrics exemplars: every ` # {trace_id="..."} value` suffix in the
// /metrics body must satisfy the exemplar grammar, and every exemplar's
// trace id must resolve to records in the /trace.json dump scraped from
// the same server — the causality hop from a histogram bucket back to the
// one request that last landed in it.
bool validate_exemplars(const std::string& pair)
{
    const auto comma = pair.find(',');
    if (comma == std::string::npos) {
        return fail(pair, "--exemplars expects 'metrics.txt,trace.json'");
    }
    const auto metrics_file = pair.substr(0, comma);
    const auto trace_file = pair.substr(comma + 1);

    const auto lowercase_hex = [](const std::string& s) {
        return !s.empty() &&
               std::all_of(s.begin(), s.end(), [](char c) {
                   return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
               });
    };

    std::ifstream stream{metrics_file};
    if (!stream) {
        return fail(metrics_file, "cannot open file");
    }
    std::vector<std::string> exemplar_words;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto bad = [&](const std::string& what) {
            return fail(metrics_file, "line " + std::to_string(line_no) +
                                          ": " + what + ": " + line);
        };
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const auto marker = line.find(" # ");
        if (marker == std::string::npos) {
            continue;
        }
        const std::string prefix = " # {trace_id=\"";
        if (line.compare(marker, prefix.size(), prefix) != 0) {
            return bad("exemplar must open with {trace_id=\"");
        }
        const auto id_begin = marker + prefix.size();
        const auto id_end = line.find('"', id_begin);
        if (id_end == std::string::npos) {
            return bad("unterminated exemplar trace id");
        }
        const auto id = line.substr(id_begin, id_end - id_begin);
        if (id.size() != 32 || !lowercase_hex(id)) {
            return bad("exemplar trace id must be 32 lowercase hex");
        }
        if (line.compare(id_end, 3, "\"} ") != 0) {
            return bad("expected '\"} value' after the trace id");
        }
        const std::string value = line.substr(id_end + 3);
        char* end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end == value.c_str()) {
            return bad("unparseable exemplar value");
        }
        // Flight records carry the low 64 bits of the trace id.
        exemplar_words.push_back(id.substr(16));
    }
    if (exemplar_words.empty()) {
        return fail(metrics_file, "no exemplars in exposition");
    }

    Json trace;
    if (!load(trace_file, trace)) {
        return false;
    }
    if (!trace.is_object() || !trace.contains("traceEvents") ||
        !trace.at("traceEvents").is_array()) {
        return fail(trace_file, "missing 'traceEvents' array");
    }
    std::set<std::string> recorded;
    for (const auto& event : trace.at("traceEvents").elements()) {
        if (event.is_object() && event.contains("args") &&
            event.at("args").is_object() &&
            event.at("args").contains("trace_id")) {
            recorded.insert(event.at("args").at("trace_id").as_string());
        }
    }
    for (const auto& word : exemplar_words) {
        if (recorded.find(word) == recorded.end()) {
            return fail(pair, "exemplar trace id ..." + word +
                                  " has no records in the trace dump");
        }
    }
    std::printf("[observability] %s: %zu exemplars, all resolvable among "
                "%zu traced records in %s OK\n",
                metrics_file.c_str(), exemplar_words.size(),
                recorded.size(), trace_file.c_str());
    return true;
}


// BENCH_solve_server_attrib.json: the request-attribution gates.  The
// summed per-request "cost" flops must reconcile with the global work
// model within 1%, and full trace sampling must cost under 3% per
// request.
bool validate_requestattrib(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("figure") ||
        doc.at("figure").as_string() != "solve_server_attrib") {
        return fail(file, "not a solve_server_attrib result block");
    }
    if (!doc.contains("columns") || !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto requests = column_of("requests");
    const auto error = column_of("attrib_error_percent");
    const auto overhead = column_of("overhead_percent");
    if (requests == columns.size() || error == columns.size() ||
        overhead == columns.size()) {
        return fail(file, "missing requests/attrib_error_percent/"
                          "overhead_percent columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <= std::max({requests, error, overhead})) {
            return fail(file, "row shorter than the gate columns");
        }
        if (cells[requests].as_double() <= 0) {
            return fail(file, "attribution run served no requests");
        }
        const double error_percent = cells[error].as_double();
        const double overhead_percent = cells[overhead].as_double();
        if (!std::isfinite(error_percent) || error_percent > 1.0) {
            std::ostringstream what;
            what << "per-request flops drift " << error_percent
                 << "% from the work model, above the 1% gate";
            return fail(file, what.str());
        }
        if (!std::isfinite(overhead_percent) || overhead_percent > 3.0) {
            std::ostringstream what;
            what << "tracing overhead " << overhead_percent
                 << "% above the 3% budget";
            return fail(file, what.str());
        }
        std::printf("[observability] %s: attribution within %.4f%%, "
                    "overhead %.3f%% OK\n",
                    file.c_str(), error_percent, overhead_percent);
    }
    return true;
}


// Diffs a fresh result block against the committed baseline: identical
// figure/columns/row count, numeric cells within 10% relative (the sim
// clock is deterministic; the slack covers OMP thread-count changes),
// string cells identical.  The metadata object (compiler, flags) is
// intentionally ignored.
bool validate_diff(const std::string& pair)
{
    const auto comma = pair.find(',');
    if (comma == std::string::npos) {
        return fail(pair, "--diff expects 'baseline,fresh'");
    }
    const auto base_file = pair.substr(0, comma);
    const auto fresh_file = pair.substr(comma + 1);
    Json base, fresh;
    if (!load(base_file, base) || !load(fresh_file, fresh)) {
        return false;
    }
    for (const auto* doc : {&base, &fresh}) {
        if (!doc->is_object() || !doc->contains("figure") ||
            !doc->contains("columns") || !doc->contains("rows")) {
            return fail(pair, "result block lacks figure/columns/rows");
        }
    }
    if (base.at("figure").as_string() != fresh.at("figure").as_string()) {
        return fail(pair, "figure tags differ: " +
                              base.at("figure").as_string() + " vs " +
                              fresh.at("figure").as_string());
    }
    const auto& base_cols = base.at("columns").elements();
    const auto& fresh_cols = fresh.at("columns").elements();
    if (base_cols.size() != fresh_cols.size()) {
        return fail(pair, "column counts differ");
    }
    for (std::size_t i = 0; i < base_cols.size(); ++i) {
        if (base_cols[i].as_string() != fresh_cols[i].as_string()) {
            return fail(pair, "column " + std::to_string(i) + " renamed: " +
                                  base_cols[i].as_string() + " vs " +
                                  fresh_cols[i].as_string());
        }
    }
    const auto& base_rows = base.at("rows").elements();
    const auto& fresh_rows = fresh.at("rows").elements();
    if (base_rows.size() != fresh_rows.size()) {
        return fail(pair, "row counts differ: " +
                              std::to_string(base_rows.size()) + " vs " +
                              std::to_string(fresh_rows.size()));
    }
    for (std::size_t r = 0; r < base_rows.size(); ++r) {
        const auto& b_cells = base_rows[r].elements();
        const auto& f_cells = fresh_rows[r].elements();
        if (b_cells.size() != f_cells.size()) {
            return fail(pair,
                        "row " + std::to_string(r) + " cell counts differ");
        }
        for (std::size_t c = 0; c < b_cells.size(); ++c) {
            const auto where = "row " + std::to_string(r) + " col " +
                               base_cols[c].as_string();
            if (b_cells[c].is_number() != f_cells[c].is_number()) {
                return fail(pair, where + ": cell type changed");
            }
            if (!b_cells[c].is_number()) {
                if (b_cells[c].as_string() != f_cells[c].as_string()) {
                    return fail(pair, where + ": '" +
                                          b_cells[c].as_string() +
                                          "' became '" +
                                          f_cells[c].as_string() + "'");
                }
                continue;
            }
            const double bv = b_cells[c].as_double();
            const double fv = f_cells[c].as_double();
            const double scale = std::max(std::abs(bv), std::abs(fv));
            if (std::abs(bv - fv) > 0.10 * scale + 1e-12) {
                std::ostringstream what;
                what << where << ": " << bv << " -> " << fv
                     << " drifts beyond 10%";
                return fail(pair, what.str());
            }
        }
    }
    std::printf("[observability] %s vs %s: %zu rows within 10%% OK\n",
                base_file.c_str(), fresh_file.c_str(), base_rows.size());
    return true;
}

// BENCH_measured_drift.json (+ optional ',expected_source'): the
// model-drift gate.  Every row joins measured counters against the
// modeled flops/bytes for one kernel tag; the bands are deliberately
// loose (directional, ~2x around the plausible range) because the gate
// exists to catch a *broken* model or measurement — a 10x disagreement —
// not to benchmark the machine.  Rows below the CPU-time noise floor or
// without modeled work are reported but not gated.
bool validate_drift(const std::string& arg)
{
    const auto comma = arg.find(',');
    const auto file = comma == std::string::npos ? arg : arg.substr(0, comma);
    const auto expected_source =
        comma == std::string::npos ? std::string{} : arg.substr(comma + 1);
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("figure") ||
        doc.at("figure").as_string() != "measured_drift") {
        return fail(file, "not a measured_drift result block");
    }
    if (!doc.contains("columns") || !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto kernel = column_of("kernel");
    const auto model_flops = column_of("model_flops");
    const auto cpu_ns = column_of("cpu_ns");
    const auto instructions = column_of("instructions");
    const auto gflops = column_of("gflops_proxy");
    const auto gbps = column_of("gbps_proxy");
    const auto ratio = column_of("cpu_wall_ratio");
    const auto source = column_of("source");
    if (kernel == columns.size() || model_flops == columns.size() ||
        cpu_ns == columns.size() || instructions == columns.size() ||
        gflops == columns.size() || gbps == columns.size() ||
        ratio == columns.size() || source == columns.size()) {
        return fail(file, "missing drift-gate columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    // Below this the dispatching thread barely ran: scheduler noise
    // dominates and no band is meaningful.
    constexpr double noise_floor_ns = 1e6;
    std::size_t gated = 0;
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <= std::max({kernel, model_flops, cpu_ns,
                                      instructions, gflops, gbps, ratio,
                                      source})) {
            return fail(file, "row shorter than the gate columns");
        }
        const auto name = cells[kernel].as_string();
        const auto row_source = cells[source].as_string();
        if (!expected_source.empty() && row_source != expected_source) {
            return fail(file, "'" + name + "' measured via '" + row_source +
                                  "', expected '" + expected_source + "'");
        }
        const double row_cpu_ns = cells[cpu_ns].as_double();
        const double row_flops = cells[model_flops].as_double();
        if (!std::isfinite(row_cpu_ns) || row_cpu_ns < 0.0) {
            return fail(file, "'" + name + "' has malformed cpu_ns");
        }
        if (row_cpu_ns < noise_floor_ns || row_flops <= 0.0) {
            continue;
        }
        const double row_ratio = cells[ratio].as_double();
        const double row_gflops = cells[gflops].as_double();
        const double row_gbps = cells[gbps].as_double();
        // The dispatching thread is the only worker (single-threaded
        // executor), so its CPU time tracks the scope's wall time: 2x
        // slack each way around 1.
        if (!std::isfinite(row_ratio) || row_ratio < 0.2 ||
            row_ratio > 5.0) {
            std::ostringstream what;
            what << "'" << name << "': cpu/wall ratio " << row_ratio
                 << " outside [0.2, 5]";
            return fail(file, what.str());
        }
        // Modeled work over measured CPU time must land where a real CPU
        // can: a kernel doing > 0.001 and < 2000 GFLOP/s, < 4 TB/s.
        if (!std::isfinite(row_gflops) || row_gflops <= 1e-3 ||
            row_gflops >= 2000.0) {
            std::ostringstream what;
            what << "'" << name << "': modeled-flops/measured-cpu proxy "
                 << row_gflops << " GFLOP/s outside (0.001, 2000)";
            return fail(file, what.str());
        }
        if (!std::isfinite(row_gbps) || row_gbps < 0.0 ||
            row_gbps >= 4000.0) {
            std::ostringstream what;
            what << "'" << name << "': modeled-bytes/measured-cpu proxy "
                 << row_gbps << " GB/s outside [0, 4000)";
            return fail(file, what.str());
        }
        if (row_source == "perf_event") {
            // Directional instruction check: SIMD caps flops/instruction
            // at ~16 (AVX-512 FMA on doubles), loop overhead caps
            // instructions/flop loosely from above.
            const double per_flop =
                cells[instructions].as_double() / row_flops;
            if (!std::isfinite(per_flop) || per_flop < 1.0 / 32.0 ||
                per_flop > 1e4) {
                std::ostringstream what;
                what << "'" << name << "': " << per_flop
                     << " measured instructions per modeled flop outside "
                     << "[1/32, 1e4]";
                return fail(file, what.str());
            }
        }
        ++gated;
    }
    if (gated == 0) {
        return fail(file, "no row cleared the noise floor with modeled "
                          "work — nothing was actually gated");
    }
    std::printf("[observability] %s: %zu/%zu kernels inside the drift "
                "bands (source %s) OK\n",
                file.c_str(), gated, rows.size(),
                expected_source.empty() ? "any" : expected_source.c_str());
    return true;
}


// /flamegraph.txt: the folded-stack grammar flamegraph.pl consumes.
// Every line must be `frame(;frame)* count` — non-empty frames without
// spaces, a positive integer count after the final space.
bool validate_folded(const std::string& file)
{
    std::ifstream stream{file};
    if (!stream) {
        return fail(file, "cannot open file");
    }
    std::string line;
    std::size_t line_no = 0;
    std::size_t stacks = 0;
    while (std::getline(stream, line)) {
        ++line_no;
        const auto bad = [&](const std::string& what) {
            return fail(file, "line " + std::to_string(line_no) + ": " +
                                  what + ": " + line);
        };
        if (line.empty()) {
            return bad("empty line in folded output");
        }
        const auto space = line.rfind(' ');
        if (space == std::string::npos || space == 0 ||
            space + 1 >= line.size()) {
            return bad("expected 'frames count'");
        }
        const auto count_text = line.substr(space + 1);
        for (const char c : count_text) {
            if (!std::isdigit(static_cast<unsigned char>(c))) {
                return bad("count must be a positive integer");
            }
        }
        if (std::strtoull(count_text.c_str(), nullptr, 10) == 0) {
            return bad("count must be positive");
        }
        const auto frames = line.substr(0, space);
        if (frames.front() == ';' || frames.back() == ';' ||
            frames.find(";;") != std::string::npos) {
            return bad("empty frame in stack");
        }
        if (frames.find(' ') != std::string::npos) {
            return bad("frames must not contain spaces");
        }
        ++stacks;
    }
    if (stacks == 0) {
        return fail(file, "no folded stacks (did sampling run?)");
    }
    std::printf("[observability] %s: %zu folded stacks OK\n", file.c_str(),
                stacks);
    return true;
}


// BENCH_solve_server_sampling.json: the sampling profiler's per-request
// overhead gate (<= 3% at 199 Hz) plus proof the sampled arm actually
// captured samples.
bool validate_sampling(const std::string& file)
{
    Json doc;
    if (!load(file, doc)) {
        return false;
    }
    if (!doc.is_object() || !doc.contains("figure") ||
        doc.at("figure").as_string() != "solve_server_sampling") {
        return fail(file, "not a solve_server_sampling result block");
    }
    if (!doc.contains("columns") || !doc.contains("rows")) {
        return fail(file, "missing 'columns'/'rows'");
    }
    const auto& columns = doc.at("columns").elements();
    auto column_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i].as_string() == name) {
                return i;
            }
        }
        return columns.size();
    };
    const auto overhead = column_of("overhead_percent");
    const auto samples = column_of("samples");
    if (overhead == columns.size() || samples == columns.size()) {
        return fail(file, "missing overhead_percent/samples columns");
    }
    const auto& rows = doc.at("rows").elements();
    if (rows.empty()) {
        return fail(file, "no result rows");
    }
    for (const auto& row : rows) {
        const auto& cells = row.elements();
        if (cells.size() <= std::max(overhead, samples)) {
            return fail(file, "row shorter than the gate columns");
        }
        const double overhead_percent = cells[overhead].as_double();
        if (!std::isfinite(overhead_percent) || overhead_percent > 3.0) {
            std::ostringstream what;
            what << "sampling overhead " << overhead_percent
                 << "% above the 3% budget";
            return fail(file, what.str());
        }
        if (cells[samples].as_double() <= 0) {
            return fail(file, "the sampled arm captured no samples");
        }
        std::printf("[observability] %s: sampling overhead %.3f%% <= 3%%, "
                    "%g samples OK\n",
                    file.c_str(), overhead_percent,
                    cells[samples].as_double());
    }
    return true;
}

}  // namespace


int main(int argc, char** argv)
{
    bool ok = true;
    bool checked = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string file = argv[i + 1];
        if (flag == "--profile") {
            ok = validate_profile(file) && ok;
        } else if (flag == "--metrics") {
            ok = validate_metrics(file) && ok;
        } else if (flag == "--prometheus") {
            ok = validate_prometheus(file) && ok;
        } else if (flag == "--flight") {
            ok = validate_flight(file) && ok;
        } else if (flag == "--overhead") {
            ok = validate_overhead(file) && ok;
        } else if (flag == "--sellcs") {
            ok = validate_sellcs(file) && ok;
        } else if (flag == "--solveserver") {
            ok = validate_solveserver(file) && ok;
        } else if (flag == "--exemplars") {
            ok = validate_exemplars(file) && ok;
        } else if (flag == "--requestattrib") {
            ok = validate_requestattrib(file) && ok;
        } else if (flag == "--amg") {
            ok = validate_amg(file) && ok;
        } else if (flag == "--diff") {
            ok = validate_diff(file) && ok;
        } else if (flag == "--drift") {
            ok = validate_drift(file) && ok;
        } else if (flag == "--folded") {
            ok = validate_folded(file) && ok;
        } else if (flag == "--sampling") {
            ok = validate_sampling(file) && ok;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            return 2;
        }
        checked = true;
    }
    if (!checked) {
        std::fprintf(
            stderr,
            "usage: bench_validate_observability [--profile f] "
            "[--metrics f] [--prometheus f] [--flight f] [--overhead f] "
            "[--sellcs f] [--solveserver f] [--exemplars metrics,trace] "
            "[--requestattrib f] [--amg results[,trace]] "
            "[--diff baseline,fresh] [--drift results[,source]] "
            "[--folded f] [--sampling f]\n");
        return 2;
    }
    return ok ? 0 : 1;
}
