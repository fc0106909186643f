// Shared benchmark harness: simulated timing, CSV emission, and summary
// helpers.  Every figure/table binary prints
//   * a `# csv <figure-id>` block with the series the paper's plot shows,
//   * a human-readable summary comparing the measured shape against the
//     paper's claims (EXPERIMENTS.md quotes these).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bindings/registry.hpp"
#include "core/executor.hpp"
#include "log/dump_path.hpp"
#include "log/flight_recorder.hpp"
#include "log/metrics.hpp"
#include "matgen/matgen.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "sim/sim_clock.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mgko::bench {


/// Simulated seconds taken by `fn` on `exec`'s clock, best of `reps` runs
/// after one warmup.  Each timed run ends with an executor synchronization
/// inside the measured window — the paper's protocol ("both after explicit
/// GPU synchronization", §6.3), which matters for launch-dominated sizes.
template <typename Fn>
double time_seconds(const Executor* exec, Fn&& fn, int reps = 3)
{
    fn();  // warmup: populates profile caches, faults pages
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        sim::SimStopwatch watch{exec->clock()};
        fn();
        exec->synchronize();
        best = std::min(best, watch.elapsed_seconds());
    }
    return best;
}

inline double spmv_gflops(size_type nnz, double seconds)
{
    return 2.0 * static_cast<double>(nnz) / seconds * 1e-9;
}


/// Cached matrix generation: suites are reused across libraries/formats.
class MatrixCache {
public:
    const matgen::data64& get(const matgen::spec& s)
    {
        auto it = cache_.find(s.name);
        if (it == cache_.end()) {
            it = cache_.emplace(s.name, matgen::generate(s)).first;
        }
        return it->second;
    }

private:
    std::map<std::string, matgen::data64> cache_;
};


/// Compiler flags the bench binaries were built with; bench/CMakeLists.txt
/// passes them through so the JSON result block can record them.
#ifndef MGKO_BENCH_CXX_FLAGS
#define MGKO_BENCH_CXX_FLAGS "(unknown)"
#endif

/// Column-oriented CSV block with a figure tag.  print() emits the
/// human-oriented `# csv` block followed by a machine-readable `# json`
/// block carrying the same rows plus run metadata (compiler, flags, OMP
/// thread count, timing repetitions), so plotting/CI scripts can consume
/// results without re-parsing the CSV.  When MGKO_BENCH_JSON_DIR names a
/// directory, the JSON document is additionally persisted there as
/// BENCH_<figure>.json — the perf-trajectory artifacts CI uploads.
class CsvBlock {
public:
    CsvBlock(std::string figure, std::vector<std::string> columns,
             int repetitions = 3)
        : figure_{std::move(figure)},
          columns_{std::move(columns)},
          repetitions_{repetitions}
    {}

    void add_row(const std::vector<std::string>& cells)
    {
        rows_.push_back(cells);
    }

    void print() const
    {
        std::printf("# csv %s\n", figure_.c_str());
        for (std::size_t i = 0; i < columns_.size(); ++i) {
            std::printf("%s%s", i ? "," : "", columns_[i].c_str());
        }
        std::printf("\n");
        for (const auto& row : rows_) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                std::printf("%s%s", i ? "," : "", row[i].c_str());
            }
            std::printf("\n");
        }
        std::printf("# end csv\n");
        print_json();
    }

private:
    static std::string json_quote(const std::string& s)
    {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
            }
            out += c;
        }
        out += '"';
        return out;
    }

    /// A cell is emitted as a bare JSON number when strtod consumes it
    /// entirely (so "12.5" stays numeric but "csr" and "1.2x" are quoted).
    static std::string json_cell(const std::string& cell)
    {
        if (!cell.empty()) {
            char* end = nullptr;
            std::strtod(cell.c_str(), &end);
            if (end != nullptr && *end == '\0' && end != cell.c_str()) {
                return cell;
            }
        }
        return json_quote(cell);
    }

    std::string json_document() const
    {
        std::string out = "{\"figure\": " + json_quote(figure_) +
                          ", \"metadata\": {\"compiler\": " +
                          json_quote(__VERSION__) +
                          ", \"flags\": " + json_quote(MGKO_BENCH_CXX_FLAGS);
        int omp_threads = 1;
#ifdef _OPENMP
        omp_threads = omp_get_max_threads();
#endif
        out += ", \"omp_threads\": " + std::to_string(omp_threads);
        out += ", \"repetitions\": " + std::to_string(repetitions_) + "}";
        out += ", \"columns\": [";
        for (std::size_t i = 0; i < columns_.size(); ++i) {
            out += (i ? ", " : "") + json_quote(columns_[i]);
        }
        out += "], \"rows\": [";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            out += r ? ", [" : "[";
            for (std::size_t i = 0; i < rows_[r].size(); ++i) {
                out += (i ? ", " : "") + json_cell(rows_[r][i]);
            }
            out += "]";
        }
        out += "]}";
        return out;
    }

    void print_json() const
    {
        const auto document = json_document();
        std::printf("# json %s\n", figure_.c_str());
        std::printf("%s\n", document.c_str());
        std::printf("# end json\n");
        persist_json(document);
    }

    /// MGKO_BENCH_JSON_DIR=<dir> persists every result block as
    /// <dir>/BENCH_<figure>.json (the directory must exist).
    void persist_json(const std::string& document) const
    {
        const char* dir = std::getenv("MGKO_BENCH_JSON_DIR");
        if (dir == nullptr || *dir == '\0') {
            return;
        }
        std::string path{dir};
        if (path.back() != '/') {
            path += '/';
        }
        path += "BENCH_" + figure_ + ".json";
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            std::fprintf(stderr, "mgko-bench: cannot write '%s'\n",
                         path.c_str());
            return;
        }
        std::fprintf(file, "%s\n", document.c_str());
        std::fclose(file);
    }

    std::string figure_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
    int repetitions_;
};

inline std::string fmt(double v, const char* format = "%.4g")
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, v);
    return buffer;
}

inline double geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (const double v : values) {
        log_sum += std::log(std::max(v, 1e-300));
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

inline double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

inline double max_of(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

inline double min_of(const std::vector<double>& values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/// Prints a PASS/NOTE line comparing a measured quantity against the
/// paper's qualitative claim.
inline void check_shape(const char* claim, bool holds, const std::string& detail)
{
    std::printf("[%s] %s — %s\n", holds ? "SHAPE OK" : "SHAPE DEVIATES",
                claim, detail.c_str());
}


/// Opt-in observability for a bench run, dumped when the scope ends:
///   * MGKO_PROFILE — a fresh MetricsLogger attached to the given
///     executors and the binding layer for the scope's lifetime, dumped as
///     its per-tag profile view;
///   * MGKO_TRACE — the shared flight recorder's Chrome trace (the
///     executor factories and the binding layer already feed it; see
///     log::dump_trace for when no file is written);
///   * MGKO_METRICS — the shared metrics logger, attached here as well as
///     by the executor factories, dumped as Prometheus text.
/// Unset variables are no-ops, keeping the measured numbers free of
/// logging overhead beyond the always-on recorder.
class ProfileScope {
public:
    ProfileScope(std::string name,
                 std::vector<std::shared_ptr<Executor>> execs)
        : name_{std::move(name)},
          profile_{env_set("MGKO_PROFILE") ? log::MetricsLogger::create()
                                            : nullptr},
          metrics_{log::metrics_from_env()},
          execs_{std::move(execs)}
    {
        attach(profile_);
        attach(metrics_);
    }

    ~ProfileScope()
    {
        detach(metrics_);
        detach(profile_);
        if (profile_) {
            log::dump_to_env("MGKO_PROFILE", "profile", name_, ".json",
                             profile_->registry().profile_json());
        }
        log::dump_trace(*log::shared_flight_recorder(), name_);
        if (metrics_) {
            log::dump_to_env("MGKO_METRICS", "metrics", name_, ".txt",
                             metrics_->registry().prometheus_text());
        }
    }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

private:
    static bool env_set(const char* var)
    {
        const char* value = std::getenv(var);
        return value != nullptr && *value != '\0';
    }

    // add_logger deduplicates, so attaching the process-wide metrics
    // logger here is harmless when the executor factory already
    // auto-attached it.
    void attach(const std::shared_ptr<log::EventLogger>& logger)
    {
        if (!logger) {
            return;
        }
        for (const auto& exec : execs_) {
            exec->add_logger(logger);
        }
        bind::add_logger(logger);
    }

    void detach(const std::shared_ptr<log::EventLogger>& logger)
    {
        if (!logger) {
            return;
        }
        bind::remove_logger(logger.get());
        for (const auto& exec : execs_) {
            exec->remove_logger(logger.get());
        }
    }

    std::string name_;
    std::shared_ptr<log::MetricsLogger> profile_;
    std::shared_ptr<log::MetricsLogger> metrics_;
    std::vector<std::shared_ptr<Executor>> execs_;
};


}  // namespace mgko::bench
