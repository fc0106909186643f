#include "log/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "batch/batch_log.hpp"
#include "log/dump_path.hpp"
#include "log/trace_context.hpp"

namespace mgko::log {

namespace {

/// A Prometheus sample value: integers without a fraction, others with
/// three decimals, and the exposition format's NaN / +Inf / -Inf.
std::string format_value(double value)
{
    if (std::isnan(value)) {
        return "NaN";
    }
    if (std::isinf(value)) {
        return value > 0 ? "+Inf" : "-Inf";
    }
    const bool integral =
        value > -1e15 && value < 1e15 &&
        value == static_cast<double>(static_cast<std::int64_t>(value));
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(integral ? 0 : 3);
    out << value;
    return out.str();
}

/// Upper bound of log2 bucket `i` as a label; the last bucket is +Inf.
std::string bucket_bound(size_type i)
{
    if (i + 1 >= MetricsRegistry::num_buckets) {
        return "+Inf";
    }
    return std::to_string(std::uint64_t{1} << i);
}

size_type bucket_index(double value)
{
    size_type i = 0;
    double bound = 1.0;
    while (i + 1 < MetricsRegistry::num_buckets && value > bound) {
        bound *= 2.0;
        ++i;
    }
    return i;
}

std::string label_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

}  // namespace


std::string MetricsRegistry::exemplar::trace_id_hex() const
{
    std::string out;
    out.reserve(32);
    for (const std::uint64_t word : {trace_high, trace_low}) {
        for (int shift = 60; shift >= 0; shift -= 4) {
            const auto nibble = (word >> shift) & 0xF;
            out += static_cast<char>(nibble < 10 ? '0' + nibble
                                                 : 'a' + (nibble - 10));
        }
    }
    return out;
}


double MetricsRegistry::histogram::quantile(double q) const
{
    if (count == 0) {
        return 0.0;
    }
    q = std::min(std::max(q, 0.0), 1.0);
    const double target = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (size_type i = 0; i < num_buckets; ++i) {
        if (buckets[i] == 0) {
            continue;
        }
        const double below = static_cast<double>(cumulative);
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) < target) {
            continue;
        }
        // Rank `target` falls inside bucket i, which covers
        // (2^(i-1), 2^i] (bucket 0 covers [0, 1], the last bucket is
        // +Inf and capped at twice its lower bound for interpolation).
        const double lower =
            i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
        const double upper = std::ldexp(1.0, static_cast<int>(i));
        // The continue above guarantees buckets[i] > 0, but keep the
        // interpolation division explicitly guarded: a zero divisor here
        // would turn a scrape into NaN text for every quantile series.
        const double fraction =
            buckets[i] > 0
                ? (target - below) / static_cast<double>(buckets[i])
                : 0.0;
        return lower + fraction * (upper - lower);
    }
    return std::ldexp(1.0, static_cast<int>(num_buckets));
}


// --- MetricsRegistry -------------------------------------------------------

void MetricsRegistry::inc_counter(const std::string& name,
                                  const std::string& tag, double delta)
{
    std::lock_guard<std::mutex> guard{mutex_};
    counters_[name][tag] += delta;
}


void MetricsRegistry::set_gauge(const std::string& name,
                                const std::string& tag, double value)
{
    std::lock_guard<std::mutex> guard{mutex_};
    gauges_[name][tag] = value;
}


void MetricsRegistry::add_gauge(const std::string& name,
                                const std::string& tag, double delta)
{
    std::lock_guard<std::mutex> guard{mutex_};
    gauges_[name][tag] += delta;
}


void MetricsRegistry::observe(const std::string& name, const std::string& tag,
                              double value)
{
    std::lock_guard<std::mutex> guard{mutex_};
    auto& h = histograms_[name][tag];
    const size_type bucket = bucket_index(value);
    ++h.buckets[bucket];
    ++h.count;
    h.sum += value;
    // Last-observation-wins exemplar per bucket, written under the same
    // mutex every scrape and reset takes: an exemplar's trace id can
    // never tear across a concurrent prometheus_text().
    const auto ctx = current_trace_context();
    if (ctx.sampled && ctx.valid()) {
        h.exemplars[bucket] = {ctx.trace_high, ctx.trace_low, value};
    }
}


void MetricsRegistry::declare_histogram(const std::string& name,
                                        const std::string& tag)
{
    std::lock_guard<std::mutex> guard{mutex_};
    histograms_[name][tag];
}


double MetricsRegistry::counter_value(const std::string& name,
                                      const std::string& tag) const
{
    std::lock_guard<std::mutex> guard{mutex_};
    auto family = counters_.find(name);
    if (family == counters_.end()) {
        return 0.0;
    }
    auto it = family->second.find(tag);
    return it == family->second.end() ? 0.0 : it->second;
}


double MetricsRegistry::gauge_value(const std::string& name,
                                    const std::string& tag) const
{
    std::lock_guard<std::mutex> guard{mutex_};
    auto family = gauges_.find(name);
    if (family == gauges_.end()) {
        return 0.0;
    }
    auto it = family->second.find(tag);
    return it == family->second.end() ? 0.0 : it->second;
}


MetricsRegistry::histogram MetricsRegistry::histogram_snapshot(
    const std::string& name, const std::string& tag) const
{
    std::lock_guard<std::mutex> guard{mutex_};
    auto family = histograms_.find(name);
    if (family == histograms_.end()) {
        return {};
    }
    auto it = family->second.find(tag);
    return it == family->second.end() ? histogram{} : it->second;
}


std::string MetricsRegistry::prometheus_text() const
{
    std::lock_guard<std::mutex> guard{mutex_};
    std::ostringstream out;
    for (const auto& [name, tags] : counters_) {
        out << "# TYPE " << name << " counter\n";
        for (const auto& [tag, value] : tags) {
            out << name << "{tag=\"" << label_escape(tag)
                << "\"} " << format_value(value) << "\n";
        }
    }
    for (const auto& [name, tags] : gauges_) {
        out << "# TYPE " << name << " gauge\n";
        for (const auto& [tag, value] : tags) {
            out << name << "{tag=\"" << label_escape(tag)
                << "\"} " << format_value(value) << "\n";
        }
    }
    for (const auto& [name, tags] : histograms_) {
        out << "# TYPE " << name << " histogram\n";
        for (const auto& [tag, h] : tags) {
            const auto label = label_escape(tag);
            std::uint64_t cumulative = 0;
            for (size_type i = 0; i < num_buckets; ++i) {
                cumulative += h.buckets[i];
                // Prometheus buckets are cumulative; skip interior empties
                // to keep the exposition readable but always emit +Inf.
                // A zero-observation histogram (declared but never
                // observed) emits its full bucket ladder instead: an
                // exposition with only {le="+Inf"} 0 breaks
                // histogram_quantile() and recording rules that expect a
                // stable bucket set from first scrape.
                if (h.count > 0 && h.buckets[i] == 0 &&
                    i + 1 < num_buckets) {
                    continue;
                }
                out << name << "_bucket{tag=\"" << label << "\",le=\""
                    << bucket_bound(i) << "\"} " << cumulative;
                // OpenMetrics exemplar: the last sampled request that
                // landed in this bucket, as a navigable trace id.
                if (h.exemplars[i].valid()) {
                    out << " # {trace_id=\""
                        << h.exemplars[i].trace_id_hex() << "\"} "
                        << format_value(h.exemplars[i].value);
                }
                out << "\n";
            }
            out << name << "_sum{tag=\"" << label << "\"} "
                << format_value(h.sum) << "\n";
            out << name << "_count{tag=\"" << label << "\"} " << h.count
                << "\n";
            // Summary-style quantile estimates alongside the buckets, so
            // dashboards can plot p99 without a histogram_quantile().
            static constexpr const char* quantile_labels[] = {"0.5", "0.95",
                                                              "0.99"};
            static constexpr double quantile_values[] = {0.5, 0.95, 0.99};
            for (int qi = 0; qi < 3; ++qi) {
                out << name << "{tag=\"" << label << "\",quantile=\""
                    << quantile_labels[qi] << "\"} "
                    << format_value(h.quantile(quantile_values[qi])) << "\n";
            }
        }
    }
    return out.str();
}


std::string MetricsRegistry::to_json() const
{
    std::lock_guard<std::mutex> guard{mutex_};
    std::ostringstream out;
    auto dump_families = [&](const std::map<std::string, tag_map>& families) {
        bool first_family = true;
        out << "{";
        for (const auto& [name, tags] : families) {
            out << (first_family ? "" : ", ") << "\"" << name << "\": {";
            first_family = false;
            bool first_tag = true;
            for (const auto& [tag, value] : tags) {
                out << (first_tag ? "" : ", ") << "\"" << label_escape(tag)
                    << "\": " << json_number(value);
                first_tag = false;
            }
            out << "}";
        }
        out << "}";
    };
    out << "{\"counters\": ";
    dump_families(counters_);
    out << ", \"gauges\": ";
    dump_families(gauges_);
    out << ", \"histograms\": {";
    bool first_family = true;
    for (const auto& [name, tags] : histograms_) {
        out << (first_family ? "" : ", ") << "\"" << name << "\": {";
        first_family = false;
        bool first_tag = true;
        for (const auto& [tag, h] : tags) {
            out << (first_tag ? "" : ", ") << "\"" << label_escape(tag)
                << "\": {\"count\": " << h.count
                << ", \"sum\": " << json_number(h.sum)
                << ", \"p50\": " << json_number(h.quantile(0.5))
                << ", \"p95\": " << json_number(h.quantile(0.95))
                << ", \"p99\": " << json_number(h.quantile(0.99))
                << ", \"buckets\": {";
            first_tag = false;
            bool first_bucket = true;
            for (size_type i = 0; i < num_buckets; ++i) {
                if (h.buckets[i] == 0) {
                    continue;
                }
                out << (first_bucket ? "" : ", ") << "\"" << bucket_bound(i)
                    << "\": " << h.buckets[i];
                first_bucket = false;
            }
            out << "}}";
        }
        out << "}";
    }
    out << "}}";
    return out.str();
}


std::string MetricsRegistry::profile_json() const
{
    struct row {
        double count{0.0};
        double wall_ns{0.0};
        double bytes{0.0};
        double flops{0.0};
        double work_bytes{0.0};
    };
    std::lock_guard<std::mutex> guard{mutex_};
    std::map<std::string, row> rows;
    auto add = [&](const char* family, double row::*field) {
        if (auto it = counters_.find(family); it != counters_.end()) {
            for (const auto& [tag, value] : it->second) {
                rows[tag].*field += value;
            }
        }
    };
    add("mgko_events_total", &row::count);
    add("mgko_bytes_total", &row::bytes);
    add("mgko_batch_systems_total", &row::bytes);
    add("mgko_flops_total", &row::flops);
    add("mgko_work_bytes_total", &row::work_bytes);
    add("mgko_binding_overhead_ns_total", &row::wall_ns);
    if (auto it = histograms_.find("mgko_latency_ns");
        it != histograms_.end()) {
        for (const auto& [tag, h] : it->second) {
            rows[tag].wall_ns += h.sum;
        }
    }
    // Each bound call adds one sample to every breakdown channel; the
    // channels carry no events of their own.
    if (auto it = counters_.find("mgko_binding_overhead_ns_total");
        it != counters_.end()) {
        double bound_calls = 0.0;
        for (const auto& [tag, r] : rows) {
            if (tag.rfind("bind.", 0) == 0) {
                bound_calls += r.count;
            }
        }
        for (const auto& [tag, value] : it->second) {
            rows[tag].count = bound_calls;
        }
    }
    std::ostringstream out;
    out << "{\"tags\": {";
    bool first = true;
    for (const auto& [tag, r] : rows) {
        const double gflops = r.wall_ns > 0.0 ? r.flops / r.wall_ns : 0.0;
        const double gbps = r.wall_ns > 0.0 ? r.work_bytes / r.wall_ns : 0.0;
        out << (first ? "" : ", ") << "\"" << label_escape(tag)
            << "\": {\"count\": " << json_number(r.count)
            << ", \"wall_ns\": " << json_number(r.wall_ns)
            << ", \"bytes\": " << json_number(r.bytes)
            << ", \"flops\": " << json_number(r.flops)
            << ", \"work_bytes\": " << json_number(r.work_bytes)
            << ", \"gflops\": " << json_number(gflops)
            << ", \"gbps\": " << json_number(gbps) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}


void MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> guard{mutex_};
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}


// --- MetricsLogger ---------------------------------------------------------

void MetricsLogger::on_allocation_completed(const Executor*, size_type bytes,
                                            const void*)
{
    registry_.inc_counter("mgko_events_total", "mem.alloc");
    registry_.inc_counter("mgko_bytes_total", "mem.alloc",
                          static_cast<double>(bytes));
    registry_.add_gauge("mgko_outstanding_allocs", "mem", 1.0);
}

void MetricsLogger::on_free_completed(const Executor*, const void*)
{
    registry_.inc_counter("mgko_events_total", "mem.free");
    registry_.add_gauge("mgko_outstanding_allocs", "mem", -1.0);
}

void MetricsLogger::on_copy_completed(const Executor*, const Executor*,
                                      size_type bytes)
{
    registry_.inc_counter("mgko_events_total", "mem.copy");
    registry_.inc_counter("mgko_bytes_total", "mem.copy",
                          static_cast<double>(bytes));
}

void MetricsLogger::on_pool_hit(const Executor*, size_type bytes)
{
    registry_.inc_counter("mgko_events_total", "pool.hit");
    registry_.inc_counter("mgko_bytes_total", "pool.hit",
                          static_cast<double>(bytes));
}

void MetricsLogger::on_pool_miss(const Executor*, size_type bytes)
{
    registry_.inc_counter("mgko_events_total", "pool.miss");
    registry_.inc_counter("mgko_bytes_total", "pool.miss",
                          static_cast<double>(bytes));
}

void MetricsLogger::on_pool_trim(const Executor*, size_type bytes_released)
{
    registry_.inc_counter("mgko_events_total", "pool.trim");
    registry_.inc_counter("mgko_bytes_total", "pool.trim",
                          static_cast<double>(bytes_released));
}

void MetricsLogger::on_operation_completed(const Executor*,
                                           const char* op_name,
                                           double wall_ns, double flops,
                                           double bytes)
{
    const std::string tag = std::string{"op."} + op_name;
    registry_.inc_counter("mgko_events_total", tag);
    registry_.inc_counter("mgko_flops_total", tag, flops);
    registry_.inc_counter("mgko_work_bytes_total", tag, bytes);
    registry_.observe("mgko_latency_ns", tag, wall_ns);
}

void MetricsLogger::on_span_begin(const char* name)
{
    registry_.inc_counter("mgko_events_total",
                          std::string{"span."} + name);
    registry_.add_gauge("mgko_open_spans", name, 1.0);
}

void MetricsLogger::on_span_end(const char* name)
{
    registry_.add_gauge("mgko_open_spans", name, -1.0);
}

void MetricsLogger::on_iteration_complete(const LinOp*, size_type,
                                          double residual_norm)
{
    registry_.inc_counter("mgko_events_total", "solver.iteration");
    registry_.set_gauge("mgko_residual_norm", "solver", residual_norm);
}

void MetricsLogger::on_solver_stop(const LinOp*, size_type iterations,
                                   bool converged, const char*)
{
    registry_.inc_counter("mgko_events_total", "solver.stop");
    registry_.inc_counter(
        "mgko_events_total",
        converged ? "solver.stop.converged" : "solver.stop.unconverged");
    registry_.observe("mgko_solver_iterations", "solver",
                      static_cast<double>(iterations));
}

void MetricsLogger::on_batch_iteration_complete(const batch::BatchLinOp*,
                                                size_type,
                                                size_type active_systems,
                                                double max_residual_norm)
{
    registry_.inc_counter("mgko_events_total", "batch.iteration");
    registry_.inc_counter("mgko_batch_systems_total", "batch.iteration",
                          static_cast<double>(active_systems));
    registry_.set_gauge("mgko_residual_norm", "batch", max_residual_norm);
    registry_.set_gauge("mgko_active_systems", "batch",
                        static_cast<double>(active_systems));
}

void MetricsLogger::on_batch_solver_stop(
    const batch::BatchLinOp*, size_type num_systems,
    size_type converged_systems, size_type,
    const batch::BatchConvergenceLogger* per_system)
{
    registry_.inc_counter("mgko_events_total", "batch.stop");
    registry_.inc_counter("mgko_batch_systems_total", "batch.stop",
                          static_cast<double>(num_systems));
    registry_.inc_counter("mgko_batch_systems_total", "batch.stop.converged",
                          static_cast<double>(converged_systems));
    if (per_system != nullptr) {
        for (size_type s = 0; s < per_system->num_systems(); ++s) {
            registry_.inc_counter(
                "mgko_batch_systems_total",
                std::string{"batch.stop."} + per_system->stop_reason(s));
        }
    }
}

void MetricsLogger::on_binding_call_completed(const char* name,
                                              double wall_ns,
                                              double gil_wait_ns,
                                              double lookup_ns,
                                              double boxing_ns,
                                              double interpreter_ns)
{
    const std::string tag = std::string{"bind."} + name;
    registry_.inc_counter("mgko_events_total", tag);
    registry_.observe("mgko_latency_ns", tag, wall_ns);
    registry_.inc_counter("mgko_binding_overhead_ns_total", "bind.gil_wait",
                          gil_wait_ns);
    registry_.inc_counter("mgko_binding_overhead_ns_total", "bind.lookup",
                          lookup_ns);
    registry_.inc_counter("mgko_binding_overhead_ns_total", "bind.boxing",
                          boxing_ns);
    registry_.inc_counter("mgko_binding_overhead_ns_total",
                          "bind.interpreter", interpreter_ns);
}


// --- MGKO_METRICS switch ---------------------------------------------------

std::shared_ptr<MetricsLogger> shared_metrics()
{
    // Never destroyed, like the recorder: an env-started telemetry server
    // keeps serving while function-local statics are destroyed at exit, so
    // a scrape must not find the registry freed.  A union member's
    // destructor runs only if the union's destructor calls it.
    static union holder {
        holder() : metrics{MetricsLogger::create()} {}
        ~holder() {}
        std::shared_ptr<MetricsLogger> metrics;
    } held;
    return held.metrics;
}


std::shared_ptr<MetricsLogger> metrics_from_env()
{
    const char* value = std::getenv("MGKO_METRICS");
    if (value == nullptr || *value == '\0') {
        return nullptr;
    }
    return shared_metrics();
}


namespace {

std::atomic<bool> metrics_exported{false};

}  // namespace


void set_shared_metrics_exported(bool exported)
{
    metrics_exported.store(exported);
}


bool shared_metrics_exported() { return metrics_exported.load(); }


}  // namespace mgko::log
