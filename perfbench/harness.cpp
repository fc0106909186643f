#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

namespace perfbench {


Args parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value after " + flag);
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            args.trace = value == "1";
        } else if (flag == "--out") {
            args.out_dir = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload) {
        throw std::invalid_argument("--workload is required");
    }
    if (!(args.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
    }
    return args;
}


double now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}


double percentile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        throw std::invalid_argument("percentile of an empty sample");
    }
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}


bool percentile_supported(std::size_t n, double q)
{
    // Compare in integers: n * (1 - q) >= 10 with q given to 1e-6.
    const auto beyond_ppm =
        static_cast<long long>(n) *
        static_cast<long long>(std::llround((1.0 - q) * 1e6));
    return beyond_ppm >= 10LL * 1000000LL;
}


double median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}


double peak_rss_mib()
{
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields{line.substr(6)};
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}


int num_cores()
{
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}


void busy_spell(double seconds)
{
    const int n = num_cores();
    std::vector<std::thread> threads;
    std::atomic<double> sink{0.0};
    for (int t = 0; t < n; ++t) {
        threads.emplace_back([seconds, t, &sink] {
            const double end = now_s() + seconds;
            double acc = 1.0 + t;
            while (now_s() < end) {
                for (int i = 0; i < 4096; ++i) {
                    acc = acc * 1.0000001 + 1e-9;
                }
            }
            sink.store(acc, std::memory_order_relaxed);
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
}


HostCsr::HostCsr(const data64& data)
{
    if (data.size.cols > static_cast<mgko::size_type>(
                             std::numeric_limits<std::int32_t>::max())) {
        throw std::invalid_argument("HostCsr: too many columns for int32");
    }
    auto sorted = data;
    sorted.sort_row_major();
    sorted.sum_duplicates();
    rows = static_cast<std::int64_t>(sorted.size.rows);
    row_ptrs.assign(static_cast<std::size_t>(rows + 1), 0);
    cols.reserve(sorted.entries.size());
    values.reserve(sorted.entries.size());
    for (const auto& e : sorted.entries) {
        ++row_ptrs[static_cast<std::size_t>(e.row + 1)];
        cols.push_back(static_cast<std::int32_t>(e.col));
        values.push_back(e.value);
    }
    for (std::int64_t r = 0; r < rows; ++r) {
        row_ptrs[static_cast<std::size_t>(r + 1)] +=
            row_ptrs[static_cast<std::size_t>(r)];
    }
}


void HostCsr::spmv(const double* x, double* y) const
{
    for (std::int64_t r = 0; r < rows; ++r) {
        double sum = 0.0;
        for (auto k = row_ptrs[static_cast<std::size_t>(r)];
             k < row_ptrs[static_cast<std::size_t>(r + 1)]; ++k) {
            const auto i = static_cast<std::size_t>(k);
            sum += values[i] * x[static_cast<std::size_t>(cols[i])];
        }
        y[static_cast<std::size_t>(r)] = sum;
    }
}


double relative_residual(const HostCsr& a, const std::vector<double>& b,
                         const std::vector<double>& x)
{
    const auto n = static_cast<std::size_t>(a.rows);
    if (b.size() != n || x.size() != n) {
        return std::numeric_limits<double>::infinity();
    }
    std::vector<double> ax(n);
    a.spmv(x.data(), ax.data());
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = b[i] - ax[i];
        rr += d * d;
        bb += b[i] * b[i];
    }
    if (!std::isfinite(rr) || bb == 0.0) {
        return std::numeric_limits<double>::infinity();
    }
    return std::sqrt(rr / bb);
}


std::vector<double> stencil_eigenvalues(stencil_kind kind, std::int64_t nx,
                                        std::int64_t ny, std::int64_t nz)
{
    const double pi = std::acos(-1.0);
    const auto cosines = [pi](std::int64_t n) {
        std::vector<double> c(static_cast<std::size_t>(n));
        for (std::int64_t p = 1; p <= n; ++p) {
            c[static_cast<std::size_t>(p - 1)] =
                std::cos(static_cast<double>(p) * pi /
                         static_cast<double>(n + 1));
        }
        return c;
    };
    const auto cx = cosines(nx);
    const auto cy = cosines(ny);
    const auto cz = cosines(nz);
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(nx * ny * nz));
    for (const double a : cx) {
        for (const double b : cy) {
            switch (kind) {
            case stencil_kind::five_point_2d:
                out.push_back(4.0 - 2.0 * a - 2.0 * b);
                break;
            case stencil_kind::nine_point_2d:
                out.push_back(9.0 - (1.0 + 2.0 * a) * (1.0 + 2.0 * b));
                break;
            case stencil_kind::seven_point_3d:
                for (const double c : cz) {
                    out.push_back(6.0 - 2.0 * a - 2.0 * b - 2.0 * c);
                }
                break;
            }
        }
    }
    std::sort(out.begin(), out.end(), std::greater<>{});
    return out;
}


std::string check_ritz_values(const std::vector<double>& ritz,
                              const std::vector<double>& residuals,
                              const std::vector<double>& spectrum,
                              double slack)
{
    if (ritz.size() != residuals.size() || ritz.size() > spectrum.size()) {
        return "ritz/residual/spectrum sizes disagree";
    }
    for (std::size_t i = 0; i < ritz.size(); ++i) {
        if (!std::isfinite(ritz[i]) || !std::isfinite(residuals[i])) {
            return "non-finite Ritz pair " + std::to_string(i);
        }
        if (ritz[i] > spectrum[i] + slack) {
            std::ostringstream msg;
            msg.precision(12);
            msg << "Ritz value " << i << " = " << ritz[i]
                << " exceeds eigenvalue " << spectrum[i];
            return msg.str();
        }
        // Nearest eigenvalue: the spectrum is sorted descending.
        const auto it = std::lower_bound(spectrum.begin(), spectrum.end(),
                                         ritz[i], std::greater<>{});
        double nearest = std::numeric_limits<double>::infinity();
        if (it != spectrum.end()) {
            nearest = std::abs(*it - ritz[i]);
        }
        if (it != spectrum.begin()) {
            nearest = std::min(nearest, std::abs(*(it - 1) - ritz[i]));
        }
        if (nearest > residuals[i] + slack) {
            std::ostringstream msg;
            msg.precision(12);
            msg << "Ritz value " << i << " = " << ritz[i]
                << " is " << nearest << " from the spectrum, beyond its "
                << "residual " << residuals[i];
            return msg.str();
        }
    }
    return {};
}


std::string format_metric_line(const std::string& name, const Metric& m)
{
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    return "metric " + name + " " + value + " " + m.unit +
           " n=" + std::to_string(m.samples);
}


bool is_metric_line(const std::string& line)
{
    static const std::regex grammar{
        R"(metric [A-Za-z0-9][A-Za-z0-9_.\-]{0,63} )"
        R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)? )"
        R"([A-Za-z0-9_/%.\-]{1,16} n=[1-9][0-9]*)"};
    return std::regex_match(line, grammar);
}


void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples)
{
    Metric m{value, unit, std::max<std::size_t>(samples, 1)};
    std::lock_guard<std::mutex> guard{mutex_};
    if (!std::isfinite(value)) {
        ++check_failures_;
        std::cout << "check FAILED: metric " << name << " is not finite\n";
    }
    std::cout << format_metric_line(name, m) << "\n";
    metrics_[name] = std::move(m);
}


void Report::meta(const std::string& key, const std::string& value)
{
    std::lock_guard<std::mutex> guard{mutex_};
    std::cout << "meta " << key << "=" << value << "\n";
}


void Report::meta(const std::string& key, double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.10g", value);
    meta(key, std::string{text});
}


void Report::op(const std::string& failure)
{
    std::lock_guard<std::mutex> guard{mutex_};
    ++attempted_;
    if (!failure.empty()) {
        ++failed_;
        if (printed_failures_++ < 10) {
            std::cout << "check FAILED: " << failure << "\n";
        }
    }
}


void Report::fail(const std::string& failure)
{
    std::lock_guard<std::mutex> guard{mutex_};
    ++check_failures_;
    if (printed_failures_++ < 10) {
        std::cout << "check FAILED: " << failure << "\n";
    }
}


std::string Report::json_line() const
{
    std::lock_guard<std::mutex> guard{mutex_};
    // A run that attempted nothing reports one attempted, failed op.
    const bool none = attempted_ == 0;
    std::ostringstream out;
    out << "{\"correct\": "
        << (!none && failed_ == 0 && check_failures_ == 0 ? "true" : "false")
        << ", \"attempted\": " << (none ? 1 : attempted_)
        << ", \"failed\": " << (none ? 1 : failed_) << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}


CpuTimes cpu_times()
{
    std::ifstream stat{"/proc/stat"};
    std::string cpu;
    double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    stat >> cpu;
    for (auto& f : fields) {
        stat >> f;
    }
    // user nice system idle iowait irq softirq steal, in clock ticks.
    static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
    if (cpu != "cpu" || ticks <= 0) {
        return {};
    }
    const double steal = fields[7];
    const double busy = fields[0] + fields[1] + fields[2] + fields[5] +
                        fields[6] + steal;
    return {steal / ticks, busy / ticks};
}


StealMeter::StealMeter() { readings_.push_back({now_s(), cpu_times()}); }


bool StealMeter::due() const { return now_s() - readings_.back().t >= 1.0; }


bool StealMeter::tick()
{
    if (!due()) {
        return false;
    }
    readings_.push_back({now_s(), cpu_times()});
    return true;
}


void StealMeter::resume()
{
    const double t = now_s();
    paused_s_ += t - readings_.back().t;
    readings_.push_back({t, cpu_times(), true});
}


double StealMeter::measured_s() const
{
    return now_s() - readings_.front().t - paused_s_;
}


SetupSample SetupTimer::stop() const
{
    const double seconds = now_s() - t0_;
    const auto cpu = cpu_times();
    const double busy = cpu.busy - cpu0_.busy;
    return {seconds, busy > 0 ? (cpu.steal - cpu0_.steal) / busy : 0.0};
}


double quiet_median(const std::vector<SetupSample>& builds,
                    std::size_t& chosen)
{
    auto ranked = builds;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const SetupSample& a, const SetupSample& b) {
                         return a.steal_share < b.steal_share;
                     });
    chosen = (ranked.size() + 1) / 2;
    std::vector<double> seconds;
    for (std::size_t i = 0; i < chosen; ++i) {
        seconds.push_back(ranked[i].seconds);
    }
    return median(std::move(seconds));
}


void StealMeter::close() { readings_.push_back({now_s(), cpu_times()}); }


void report_end_to_end(Report& report, const std::vector<OpSample>& samples,
                       const StealMeter& steal)
{
    const auto& r = steal.readings();
    struct Slice {
        double begin, end, steal, steal_share;
    };
    std::vector<Slice> slices;
    double window = 0.0;
    double total_steal = 0.0;
    for (std::size_t i = 0; i + 1 < r.size(); ++i) {
        if (r[i + 1].after_pause) {
            continue;
        }
        window += r[i + 1].t - r[i].t;
        const double steal = r[i + 1].cpu.steal - r[i].cpu.steal;
        const double busy = r[i + 1].cpu.busy - r[i].cpu.busy;
        total_steal += steal;
        slices.push_back(
            {r[i].t, r[i + 1].t, steal, busy > 0 ? steal / busy : 0.0});
    }
    if (slices.empty()) {
        report.fail("measured window has no steal slices");
        return;
    }
    // Quieter half: rank by steal as a share of busy CPU time, which takes
    // the program's own CPU demand out of the ranking (stable, so ties keep
    // time order); keep ceil(n / 2).
    std::vector<std::size_t> order(slices.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return slices[a].steal_share < slices[b].steal_share;
    });
    std::vector<bool> chosen(slices.size(), false);
    double chosen_length = 0.0;
    double chosen_steal = 0.0;
    for (std::size_t k = 0; k < (slices.size() + 1) / 2; ++k) {
        const auto& s = slices[order[k]];
        chosen[order[k]] = true;
        chosen_length += s.end - s.begin;
        chosen_steal += s.steal;
    }
    std::vector<double> ms;
    std::size_t ops = 0;
    for (const auto& sample : samples) {
        // Slice of the op's completion: the last one starting before it.
        const auto it = std::upper_bound(
            slices.begin(), slices.end(), sample.end_s,
            [](double t, const Slice& s) { return t < s.begin; });
        if (it == slices.begin()) {
            continue;
        }
        const auto k = static_cast<std::size_t>(it - slices.begin()) - 1;
        if (sample.end_s > slices[k].end || !chosen[k]) {
            continue;
        }
        ++ops;
        if (sample.latency_class) {
            ms.push_back(sample.seconds * 1e3);
        }
    }
    report.meta("window_s", window);
    report.meta("slices", static_cast<double>(slices.size()));
    report.meta("slices_chosen", static_cast<double>((slices.size() + 1) / 2));
    // Steal as a share of the VM's CPU time.
    const double cpus = num_cores();
    report.meta("steal_pct_window", 100.0 * total_steal / (window * cpus));
    report.meta("steal_pct_chosen",
                100.0 * chosen_steal / (chosen_length * cpus));
    if (!percentile_supported(ms.size(), 0.9)) {
        report.fail("only " + std::to_string(ms.size()) +
                    " latency samples in the chosen slices: p90 needs 100");
        return;
    }
    report.metric("solve_p50_ms", percentile(ms, 0.5), "ms", ms.size());
    report.metric("solve_p90_ms", percentile(ms, 0.9), "ms", ms.size());
    report.metric("ops_per_s", static_cast<double>(ops) / chosen_length, "1/s",
                  ops);
}


// --- Tracer ------------------------------------------------------------------

namespace {

/// Open spans of this thread as (span id, op id); children inherit the op.
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> open_spans;

}  // namespace


Tracer::Tracer() : origin_s_{now_s()} {}


Tracer& Tracer::get()
{
    static Tracer tracer;
    return tracer;
}


double Tracer::now_us() const { return (now_s() - origin_s_) * 1e6; }


int Tracer::thread_track()
{
    static std::atomic<int> next{0};
    thread_local const int track = ++next;
    return track;
}


void Tracer::record(Event event)
{
    std::lock_guard<std::mutex> guard{mutex_};
    events_.push_back(std::move(event));
}


void Tracer::counters(const std::string& name,
                      std::vector<std::pair<std::string, double>> values)
{
    if (!enabled()) {
        return;
    }
    record({name, 'C', now_us(), thread_track(), 0, 0, 0, std::move(values)});
}


std::size_t Tracer::num_spans() const
{
    std::lock_guard<std::mutex> guard{mutex_};
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const Event& e) { return e.phase == 'B'; }));
}


void Tracer::write_chrome_trace(const std::string& path) const
{
    std::lock_guard<std::mutex> guard{mutex_};
    std::ofstream out{path};
    out.precision(15);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const auto& e : events_) {
        out << (first ? "\n" : ",\n") << "{\"name\": \"" << e.name
            << "\", \"ph\": \"" << e.phase << "\", \"ts\": " << e.ts_us
            << ", \"pid\": 1, \"tid\": " << e.tid;
        first = false;
        if (e.phase == 'B') {
            out << ", \"args\": {\"span\": " << e.id
                << ", \"parent\": " << e.parent << ", \"op\": " << e.op
                << "}";
        } else if (e.phase == 'C') {
            out << ", \"args\": {";
            for (std::size_t i = 0; i < e.values.size(); ++i) {
                out << (i ? ", " : "") << "\"" << e.values[i].first
                    << "\": " << e.values[i].second;
            }
            out << "}";
        }
        out << "}";
    }
    out << "\n]}\n";
}


ScopedSpan::ScopedSpan(const char* name, std::uint64_t op)
    : name_{name}, op_{op}
{
    auto& tracer = Tracer::get();
    if (!tracer.enabled()) {
        return;
    }
    id_ = tracer.next_id();
    std::uint64_t parent = 0;
    if (!open_spans.empty()) {
        parent = open_spans.back().first;
        if (op_ == 0) {
            op_ = open_spans.back().second;
        }
    }
    open_spans.emplace_back(id_, op_);
    tracer.record({name_, 'B', tracer.now_us(), Tracer::thread_track(), id_,
                   parent, op_, {}});
}


ScopedSpan::~ScopedSpan()
{
    if (id_ == 0) {
        return;
    }
    auto& tracer = Tracer::get();
    open_spans.pop_back();
    tracer.record(
        {name_, 'E', tracer.now_us(), Tracer::thread_track(), 0, 0, 0, {}});
}


}  // namespace perfbench
