#include "log/hw_counters.hpp"

#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

#include "core/exception.hpp"
#include "log/dump_path.hpp"

namespace mgko::log {

namespace {

enum class rung { off, perf_event, rusage };

std::atomic<rung> active_rung{rung::off};

struct hw_registry {
    std::mutex mutex;
    std::map<std::string, hw_totals> totals;
};

hw_registry& registry()
{
    // Leaked for the same reason as the profiler registry: scopes on
    // server worker threads can close during process teardown.
    static hw_registry* instance = new hw_registry;
    return *instance;
}

double steady_now_ns()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double thread_cpu_ns()
{
    // Prefer the per-thread CPU clock: nanosecond resolution, where
    // getrusage advances in scheduler-tick quanta (~1-4 ms) — far too
    // coarse to attribute the microsecond-scale scopes around individual
    // kernel dispatches.
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) * 1e9 +
               static_cast<double>(ts.tv_nsec);
    }
#endif
    rusage usage{};
#if defined(RUSAGE_THREAD)
    if (::getrusage(RUSAGE_THREAD, &usage) != 0) {
        return 0.0;
    }
#else
    if (::getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0.0;
    }
#endif
    const auto to_ns = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e9 +
               static_cast<double>(tv.tv_usec) * 1e3;
    };
    return to_ns(usage.ru_utime) + to_ns(usage.ru_stime);
}


#if defined(__linux__)

long perf_open(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
               unsigned long flags)
{
    return ::syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr hw_attr(std::uint64_t config, bool leader)
{
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = config;
    // The group leader starts disabled and is enabled (with its siblings)
    // in one ioctl, so all three counters cover the same window.
    attr.disabled = leader ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    return attr;
}

/// The calling thread's counter group: cycles (leader), instructions,
/// LLC misses.  Opened lazily per thread; closed by the TLS holder when
/// the thread exits.
struct perf_group {
    int leader{-1};
    int instructions{-1};
    int cache_misses{-1};
    bool tried{false};

    bool open()
    {
        tried = true;
        auto leader_attr = hw_attr(PERF_COUNT_HW_CPU_CYCLES, true);
        const long fd = perf_open(&leader_attr, 0, -1, -1, 0);
        if (fd < 0) {
            return false;
        }
        leader = static_cast<int>(fd);
        auto instr_attr = hw_attr(PERF_COUNT_HW_INSTRUCTIONS, false);
        instructions =
            static_cast<int>(perf_open(&instr_attr, 0, -1, leader, 0));
        auto miss_attr = hw_attr(PERF_COUNT_HW_CACHE_MISSES, false);
        cache_misses =
            static_cast<int>(perf_open(&miss_attr, 0, -1, leader, 0));
        ::ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ::ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        return true;
    }

    void close()
    {
        for (int fd : {leader, instructions, cache_misses}) {
            if (fd >= 0) {
                ::close(fd);
            }
        }
        leader = instructions = cache_misses = -1;
        tried = false;
    }

    ~perf_group() { close(); }

    /// Fills the event counts from one group read; counters that failed
    /// to open read as zero (the group layout skips them).
    void read_into(hw_sample& sample)
    {
        if (leader < 0) {
            return;
        }
        // PERF_FORMAT_GROUP layout: u64 nr, then one u64 per member in
        // open order.
        std::uint64_t buffer[4] = {0, 0, 0, 0};
        if (::read(leader, buffer, sizeof(buffer)) < 0) {
            return;
        }
        const std::uint64_t nr = buffer[0];
        std::size_t next = 1;
        if (nr >= 1) {
            sample.cycles = static_cast<double>(buffer[next++]);
        }
        if (nr >= 2 && instructions >= 0) {
            sample.instructions = static_cast<double>(buffer[next++]);
        }
        if (nr >= 3 && cache_misses >= 0) {
            sample.llc_misses = static_cast<double>(buffer[next++]);
        }
    }
};

thread_local perf_group tl_perf_group;

bool probe_perf_event()
{
    auto attr = hw_attr(PERF_COUNT_HW_CPU_CYCLES, true);
    const long fd = perf_open(&attr, 0, -1, -1, 0);
    if (fd < 0) {
        // Any refusal — ENOENT/ENOSYS (no PMU or syscall), EPERM/EACCES
        // (perf_event_paranoid), EINVAL (no hardware events) — demotes to
        // the rusage rung rather than failing the tier.
        return false;
    }
    ::close(static_cast<int>(fd));
    return true;
}

void thread_perf_read(hw_sample& sample)
{
    if (!tl_perf_group.tried) {
        tl_perf_group.open();
    }
    tl_perf_group.read_into(sample);
}

#else  // !__linux__

bool probe_perf_event() { return false; }
void thread_perf_read(hw_sample&) {}

#endif

void hw_counters_from_env_impl()
{
    const char* value = std::getenv("MGKO_HW_COUNTERS");
    if (value == nullptr || *value == '\0' || std::strcmp(value, "0") == 0 ||
        std::strcmp(value, "off") == 0 || std::strcmp(value, "OFF") == 0) {
        return;
    }
    try {
        hw_counters_enable(value);
    } catch (const BadParameter&) {
        std::fprintf(stderr, "mgko: MGKO_HW_COUNTERS='%s' is not a mode\n",
                     value);
    }
}

}  // namespace


// --- readings and scopes ---------------------------------------------------

hw_sample hw_read_now()
{
    hw_sample sample{};
    sample.wall_ns = steady_now_ns();
    sample.cpu_ns = thread_cpu_ns();
    if (active_rung.load(std::memory_order_relaxed) == rung::perf_event) {
        thread_perf_read(sample);
    }
    return sample;
}


HwCounterScope::HwCounterScope(const char* tag)
{
    if (active_rung.load(std::memory_order_relaxed) == rung::off) {
        return;
    }
    tag_ = tag != nullptr ? tag : "<null>";
    begin_ = hw_read_now();
}


HwCounterScope::~HwCounterScope()
{
    if (tag_ == nullptr) {
        return;
    }
    if (active_rung.load(std::memory_order_relaxed) == rung::off) {
        return;  // disabled mid-scope: drop the partial measurement
    }
    const hw_sample delta = hw_read_now() - begin_;
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    auto& totals = reg.totals[tag_];
    totals.cycles += std::max(delta.cycles, 0.0);
    totals.instructions += std::max(delta.instructions, 0.0);
    totals.llc_misses += std::max(delta.llc_misses, 0.0);
    totals.cpu_ns += std::max(delta.cpu_ns, 0.0);
    totals.wall_ns += std::max(delta.wall_ns, 0.0);
    ++totals.count;
}


// --- process-wide control --------------------------------------------------

bool hw_counters_enable(const std::string& mode)
{
    if (mode == "rusage") {
        active_rung.store(rung::rusage, std::memory_order_release);
        return true;
    }
    if (mode != "auto" && mode != "perf" && mode != "on" && mode != "1") {
        throw BadParameter(__FILE__, __LINE__,
                           "hw_counters mode must be \"auto\", \"perf\", "
                           "\"on\", \"1\" or \"rusage\", got \"" +
                               mode + "\"");
    }
    active_rung.store(probe_perf_event() ? rung::perf_event : rung::rusage,
                      std::memory_order_release);
    return true;
}


void hw_counters_disable()
{
    active_rung.store(rung::off, std::memory_order_release);
}


bool hw_counters_active()
{
    return active_rung.load(std::memory_order_acquire) != rung::off;
}


const char* hw_counters_source()
{
    switch (active_rung.load(std::memory_order_acquire)) {
    case rung::perf_event:
        return "perf_event";
    case rung::rusage:
        return "rusage";
    case rung::off:
        break;
    }
    return "off";
}


std::map<std::string, hw_totals> hw_counters_snapshot()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    return reg.totals;
}


void hw_counters_reset()
{
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    reg.totals.clear();
}


// --- exports ---------------------------------------------------------------

std::string hw_counters_json()
{
    const auto totals = hw_counters_snapshot();
    std::ostringstream out;
    out << "{\"source\": \"" << hw_counters_source()
        << "\", \"active\": " << (hw_counters_active() ? "true" : "false")
        << ", \"tags\": {";
    bool first = true;
    for (const auto& [tag, t] : totals) {
        const double gips =
            t.cpu_ns > 0.0 ? t.instructions / t.cpu_ns : 0.0;
        const double llc_gbps =
            t.cpu_ns > 0.0 ? t.llc_misses * 64.0 / t.cpu_ns : 0.0;
        out << (first ? "" : ", ") << "\"" << tag
            << "\": {\"count\": " << t.count
            << ", \"cycles\": " << json_number(t.cycles)
            << ", \"instructions\": " << json_number(t.instructions)
            << ", \"llc_misses\": " << json_number(t.llc_misses)
            << ", \"cpu_ns\": " << json_number(t.cpu_ns)
            << ", \"wall_ns\": " << json_number(t.wall_ns)
            << ", \"gips_proxy\": " << json_number(gips)
            << ", \"llc_gbps_proxy\": " << json_number(llc_gbps) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}


std::string hw_counters_prometheus()
{
    std::ostringstream out;
    out << "# TYPE mgko_hw_active gauge\n";
    out << "mgko_hw_active " << (hw_counters_active() ? 1 : 0) << "\n";
    out << "# TYPE mgko_hw_source gauge\n";
    out << "mgko_hw_source{source=\"" << hw_counters_source() << "\"} 1\n";
    const auto totals = hw_counters_snapshot();
    if (totals.empty()) {
        return out.str();
    }
    const auto emit = [&](const char* series, auto value_of) {
        out << "# TYPE " << series << " counter\n";
        for (const auto& [tag, t] : totals) {
            out << series << "{kernel=\"" << tag
                << "\"} " << json_number(value_of(t)) << "\n";
        }
    };
    emit("mgko_hw_cycles_total",
         [](const hw_totals& t) { return t.cycles; });
    emit("mgko_hw_instructions_total",
         [](const hw_totals& t) { return t.instructions; });
    emit("mgko_hw_llc_misses_total",
         [](const hw_totals& t) { return t.llc_misses; });
    emit("mgko_hw_cpu_ns_total",
         [](const hw_totals& t) { return t.cpu_ns; });
    emit("mgko_hw_wall_ns_total",
         [](const hw_totals& t) { return t.wall_ns; });
    emit("mgko_hw_scopes_total", [](const hw_totals& t) {
        return static_cast<double>(t.count);
    });
    return out.str();
}


void hw_counters_from_env()
{
    static std::once_flag once;
    std::call_once(once, hw_counters_from_env_impl);
}


}  // namespace mgko::log
