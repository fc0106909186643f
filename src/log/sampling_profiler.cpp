#include "log/sampling_profiler.hpp"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "log/tag_table.hpp"

namespace mgko::log {

namespace {

constexpr size_type max_stack_depth = 28;
constexpr size_type ring_capacity = 1024;  // samples per thread, power of two
// One sample slot: word 0 is the recorded depth, words 1..7 pack up to 28
// frame ids at four 16-bit ids per word.
constexpr size_type words_per_sample = 8;


// Everything the SIGPROF handler touches is either this thread-local
// pointer (zero-initialized, so reading it never runs a TLS constructor)
// or plain namespace-scope atomics.
struct thread_state {
    // Frame stack: written only by the owning thread, read by the handler
    // interrupting that same thread.  Push stores the frame id before the
    // depth (ordered by a signal fence), pop only shrinks depth, so
    // frames[0..depth-1] are valid at every interruption point.
    std::atomic<std::uint32_t> depth{0};
    std::atomic<std::uint16_t> frames[max_stack_depth] = {};

    // Sample ring: the handler is the only writer (it runs on the owning
    // thread), exporters read with the same over-read + head re-check
    // discipline as the flight recorder.
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> slots[ring_capacity * words_per_sample] = {};
};

thread_local thread_state* tl_state = nullptr;

std::atomic<bool> profiler_on{false};
std::atomic<int> active_hz{0};
std::atomic<std::uint64_t> total_samples{0};
std::atomic<std::uint64_t> unregistered_drops{0};

struct profiler_registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<thread_state>> states;
    std::vector<thread_state*> free_states;
    // Frame names; export paths look them up lock-free.
    TagTable tags;
};

profiler_registry& registry()
{
    // Intentionally leaked (see tid_pool in flight_recorder.cpp): TLS
    // destructors of late-exiting threads return states to the free list
    // after function-local statics would have been destroyed.
    static profiler_registry* instance = new profiler_registry;
    return *instance;
}

std::uint16_t intern_string(const char* name)
{
    return registry().tags.intern(name);
}

const char* tag_name(std::uint16_t id) { return registry().tags.name(id); }

// Pointer-keyed id cache in front of intern_string: SampleFrame names are
// string literals (static storage duration is a documented requirement),
// so pointer identity is a valid key and the hot push path pays one probe
// instead of an FNV hash per dispatch.
struct name_cache_entry {
    std::atomic<const char*> key{nullptr};
    std::atomic<std::uint16_t> id{0};
};

constexpr size_type name_cache_capacity = 256;  // power of two
name_cache_entry name_cache[name_cache_capacity];

std::uint16_t intern_cached(const char* name)
{
    const auto bits = reinterpret_cast<std::uintptr_t>(name);
    size_type slot = static_cast<size_type>(
                         (bits >> 4) * 0x9E3779B97F4A7C15ull >> 32) &
                     (name_cache_capacity - 1);
    for (size_type probe = 0; probe < 8;
         ++probe, slot = (slot + 1) & (name_cache_capacity - 1)) {
        auto& entry = name_cache[slot];
        const char* key = entry.key.load(std::memory_order_acquire);
        if (key == name) {
            const std::uint16_t id = entry.id.load(std::memory_order_relaxed);
            // Verify against the interned copy: if a caller violated the
            // static-lifetime contract and the address was reused for a
            // different name, fall through to a correct slow-path intern
            // instead of mislabeling frames.
            if (std::strcmp(tag_name(id), name) == 0) {
                return id;
            }
            return intern_string(name);
        }
        if (key == nullptr) {
            const std::uint16_t id = intern_string(name);
            entry.id.store(id, std::memory_order_relaxed);
            const char* expected = nullptr;
            if (entry.key.compare_exchange_strong(
                    expected, name, std::memory_order_release,
                    std::memory_order_acquire)) {
                return id;
            }
            if (expected == name) {
                return entry.id.load(std::memory_order_relaxed);
            }
            // Another name claimed the slot first; id is still correct.
            return id;
        }
    }
    return intern_string(name);
}

thread_state* ensure_thread_state()
{
    if (tl_state != nullptr) {
        return tl_state;
    }
    auto& reg = registry();
    thread_state* state = nullptr;
    {
        std::lock_guard<std::mutex> guard{reg.mutex};
        if (!reg.free_states.empty()) {
            // A recycled state keeps its previous owner's samples (same
            // policy as recycled flight-recorder rings) but must not keep
            // its frame stack: the new thread starts with no open scopes.
            state = reg.free_states.back();
            reg.free_states.pop_back();
            state->depth.store(0, std::memory_order_relaxed);
        } else {
            reg.states.push_back(std::make_unique<thread_state>());
            state = reg.states.back().get();
        }
    }
    // The holder's destructor returns the state on thread exit; after that
    // point no SIGPROF handler can run on this thread, so recycling is
    // race-free with respect to the handler.
    struct state_holder {
        thread_state* state;
        ~state_holder()
        {
            auto& reg = registry();
            std::lock_guard<std::mutex> guard{reg.mutex};
            reg.free_states.push_back(state);
        }
    };
    thread_local state_holder holder{state};
    tl_state = holder.state;
    return tl_state;
}

// Async-signal-safe by construction: plain TLS read, relaxed atomics on
// preallocated memory, one signal fence.  No allocation, locks, syscalls,
// errno, or formatting.
void sigprof_handler(int)
{
    if (!profiler_on.load(std::memory_order_relaxed)) {
        return;
    }
    thread_state* s = tl_state;
    if (s == nullptr) {
        unregistered_drops.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::atomic_signal_fence(std::memory_order_acquire);
    const std::uint32_t depth = std::min<std::uint32_t>(
        s->depth.load(std::memory_order_relaxed), max_stack_depth);
    const std::uint64_t seq = s->head.load(std::memory_order_relaxed);
    auto* w = s->slots + words_per_sample * (seq & (ring_capacity - 1));
    w[0].store(depth, std::memory_order_relaxed);
    std::uint64_t packed = 0;
    for (std::uint32_t i = 0; i < depth; ++i) {
        packed |= static_cast<std::uint64_t>(
                      s->frames[i].load(std::memory_order_relaxed))
                  << ((i % 4) * 16);
        if ((i % 4) == 3 || i + 1 == depth) {
            w[1 + i / 4].store(packed, std::memory_order_relaxed);
            packed = 0;
        }
    }
    s->head.store(seq + 1, std::memory_order_release);
    total_samples.fetch_add(1, std::memory_order_relaxed);
}

std::mutex& control_mutex()
{
    static std::mutex* instance = new std::mutex;
    return *instance;
}

struct folded_stack {
    std::uint32_t depth;
    std::uint16_t frames[max_stack_depth];

    bool operator<(const folded_stack& other) const
    {
        if (depth != other.depth) {
            return depth < other.depth;
        }
        return std::lexicographical_compare(frames, frames + depth,
                                            other.frames,
                                            other.frames + other.depth);
    }
};

/// Drains every thread's sample ring into {stack -> count}, discarding
/// slots a handler overwrote mid-read (head re-check, as in
/// FlightRecorder::visit_records).
std::map<folded_stack, std::uint64_t> aggregate_samples()
{
    std::map<folded_stack, std::uint64_t> counts;
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    for (const auto& owned : reg.states) {
        const thread_state* s = owned.get();
        const std::uint64_t h1 = s->head.load(std::memory_order_acquire);
        const std::uint64_t begin =
            h1 > ring_capacity ? h1 - ring_capacity + 1 : 0;
        for (std::uint64_t seq = begin; seq < h1; ++seq) {
            const auto* w =
                s->slots + words_per_sample * (seq & (ring_capacity - 1));
            folded_stack stack{};
            stack.depth = std::min<std::uint32_t>(
                static_cast<std::uint32_t>(
                    w[0].load(std::memory_order_relaxed)),
                max_stack_depth);
            for (std::uint32_t i = 0; i < stack.depth; ++i) {
                stack.frames[i] = static_cast<std::uint16_t>(
                    (w[1 + i / 4].load(std::memory_order_relaxed) >>
                     ((i % 4) * 16)) &
                    0xFFFF);
            }
            const std::uint64_t h2 = s->head.load(std::memory_order_acquire);
            const std::uint64_t valid_begin =
                h2 > ring_capacity ? h2 - ring_capacity + 1 : 0;
            if (seq < valid_begin) {
                continue;
            }
            ++counts[stack];
        }
    }
    return counts;
}

/// Tag names can in principle contain folded-stack metacharacters; keep
/// the exported grammar (frames split on ';', count after the last space)
/// airtight by mapping them away.
std::string frame_text(std::uint16_t id)
{
    std::string out = tag_name(id);
    for (char& c : out) {
        if (c == ';' || c == ' ' || c == '\n') {
            c = '_';
        }
    }
    return out.empty() ? std::string{"_"} : out;
}

std::string json_escape(const std::string& text)
{
    std::string out;
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

void sampling_from_env_impl()
{
    const char* value = std::getenv("MGKO_SAMPLING_HZ");
    if (value == nullptr || *value == '\0') {
        return;
    }
    const long hz = std::strtol(value, nullptr, 10);
    if (hz > 0) {
        sampling_start(static_cast<int>(hz));
    }
}

}  // namespace


// --- frame marker ----------------------------------------------------------

SampleFrame::SampleFrame(const char* name)
{
    if (!profiler_on.load(std::memory_order_relaxed)) {
        return;
    }
    thread_state* s = ensure_thread_state();
    if (s == nullptr) {
        return;
    }
    const std::uint32_t d = s->depth.load(std::memory_order_relaxed);
    if (d < max_stack_depth) {
        s->frames[d].store(intern_cached(name), std::memory_order_relaxed);
    }
    // The frame id must be visible to a SIGPROF handler that observes the
    // new depth; a signal fence orders the stores against interruption on
    // this same thread without any cross-thread cost.
    std::atomic_signal_fence(std::memory_order_release);
    s->depth.store(d + 1, std::memory_order_relaxed);
    pushed_ = true;
}


SampleFrame::~SampleFrame()
{
    if (!pushed_) {
        return;
    }
    thread_state* s = tl_state;
    const std::uint32_t d = s->depth.load(std::memory_order_relaxed);
    if (d > 0) {
        // Shrinking the stack is safe unfenced: a handler firing between
        // these two statements sees either the old or new depth, and the
        // frames below both are intact.
        s->depth.store(d - 1, std::memory_order_relaxed);
    }
}


// --- process-wide control --------------------------------------------------

bool sampling_start(int hz)
{
    hz = std::clamp(hz, 1, 1000);
    std::lock_guard<std::mutex> guard{control_mutex()};
    struct sigaction action{};
    action.sa_handler = sigprof_handler;
    sigemptyset(&action.sa_mask);
    // SA_RESTART: a sampling storm must not surface as spurious EINTR in
    // every slow syscall — in particular the crash handler's write(2)
    // loop, which has to finish a postmortem while SIGPROF keeps firing.
    action.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
        return false;
    }
    profiler_on.store(true, std::memory_order_release);
    const long interval_us = std::max(1000000L / hz, 1L);
    itimerval timer{};
    timer.it_interval.tv_sec = interval_us / 1000000;
    timer.it_interval.tv_usec = interval_us % 1000000;
    timer.it_value = timer.it_interval;
    if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
        profiler_on.store(false, std::memory_order_release);
        return false;
    }
    active_hz.store(hz, std::memory_order_release);
    return true;
}


void sampling_stop()
{
    std::lock_guard<std::mutex> guard{control_mutex()};
    itimerval disarm{};
    ::setitimer(ITIMER_PROF, &disarm, nullptr);
    profiler_on.store(false, std::memory_order_release);
    active_hz.store(0, std::memory_order_release);
}


int sampling_hz() { return active_hz.load(std::memory_order_acquire); }


bool sampling_active()
{
    return profiler_on.load(std::memory_order_acquire);
}


std::uint64_t sampling_samples()
{
    return total_samples.load(std::memory_order_relaxed);
}


std::uint64_t sampling_dropped()
{
    std::uint64_t dropped = unregistered_drops.load(std::memory_order_relaxed);
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    for (const auto& owned : reg.states) {
        const std::uint64_t head =
            owned->head.load(std::memory_order_acquire);
        if (head > ring_capacity) {
            dropped += head - ring_capacity;
        }
    }
    return dropped;
}


void sampling_reset()
{
    total_samples.store(0, std::memory_order_relaxed);
    unregistered_drops.store(0, std::memory_order_relaxed);
    auto& reg = registry();
    std::lock_guard<std::mutex> guard{reg.mutex};
    for (auto& owned : reg.states) {
        owned->head.store(0, std::memory_order_release);
    }
}


// --- exports ---------------------------------------------------------------

std::string sampling_folded()
{
    const auto counts = aggregate_samples();
    std::ostringstream out;
    for (const auto& [stack, count] : counts) {
        out << "mgko";
        if (stack.depth == 0) {
            out << ";<untracked>";
        }
        for (std::uint32_t i = 0; i < stack.depth; ++i) {
            out << ";" << frame_text(stack.frames[i]);
        }
        out << " " << count << "\n";
    }
    return out.str();
}


std::string sampling_profile_json()
{
    const auto counts = aggregate_samples();
    std::vector<std::pair<folded_stack, std::uint64_t>> sorted{
        counts.begin(), counts.end()};
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                         return a.second > b.second;
                     });
    std::ostringstream out;
    out << "{\"profile\": \"cpu_samples\", \"hz\": " << sampling_hz()
        << ", \"samples\": " << sampling_samples()
        << ", \"dropped\": " << sampling_dropped() << ", \"stacks\": [";
    bool first = true;
    for (const auto& [stack, count] : sorted) {
        out << (first ? "" : ", ") << "{\"frames\": [";
        if (stack.depth == 0) {
            out << "\"<untracked>\"";
        }
        for (std::uint32_t i = 0; i < stack.depth; ++i) {
            out << (i == 0 ? "" : ", ") << "\""
                << json_escape(frame_text(stack.frames[i])) << "\"";
        }
        out << "], \"count\": " << count << "}";
        first = false;
    }
    out << "]}";
    return out.str();
}


void sampling_from_env()
{
    static std::once_flag once;
    std::call_once(once, sampling_from_env_impl);
}


}  // namespace mgko::log
