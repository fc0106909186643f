#include "log/flight_recorder.hpp"

#include "log/dump_path.hpp"
#include "log/trace_context.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>

namespace mgko::log {

namespace {

std::uint64_t steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

size_type round_up_pow2(size_type value)
{
    size_type p = 1;
    while (p < value) {
        p *= 2;
    }
    return p;
}

/// MGKO_FLIGHT_CAPACITY when it names more than one slot, else the default.
size_type capacity_from_env()
{
    if (const char* value = std::getenv("MGKO_FLIGHT_CAPACITY")) {
        const long parsed = std::strtol(value, nullptr, 10);
        if (parsed > 1) {
            return static_cast<size_type>(parsed);
        }
    }
    return FlightRecorder::default_capacity;
}

// Per-thread slot index shared by every FlightRecorder instance.  Slots
// are recycled through a free list when a thread exits, so thread churn
// does not exhaust max_threads; handing a slot (and thus a ring) from a
// dead writer to a new one is synchronized by the free-list mutex.
struct tid_free_list {
    std::mutex mutex;
    std::vector<int> free;
    int next = 0;
};

tid_free_list& tid_pool()
{
    // Intentionally leaked: ~tid_holder runs from thread TLS destructors,
    // and env-started server workers can still be exiting while
    // function-local statics are torn down at process exit.  A destroyed
    // pool would hand those late destructors a dangling vector, so the
    // pool must outlive every thread.
    static tid_free_list* pool = new tid_free_list;
    return *pool;
}

int acquire_flight_tid()
{
    auto& pool = tid_pool();
    std::lock_guard<std::mutex> guard{pool.mutex};
    if (!pool.free.empty()) {
        const int tid = pool.free.back();
        pool.free.pop_back();
        return tid;
    }
    return pool.next++;
}

void release_flight_tid(int tid)
{
    auto& pool = tid_pool();
    std::lock_guard<std::mutex> guard{pool.mutex};
    pool.free.push_back(tid);
}

struct tid_holder {
    int tid{acquire_flight_tid()};
    ~tid_holder() { release_flight_tid(tid); }
};

int flight_thread_index()
{
    thread_local tid_holder holder;
    return holder.tid;
}


constexpr std::uint8_t max_kind =
    static_cast<std::uint8_t>(FlightRecorder::event_kind::binding);

const char* kind_name(FlightRecorder::event_kind kind)
{
    switch (kind) {
    case FlightRecorder::event_kind::operation:
        return "op";
    case FlightRecorder::event_kind::alloc:
        return "alloc";
    case FlightRecorder::event_kind::free_mem:
        return "free";
    case FlightRecorder::event_kind::copy:
        return "copy";
    case FlightRecorder::event_kind::pool_hit:
        return "pool_hit";
    case FlightRecorder::event_kind::pool_miss:
        return "pool_miss";
    case FlightRecorder::event_kind::pool_trim:
        return "pool_trim";
    case FlightRecorder::event_kind::span_begin:
        return "span_begin";
    case FlightRecorder::event_kind::span_end:
        return "span_end";
    case FlightRecorder::event_kind::iteration:
        return "iteration";
    case FlightRecorder::event_kind::solver_stop:
        return "solver_stop";
    case FlightRecorder::event_kind::batch_iteration:
        return "batch_iteration";
    case FlightRecorder::event_kind::batch_stop:
        return "batch_stop";
    case FlightRecorder::event_kind::binding:
        return "binding";
    }
    return "?";
}

const char* kind_category(FlightRecorder::event_kind kind)
{
    switch (kind) {
    case FlightRecorder::event_kind::operation:
        return "op";
    case FlightRecorder::event_kind::binding:
        return "bind";
    case FlightRecorder::event_kind::span_begin:
    case FlightRecorder::event_kind::span_end:
        return "span";
    case FlightRecorder::event_kind::alloc:
    case FlightRecorder::event_kind::free_mem:
    case FlightRecorder::event_kind::copy:
        return "mem";
    case FlightRecorder::event_kind::pool_hit:
    case FlightRecorder::event_kind::pool_miss:
    case FlightRecorder::event_kind::pool_trim:
        return "pool";
    case FlightRecorder::event_kind::iteration:
    case FlightRecorder::event_kind::solver_stop:
        return "solver";
    case FlightRecorder::event_kind::batch_iteration:
    case FlightRecorder::event_kind::batch_stop:
        return "batch";
    }
    return "?";
}

std::string json_escape(const char* text)
{
    std::string out;
    for (const char* c = text; *c != '\0'; ++c) {
        if (*c == '"' || *c == '\\') {
            out += '\\';
        }
        if (*c == '\n') {
            out += "\\n";
            continue;
        }
        out += *c;
    }
    return out;
}

/// 16 lowercase hex digits — the textual form of a record's trace word,
/// matching the tail of the 32-hex W3C trace id it was stamped from.
std::string trace_hex(std::uint64_t value)
{
    std::string out;
    out.reserve(16);
    for (int shift = 60; shift >= 0; shift -= 4) {
        const auto nibble = (value >> shift) & 0xF;
        out += static_cast<char>(nibble < 10 ? '0' + nibble
                                             : 'a' + (nibble - 10));
    }
    return out;
}

}  // namespace


// --- recording -------------------------------------------------------------

FlightRecorder::FlightRecorder(size_type capacity_per_thread)
    : capacity_{round_up_pow2(std::max<size_type>(capacity_per_thread, 2))},
      origin_ns_{steady_now_ns()}
{}


FlightRecorder::ring* FlightRecorder::thread_ring()
{
    const int tid = flight_thread_index();
    if (tid < 0 || static_cast<size_type>(tid) >= max_threads) {
        return nullptr;
    }
    ring* r = rings_[tid].load(std::memory_order_acquire);
    if (r == nullptr) {
        auto fresh = std::make_unique<ring>(capacity_);
        std::lock_guard<std::mutex> guard{ring_mutex_};
        r = rings_[tid].load(std::memory_order_acquire);
        if (r == nullptr) {
            // First writer on this tid slot: publish the fresh ring.  A
            // recycled slot keeps its previous owner's ring (and events).
            r = fresh.get();
            owned_rings_.push_back(std::move(fresh));
            rings_[tid].store(r, std::memory_order_release);
        }
    }
    return r;
}


void FlightRecorder::emit(event_kind kind, const char* tag, double a, double b)
{
    ring* r = thread_ring();
    if (r == nullptr) {
        overflow_drops_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const std::uint16_t id = intern(tag);
    const std::uint64_t ts = steady_now_ns() - origin_ns_;
    const std::uint64_t seq = r->head.load(std::memory_order_relaxed);
    auto* w =
        r->words.get() + ring::words_per_slot * (seq & (r->capacity - 1));
    w[0].store(ts, std::memory_order_relaxed);
    w[1].store(static_cast<std::uint64_t>(kind) | (std::uint64_t{id} << 8),
               std::memory_order_relaxed);
    w[2].store(std::bit_cast<std::uint64_t>(a), std::memory_order_relaxed);
    w[3].store(std::bit_cast<std::uint64_t>(b), std::memory_order_relaxed);
    w[4].store(current_trace_word(), std::memory_order_relaxed);
    r->head.store(seq + 1, std::memory_order_release);
}


void FlightRecorder::reset()
{
    std::lock_guard<std::mutex> guard{ring_mutex_};
    for (auto& owned : owned_rings_) {
        owned->head.store(0, std::memory_order_release);
    }
    overflow_drops_.store(0, std::memory_order_relaxed);
    torn_drops_.store(0, std::memory_order_relaxed);
}


// --- snapshots -------------------------------------------------------------

std::uint64_t FlightRecorder::recorded() const
{
    std::uint64_t total = 0;
    for (size_type tid = 0; tid < max_threads; ++tid) {
        const ring* r = rings_[tid].load(std::memory_order_acquire);
        if (r != nullptr) {
            total += r->head.load(std::memory_order_acquire);
        }
    }
    return total;
}


std::uint64_t FlightRecorder::dropped() const
{
    std::uint64_t total = overflow_drops_.load(std::memory_order_relaxed) +
                          torn_drops_.load(std::memory_order_relaxed);
    for (size_type tid = 0; tid < max_threads; ++tid) {
        const ring* r = rings_[tid].load(std::memory_order_acquire);
        if (r != nullptr) {
            const std::uint64_t head = r->head.load(std::memory_order_acquire);
            if (head > r->capacity) {
                total += head - r->capacity;
            }
        }
    }
    return total;
}


template <typename Visitor>
void FlightRecorder::visit_records(Visitor&& visit) const
{
    for (size_type tid = 0; tid < max_threads; ++tid) {
        const ring* r = rings_[tid].load(std::memory_order_acquire);
        if (r == nullptr) {
            continue;
        }
        const std::uint64_t h1 = r->head.load(std::memory_order_acquire);
        // The oldest slot may be mid-overwrite while we read, so start one
        // past it; the h2 re-check below catches writers that lapped us
        // during the copy.
        const std::uint64_t begin =
            h1 > r->capacity ? h1 - r->capacity + 1 : 0;
        for (std::uint64_t seq = begin; seq < h1; ++seq) {
            const auto* w = r->words.get() +
                            ring::words_per_slot * (seq & (r->capacity - 1));
            record rec{};
            rec.seq = seq;
            rec.ts_ns = w[0].load(std::memory_order_relaxed);
            const std::uint64_t packed =
                w[1].load(std::memory_order_relaxed);
            const std::uint8_t raw_kind =
                static_cast<std::uint8_t>(packed & 0xFF);
            rec.a = std::bit_cast<double>(
                w[2].load(std::memory_order_relaxed));
            rec.b = std::bit_cast<double>(
                w[3].load(std::memory_order_relaxed));
            rec.trace = w[4].load(std::memory_order_relaxed);
            rec.tid = static_cast<int>(tid);
            const std::uint64_t h2 = r->head.load(std::memory_order_acquire);
            const std::uint64_t valid_begin =
                h2 > r->capacity ? h2 - r->capacity + 1 : 0;
            if (seq < valid_begin || raw_kind > max_kind) {
                // A writer reused this slot while we read it (or the slot
                // held a half-written record): drop, don't misreport.
                torn_drops_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            rec.kind = static_cast<event_kind>(raw_kind);
            rec.tag_id = static_cast<std::uint16_t>((packed >> 8) & 0xFFFF);
            rec.tag = tag_name(rec.tag_id);
            visit(rec);
        }
    }
}


std::vector<FlightRecorder::record> FlightRecorder::snapshot() const
{
    std::vector<record> out;
    visit_records([&](const record& rec) { out.push_back(rec); });
    return out;
}


std::string FlightRecorder::to_chrome_trace_json(
    std::uint64_t trace_filter) const
{
    auto snap = snapshot();
    if (trace_filter != 0) {
        // One request's records only: the span-repair pass below then
        // yields just that request's well-nested spans per thread.
        std::erase_if(snap, [trace_filter](const record& rec) {
            return rec.trace != trace_filter;
        });
    }
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    bool first = true;
    auto emit_event = [&](const char* name, const char* cat, char phase,
                          double ts_ns, double dur_ns, int tid,
                          const std::string& args) {
        out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(name)
            << "\", \"cat\": \"" << cat << "\", \"ph\": \"" << phase
            << "\", \"ts\": " << json_number(ts_ns / 1000.0)
            << ", \"pid\": 1, \"tid\": " << tid;
        if (phase == 'X') {
            out << ", \"dur\": " << json_number(dur_ns / 1000.0);
        }
        if (phase == 'i') {
            out << ", \"s\": \"t\"";
        }
        if (!args.empty()) {
            out << ", \"args\": {" << args << "}";
        }
        out << "}";
        first = false;
    };
    // Attributed records carry their trace word so a trace id found in a
    // metric exemplar or a /v1/requests summary resolves to concrete
    // slices here.
    auto with_trace = [](std::string args, const record& rec) {
        if (rec.trace != 0) {
            if (!args.empty()) {
                args += ", ";
            }
            args += "\"trace_id\": \"" + trace_hex(rec.trace) + "\"";
        }
        return args;
    };
    // Records arrive grouped per tid in ring order; convert each thread's
    // run and repair span pairing at its boundaries (the ring may have
    // dropped a span_begin to wraparound, or hold a still-open span).
    std::size_t i = 0;
    while (i < snap.size()) {
        const int tid = snap[i].tid;
        std::vector<const record*> open_spans;
        std::uint64_t last_ts = 0;
        for (; i < snap.size() && snap[i].tid == tid; ++i) {
            const record& rec = snap[i];
            last_ts = std::max(last_ts, rec.ts_ns);
            switch (rec.kind) {
            case event_kind::operation: {
                const double wall = std::max(rec.a, 0.0);
                const double start =
                    static_cast<double>(rec.ts_ns) - wall;
                emit_event(rec.tag, "op", 'X', std::max(start, 0.0), wall,
                           tid,
                           with_trace("\"wall_ns\": " + json_number(rec.a) +
                                          ", \"flops\": " +
                                          json_number(rec.b),
                                      rec));
                break;
            }
            case event_kind::binding: {
                const double wall = std::max(rec.a, 0.0);
                const double start =
                    static_cast<double>(rec.ts_ns) - wall;
                emit_event(rec.tag, "bind", 'X', std::max(start, 0.0), wall,
                           tid,
                           with_trace("\"wall_ns\": " + json_number(rec.a) +
                                          ", \"gil_wait_ns\": " +
                                          json_number(rec.b),
                                      rec));
                break;
            }
            case event_kind::span_begin:
                open_spans.push_back(&rec);
                emit_event(rec.tag, "span", 'B',
                           static_cast<double>(rec.ts_ns), 0, tid,
                           with_trace("", rec));
                break;
            case event_kind::span_end:
                // An end without a surviving begin means the begin was
                // overwritten: skip it to keep the track well nested.
                if (!open_spans.empty() &&
                    std::strcmp(open_spans.back()->tag, rec.tag) == 0) {
                    open_spans.pop_back();
                    emit_event(rec.tag, "span", 'E',
                               static_cast<double>(rec.ts_ns), 0, tid, "");
                }
                break;
            default:
                emit_event(rec.tag, kind_category(rec.kind), 'i',
                           static_cast<double>(rec.ts_ns), 0, tid,
                           with_trace("\"a\": " + json_number(rec.a) +
                                          ", \"b\": " + json_number(rec.b),
                                      rec));
                break;
            }
        }
        // Close spans still open at the snapshot edge.
        while (!open_spans.empty()) {
            emit_event(open_spans.back()->tag, "span", 'E',
                       static_cast<double>(last_ts), 0, tid, "");
            open_spans.pop_back();
        }
    }
    out << "]}";
    return out.str();
}


// --- async-signal-safe postmortem writer -----------------------------------

namespace {

void write_all(int fd, const char* data, std::size_t size)
{
    while (size > 0) {
        const ssize_t written = ::write(fd, data, size);
        if (written <= 0) {
            return;
        }
        data += written;
        size -= static_cast<std::size_t>(written);
    }
}

void write_str(int fd, const char* text)
{
    write_all(fd, text, std::strlen(text));
}

// Formats `value` in decimal into `buffer` (must hold >= 21 chars).
void write_u64(int fd, std::uint64_t value)
{
    char buffer[21];
    char* end = buffer + sizeof(buffer);
    char* p = end;
    do {
        *--p = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value > 0);
    write_all(fd, p, static_cast<std::size_t>(end - p));
}

// Doubles are written as clamped integers — enough for the byte counts,
// wall times, and iteration numbers records carry, and printable without
// any non-signal-safe formatting machinery.
void write_double_as_int(int fd, double value)
{
    if (std::isnan(value)) {
        write_str(fd, "nan");
        return;
    }
    if (value < 0) {
        write_str(fd, "-");
        value = -value;
    }
    if (value > 9.2e18) {
        write_str(fd, "inf");
        return;
    }
    write_u64(fd, static_cast<std::uint64_t>(value));
}

}  // namespace


void FlightRecorder::write_postmortem(int fd, const char* reason) const
{
    write_str(fd, "# mgko flight recorder postmortem\n");
    if (reason != nullptr && *reason != '\0') {
        write_str(fd, "# reason: ");
        write_str(fd, reason);
        write_str(fd, "\n");
    }
    write_str(fd, "# columns: tid seq ts_ns kind tag a b trace\n");
    // Same traversal as visit_records, but with no allocation: only
    // atomic loads, stack formatting, and write(2).
    for (size_type tid = 0; tid < max_threads; ++tid) {
        const ring* r = rings_[tid].load(std::memory_order_acquire);
        if (r == nullptr) {
            continue;
        }
        const std::uint64_t head = r->head.load(std::memory_order_acquire);
        const std::uint64_t begin =
            head > r->capacity ? head - r->capacity + 1 : 0;
        for (std::uint64_t seq = begin; seq < head; ++seq) {
            const auto* w = r->words.get() +
                            ring::words_per_slot * (seq & (r->capacity - 1));
            const std::uint64_t ts = w[0].load(std::memory_order_relaxed);
            const std::uint64_t packed =
                w[1].load(std::memory_order_relaxed);
            const std::uint8_t raw_kind =
                static_cast<std::uint8_t>(packed & 0xFF);
            if (raw_kind > max_kind) {
                continue;
            }
            write_u64(fd, static_cast<std::uint64_t>(tid));
            write_str(fd, " ");
            write_u64(fd, seq);
            write_str(fd, " ");
            write_u64(fd, ts);
            write_str(fd, " ");
            write_str(fd, kind_name(static_cast<event_kind>(raw_kind)));
            write_str(fd, " ");
            write_str(fd, tag_name(static_cast<std::uint16_t>(
                              (packed >> 8) & 0xFFFF)));
            write_str(fd, " ");
            write_double_as_int(
                fd,
                std::bit_cast<double>(w[2].load(std::memory_order_relaxed)));
            write_str(fd, " ");
            write_double_as_int(
                fd,
                std::bit_cast<double>(w[3].load(std::memory_order_relaxed)));
            write_str(fd, " ");
            write_u64(fd, w[4].load(std::memory_order_relaxed));
            write_str(fd, "\n");
        }
    }
    write_str(fd, "# end postmortem\n");
}


// --- EventLogger hooks -----------------------------------------------------

void FlightRecorder::on_allocation_completed(const Executor*, size_type bytes,
                                             const void*)
{
    emit(event_kind::alloc, "mem.alloc", static_cast<double>(bytes), 0);
}

void FlightRecorder::on_free_completed(const Executor*, const void*)
{
    emit(event_kind::free_mem, "mem.free", 0, 0);
}

void FlightRecorder::on_copy_completed(const Executor*, const Executor*,
                                       size_type bytes)
{
    emit(event_kind::copy, "mem.copy", static_cast<double>(bytes), 0);
}

void FlightRecorder::on_pool_hit(const Executor*, size_type bytes)
{
    emit(event_kind::pool_hit, "pool.hit", static_cast<double>(bytes), 0);
}

void FlightRecorder::on_pool_miss(const Executor*, size_type bytes)
{
    emit(event_kind::pool_miss, "pool.miss", static_cast<double>(bytes), 0);
}

void FlightRecorder::on_pool_trim(const Executor*, size_type bytes_released)
{
    emit(event_kind::pool_trim, "pool.trim",
         static_cast<double>(bytes_released), 0);
}

void FlightRecorder::on_operation_completed(const Executor*,
                                            const char* op_name,
                                            double wall_ns, double flops,
                                            double)
{
    emit(event_kind::operation, op_name, wall_ns, flops);
}

void FlightRecorder::on_span_begin(const char* name)
{
    emit(event_kind::span_begin, name, 0, 0);
}

void FlightRecorder::on_span_end(const char* name)
{
    emit(event_kind::span_end, name, 0, 0);
}

void FlightRecorder::on_iteration_complete(const LinOp*, size_type iteration,
                                           double residual_norm)
{
    emit(event_kind::iteration, "solver.iteration",
         static_cast<double>(iteration), residual_norm);
}

void FlightRecorder::on_solver_stop(const LinOp*, size_type iterations,
                                    bool converged, const char*)
{
    emit(event_kind::solver_stop, "solver.stop",
         static_cast<double>(iterations), converged ? 1.0 : 0.0);
}

void FlightRecorder::on_batch_iteration_complete(const batch::BatchLinOp*,
                                                 size_type iteration, size_type,
                                                 double max_residual_norm)
{
    emit(event_kind::batch_iteration, "batch.iteration",
         static_cast<double>(iteration), max_residual_norm);
}

void FlightRecorder::on_batch_solver_stop(const batch::BatchLinOp*,
                                          size_type num_systems,
                                          size_type converged_systems,
                                          size_type,
                                          const batch::BatchConvergenceLogger*)
{
    emit(event_kind::batch_stop, "batch.stop",
         static_cast<double>(converged_systems),
         static_cast<double>(num_systems));
}

void FlightRecorder::on_binding_call_completed(const char* name,
                                               double wall_ns,
                                               double gil_wait_ns, double,
                                               double, double)
{
    emit(event_kind::binding, name, wall_ns, gil_wait_ns);
}


// --- process-wide instance and crash hook ----------------------------------

std::shared_ptr<FlightRecorder> shared_flight_recorder()
{
    // Never destroyed: server threads and thread-exit hooks can still
    // record or scrape while function-local statics are destroyed at exit.
    // A union member's destructor runs only if the union's destructor
    // calls it.
    static union holder {
        holder() : recorder{FlightRecorder::create(capacity_from_env())} {}
        ~holder() {}
        std::shared_ptr<FlightRecorder> recorder;
    } held;
    return held.recorder;
}


std::shared_ptr<FlightRecorder> flight_recorder_from_env()
{
    const char* value = std::getenv("MGKO_FLIGHT_RECORDER");
    if (value != nullptr &&
        (std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "OFF") == 0)) {
        return nullptr;
    }
    return shared_flight_recorder();
}


namespace {

// Everything the handlers touch lives in plain globals: no allocation, no
// magic-static initialization inside a signal handler.
char postmortem_path[1024] = {0};
FlightRecorder* crash_recorder = nullptr;
std::atomic<bool> handlers_installed{false};
std::atomic<bool> postmortem_written{false};
std::terminate_handler previous_terminate = nullptr;

void write_postmortem_file(const char* reason)
{
    if (postmortem_path[0] == '\0' || crash_recorder == nullptr) {
        return;
    }
    // One dump per crash: the terminate handler's abort() re-enters via
    // the SIGABRT handler, which must not clobber the richer exception
    // reason already on disk.
    if (postmortem_written.exchange(true)) {
        return;
    }
    const int fd =
        ::open(postmortem_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return;
    }
    crash_recorder->write_postmortem(fd, reason);
    ::close(fd);
}

void crash_signal_handler(int sig)
{
    write_postmortem_file(sig == SIGSEGV ? "SIGSEGV" : "SIGABRT");
    // Restore default disposition and re-raise so exit status, core
    // dumps, and outer handlers behave exactly as without the recorder.
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

void crash_terminate_handler()
{
    char reason[256] = "terminate";
    if (auto current = std::current_exception()) {
        try {
            std::rethrow_exception(current);
        } catch (const std::exception& e) {
            std::strncpy(reason, e.what(), sizeof(reason) - 1);
            reason[sizeof(reason) - 1] = '\0';
        } catch (...) {
            std::strncpy(reason, "unknown exception", sizeof(reason) - 1);
        }
    }
    write_postmortem_file(reason);
    if (previous_terminate != nullptr) {
        previous_terminate();
    }
    std::abort();
}

}  // namespace


void install_crash_handler(const std::string& path)
{
    std::strncpy(postmortem_path, path.c_str(), sizeof(postmortem_path) - 1);
    postmortem_path[sizeof(postmortem_path) - 1] = '\0';
    postmortem_written.store(false, std::memory_order_release);
    crash_recorder = shared_flight_recorder().get();
    if (handlers_installed.exchange(true)) {
        return;  // already installed: only the path was retargeted
    }
    struct sigaction action{};
    action.sa_handler = crash_signal_handler;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGSEGV, &action, nullptr);
    ::sigaction(SIGABRT, &action, nullptr);
    previous_terminate = std::set_terminate(crash_terminate_handler);
}


void install_crash_handler_from_env()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char* value = std::getenv("MGKO_FLIGHT_POSTMORTEM");
        if (value != nullptr && *value != '\0') {
            install_crash_handler(value);
        }
    });
}


void dump_trace(const FlightRecorder& recorder, const std::string& name)
{
    const char* dest = std::getenv("MGKO_TRACE");
    if (dest == nullptr || *dest == '\0') {
        return;
    }
    if (flight_recorder_from_env() == nullptr) {
        std::cerr << "mgko: no trace [" << name
                  << "] written: MGKO_FLIGHT_RECORDER turned the flight "
                     "recorder off\n";
        return;
    }
    if (const auto dropped = recorder.dropped(); dropped > 0) {
        // The longest ring's head is its newest record's seq + 1.
        std::uint64_t longest = 0;
        for (const auto& rec : recorder.snapshot()) {
            longest = std::max(longest, rec.seq + 1);
        }
        std::cerr << "mgko: no trace [" << name << "] written: the flight "
                  << "recorder dropped " << dropped << " of "
                  << recorder.recorded() << " records; MGKO_FLIGHT_CAPACITY="
                  << round_up_pow2(static_cast<size_type>(longest))
                  << " holds this run\n";
        return;
    }
    dump_to_env("MGKO_TRACE", "trace", name, ".json",
                recorder.to_chrome_trace_json());
}


}  // namespace mgko::log
