// SIGPROF sampling profiler: the measured half of the observability stack.
//
// The flight recorder (flight_recorder.hpp) answers "what did the process
// *say* it was doing" — every event is emitted by instrumented code.  The
// sampling profiler answers "where did the CPU time actually go": a POSIX
// profiling timer (ITIMER_PROF) delivers SIGPROF to whichever thread is
// burning CPU, proportionally to its consumption, and the handler snapshots
// that thread's current *frame stack* into a lock-free per-thread sample
// ring.  Aggregating the ring off-line yields flamegraph.pl-compatible
// folded stacks and a pprof-like JSON profile, without any per-sample
// allocation, locking, or formatting on the hot path.
//
// Frames are not raw program-counter values: unwinding and symbolizing a
// native backtrace from inside a signal handler is not async-signal-safe
// (glibc's unwinder can take loader locks), and a stripped static binary
// symbolizes to useless hex anyway.  Instead, instrumented scopes —
// Executor::run around each kernel dispatch, the solve server around each
// request, solver drivers around apply() — push an interned tag id onto a
// thread-local frame stack via SampleFrame, and the handler copies the id
// stack with plain loads.  Interning (string -> id in a TagTable,
// log/tag_table.hpp, the flight recorder's table class) happens at
// push time in normal context; the handler and the exporters only ever map
// ids, so symbolization stays off the signal path entirely.
//
// Signal-safety rules the implementation follows (DESIGN.md §18):
//   * the handler touches only: zero-initialized thread-locals, the
//     thread's own frame stack (relaxed atomics ordered by signal fences),
//     and the thread's preallocated sample ring — no malloc, no locks, no
//     formatting, no syscalls;
//   * a thread is sampled only after its first SampleFrame push registered
//     it (tl_registered); an unregistered thread's samples are counted as
//     dropped rather than risking TLS construction inside the handler;
//   * SA_RESTART keeps the storm of SIGPROFs from turning every slow
//     syscall in the serve layer into a spurious EINTR failure, and lets
//     the crash handler's write(2) loop finish a postmortem mid-storm.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace mgko::log {


/// RAII frame marker for the sampling profiler.  Push cost when the
/// profiler is inactive is one relaxed atomic load; when active it is a
/// pointer-keyed cache lookup (string literals make pointer identity a
/// valid cache key) plus two relaxed stores.  Safe to nest up to
/// max_stack_depth; deeper frames are counted but not recorded.
class SampleFrame {
public:
    explicit SampleFrame(const char* name);
    ~SampleFrame();

    SampleFrame(const SampleFrame&) = delete;
    SampleFrame& operator=(const SampleFrame&) = delete;

private:
    bool pushed_{false};
};


/// Starts (or retunes) process-wide sampling at `hz` samples per second of
/// consumed CPU time.  Installs the SIGPROF handler and arms ITIMER_PROF;
/// idempotent, and a second call with a different rate re-arms the timer.
/// `hz` is clamped to [1, 1000].  Returns false (and leaves sampling off)
/// only if the kernel refuses the timer.
bool sampling_start(int hz);

/// Disarms the timer and deactivates sampling.  Collected samples remain
/// readable until sampling_reset().
void sampling_stop();

/// The active sampling rate in Hz, or 0 when sampling is off.
int sampling_hz();

/// True while the SIGPROF timer is armed.
bool sampling_active();

/// Total samples captured / samples dropped (ring not yet registered or
/// overwritten before export) since the last reset.
std::uint64_t sampling_samples();
std::uint64_t sampling_dropped();

/// Clears all captured samples and the counters (sampling stays in
/// whatever state it was).
void sampling_reset();

/// Folded-stack export: one line per distinct stack,
/// "root;frame;frame count\n", directly consumable by flamegraph.pl.
/// Samples on registered threads that carried no frames fold to the
/// single frame "<untracked>".
std::string sampling_folded();

/// pprof-like JSON profile: {"profile": "cpu_samples", "hz": ...,
/// "samples": N, "dropped": D, "stacks": [{"frames": [...],
/// "count": n}, ...]} with stacks sorted by descending count.
std::string sampling_profile_json();

/// Reads MGKO_SAMPLING_HZ once per process: a positive integer starts
/// sampling at that rate (clamped); unset, 0, or garbage leaves sampling
/// off.  Called from the executor factory path next to the other
/// *_from_env attach points.
void sampling_from_env();


}  // namespace mgko::log
