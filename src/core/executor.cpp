#include "core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <omp.h>

#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"
#include "log/trace_context.hpp"
#include "log/work_model.hpp"

namespace mgko {

namespace {

double pcie_bandwidth_gbps()
{
    static const double bw = sim::env_override("MGKO_SIM_PCIE_BW_GBPS", 24.0);
    return bw;
}

double now_wall_ns()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Observability wiring for every factory-created executor: the flight
/// recorder unconditionally (opt out with MGKO_FLIGHT_RECORDER=0), which
/// is also what MGKO_TRACE dumps, and the shared metrics logger under
/// MGKO_METRICS or while the telemetry server exports it, so /metrics has
/// executor-level series to serve.  MGKO_FLIGHT_POSTMORTEM,
/// MGKO_SAMPLING_HZ and MGKO_HW_COUNTERS take effect on the first
/// executor creation; the servers' MGKO_TELEMETRY_PORT / MGKO_SOLVE_PORT
/// are read by serve::start_from_env, which executors never call.
/// add_logger deduplicates, so repeated attachment points are harmless.
template <typename ExecPtr>
ExecPtr with_env_observers(ExecPtr exec)
{
    log::install_crash_handler_from_env();
    log::sampling_from_env();
    log::hw_counters_from_env();
    exec->add_logger(log::metrics_from_env());
    exec->add_logger(log::flight_recorder_from_env());
    if (log::shared_metrics_exported()) {
        exec->add_logger(log::shared_metrics());
    }
    return exec;
}

}  // namespace


std::string to_string(exec_kind kind)
{
    switch (kind) {
    case exec_kind::reference:
        return "reference";
    case exec_kind::omp:
        return "omp";
    case exec_kind::cuda:
        return "cuda";
    case exec_kind::hip:
        return "hip";
    }
    return "unknown";
}


Executor::Executor(sim::MachineModel model,
                   std::shared_ptr<const Executor> master, int real_threads)
    : model_{std::move(model)},
      name_{model_.name},
      master_{std::move(master)},
      real_threads_{real_threads}
{}


Executor::~Executor() = default;


void* Executor::alloc_bytes(size_type bytes) const
{
    bool pool_hit = false;
    void* ptr = pool_.allocate(bytes, &pool_hit);
    if (ptr == nullptr) {
        throw BadAlloc(__FILE__, __LINE__, bytes);
    }
    // Pool traffic is part of a request's cost whether or not loggers are
    // attached; the note is a thread-local pointer check when no sampled
    // request context is active.
    log::note_request_alloc(static_cast<double>(bytes));
    if (has_loggers()) {
        log_event([&](log::EventLogger& l) {
            if (pool_hit) {
                l.on_pool_hit(this, bytes);
            } else {
                l.on_pool_miss(this, bytes);
            }
            l.on_allocation_completed(this, bytes, ptr);
        });
    }
    return ptr;
}


void Executor::free_bytes(void* ptr) const
{
    if (ptr == nullptr) {
        return;
    }
    if (!pool_.release(ptr)) {
        throw MemorySpaceError(
            __FILE__, __LINE__,
            "freeing pointer not allocated on executor " + name_);
    }
    if (has_loggers()) {
        log_event(
            [&](log::EventLogger& l) { l.on_free_completed(this, ptr); });
    }
}


void Executor::copy_from(const Executor* src_exec, size_type bytes,
                         const void* src, void* dst) const
{
    if (bytes <= 0) {
        return;
    }
    MGKO_ENSURE(src != nullptr && dst != nullptr,
                "copy_from requires valid pointers");
    std::memcpy(dst, src, static_cast<std::size_t>(bytes));
    charge_copy(src_exec, bytes);
}


void Executor::charge_copy(const Executor* src_exec, size_type bytes) const
{
    // Same-space copies move at the space's own bandwidth; host<->device
    // crossings move over the interconnect and pay transfer latency on the
    // device side.
    const bool crossing =
        src_exec != nullptr && (src_exec->is_device() != is_device());
    if (crossing) {
        const Executor* device = is_device() ? this : src_exec;
        device->clock().tick(device->model().transfer_latency_ns +
                             static_cast<double>(bytes) /
                                 pcie_bandwidth_gbps());
    } else {
        clock().tick(static_cast<double>(bytes) / model_.bandwidth_gbps);
    }
    if (has_loggers()) {
        log_event([&](log::EventLogger& l) {
            l.on_copy_completed(src_exec, this, bytes);
        });
    }
}


void Executor::synchronize() const
{
    // Host executors: nothing outstanding in the simulation.
}


void Executor::launch(const char* name, const void* body,
                      void (*call)(const void*, const Executor*)) const
{
    // Zero the thread's work accumulator for the duration of the dispatch
    // (keeping whatever an enclosing run accumulated), so the completion
    // event and the request-cost attribution report exactly this
    // operation's work.  Kernels tick their work unconditionally, so the
    // drain is correct with or without loggers attached — which is what
    // lets a sampled request's cost block work on servers that never
    // started telemetry.
    const log::op_work saved = log::exchange_work({});
    const double t0 = now_wall_ns();
    {
        // Measured tier (both no-ops costing one relaxed load when off):
        // the sampling profiler's frame stack gets the kernel tag for the
        // dispatch window, and the hardware-counter scope accumulates
        // measured cycles/instructions/LLC misses under the same tag the
        // work model attributes flops/bytes to — which is exactly the
        // join the --drift gate checks.
        log::SampleFrame sample_frame{name};
        log::HwCounterScope hw_scope{name};
        call(body, this);
    }
    const double wall = now_wall_ns() - t0;
    kernel_wall_ns_.fetch_add(wall, std::memory_order_relaxed);
    launches_.fetch_add(1, std::memory_order_relaxed);
    clock_.tick(model_.launch_latency_ns);
    const log::op_work work = log::exchange_work(saved);
    // Attribute the drained work to the active request context.  The
    // kernels tick their work from the dispatching thread (even when the
    // dispatch fans out over an OpenMP parallel region), so the
    // thread-local context set by the request's scope guard is the right
    // owner here — no capture/restore is needed inside the parallel
    // region itself.
    log::note_request_kernel(name, wall, work.flops, work.bytes);
    if (has_loggers()) {
        log_event([&](log::EventLogger& l) {
            l.on_operation_completed(this, name, wall, work.flops,
                                     work.bytes);
        });
    }
}


std::shared_ptr<const Executor> Executor::get_master() const
{
    if (master_) {
        return master_;
    }
    return shared_from_this();
}


bool Executor::owns(const void* ptr) const { return pool_.owns(ptr); }


size_type Executor::num_allocations() const
{
    return pool_.total_system_allocations();
}


size_type Executor::num_live_allocations() const
{
    return pool_.live_blocks();
}


size_type Executor::bytes_in_use() const { return pool_.bytes_in_use(); }


size_type Executor::pool_hits() const { return pool_.hits(); }


size_type Executor::pool_misses() const { return pool_.misses(); }


size_type Executor::pool_bytes_cached() const
{
    return pool_.bytes_cached();
}


size_type Executor::pool_high_watermark() const
{
    return pool_.cache_high_watermark();
}


size_type Executor::trim_pool() const
{
    const size_type released = pool_.trim();
    if (has_loggers()) {
        log_event(
            [&](log::EventLogger& l) { l.on_pool_trim(this, released); });
    }
    return released;
}


// --- ReferenceExecutor ---------------------------------------------------

ReferenceExecutor::ReferenceExecutor()
    : Executor{sim::MachineModel::reference_cpu(), nullptr, 1}
{}

std::shared_ptr<ReferenceExecutor> ReferenceExecutor::create()
{
    return with_env_observers(
        std::shared_ptr<ReferenceExecutor>{new ReferenceExecutor{}});
}


// --- OmpExecutor -----------------------------------------------------------

OmpExecutor::OmpExecutor(int num_threads)
    : Executor{sim::MachineModel::xeon8368(num_threads), nullptr,
               std::min(std::max(num_threads, 1), omp_get_max_threads())}
{}

std::shared_ptr<OmpExecutor> OmpExecutor::create(int num_threads)
{
    if (num_threads <= 0) {
        num_threads = omp_get_max_threads();
    }
    return with_env_observers(
        std::shared_ptr<OmpExecutor>{new OmpExecutor{num_threads}});
}


// --- CudaExecutor ----------------------------------------------------------

CudaExecutor::CudaExecutor(int device_id,
                           std::shared_ptr<const Executor> master)
    : Executor{sim::MachineModel::a100(), std::move(master),
               omp_get_max_threads()},
      device_id_{device_id}
{}

std::shared_ptr<CudaExecutor> CudaExecutor::create(
    int device_id, std::shared_ptr<const Executor> master)
{
    if (!master) {
        master = OmpExecutor::create();
    }
    return with_env_observers(std::shared_ptr<CudaExecutor>{
        new CudaExecutor{device_id, std::move(master)}});
}

void CudaExecutor::synchronize() const
{
    clock().tick(model().launch_latency_ns * 0.5);
}


// --- HipExecutor -----------------------------------------------------------

HipExecutor::HipExecutor(int device_id, std::shared_ptr<const Executor> master)
    : Executor{sim::MachineModel::mi100(), std::move(master),
               omp_get_max_threads()},
      device_id_{device_id}
{}

std::shared_ptr<HipExecutor> HipExecutor::create(
    int device_id, std::shared_ptr<const Executor> master)
{
    if (!master) {
        master = OmpExecutor::create();
    }
    return with_env_observers(std::shared_ptr<HipExecutor>{
        new HipExecutor{device_id, std::move(master)}});
}

void HipExecutor::synchronize() const
{
    clock().tick(model().launch_latency_ns * 0.5);
}


std::shared_ptr<Executor> create_executor(const std::string& name,
                                          int device_id)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name) {
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (lower == "reference" || lower == "ref") {
        return ReferenceExecutor::create();
    }
    if (lower == "omp" || lower == "openmp" || lower == "cpu") {
        return OmpExecutor::create();
    }
    if (lower == "cuda" || lower == "gpu") {
        return CudaExecutor::create(device_id);
    }
    if (lower == "hip" || lower == "rocm") {
        return HipExecutor::create(device_id);
    }
    throw BadParameter(__FILE__, __LINE__, "unknown executor name: " + name);
}


}  // namespace mgko
