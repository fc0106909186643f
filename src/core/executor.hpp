// Executors: where memory lives and where kernels run.
//
// This mirrors Ginkgo's executor design as exposed by pyGinkgo's `device()`
// factory (paper §4.1): a program creates one or more executors, data
// structures are bound to an executor, and cross-executor data movement is
// explicit.  Four executors exist, as in the paper:
//
//   * ReferenceExecutor — sequential host execution (correctness baseline)
//   * OmpExecutor       — OpenMP-parallel host execution
//   * CudaExecutor      — simulated NVIDIA device (see DESIGN.md §2/2.1)
//   * HipExecutor       — simulated AMD device
//
// The simulated devices keep a *separate, tracked memory arena* (backed by
// host RAM): allocations are registered per executor, host<->device copies
// are explicit and charged with transfer cost, and every kernel launch is
// charged launch latency on the executor's SimClock.  Every kernel launches
// through Executor::run(name, body): all four backends are host code, so one
// body serves them all, and the few kernels whose algorithm differs by
// backend pick their variant from the executor's kind() inside that body.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>

#include "core/exception.hpp"
#include "core/memory_pool.hpp"
#include "core/types.hpp"
#include "log/event_logger.hpp"
#include "sim/machine_model.hpp"
#include "sim/sim_clock.hpp"

namespace mgko {


enum class exec_kind { reference, omp, cuda, hip };

std::string to_string(exec_kind kind);


/// Executors expose a logger attachment point (log::EnableLogging):
/// attached EventLoggers observe every allocation/free/copy, the pool's
/// hit/miss/trim behaviour, and every kernel launch with its kernel name
/// and real wall time.  With no logger attached each event site costs one
/// empty-vector check.
class Executor : public std::enable_shared_from_this<Executor>,
                 public log::EnableLogging {
public:
    virtual ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Allocates `bytes` bytes in this executor's memory space (64-byte
    /// aligned), served from the executor's caching pool when a block of
    /// the same size class was freed earlier.  Registered for cross-space
    /// validation.  Throws BadAlloc.
    void* alloc_bytes(size_type bytes) const;

    /// Returns memory previously allocated on this executor to the
    /// executor's pool (not the system; see trim_pool()).  Freeing a
    /// pointer from a different executor throws MemorySpaceError.
    void free_bytes(void* ptr) const;

    template <typename T>
    T* alloc(size_type num_elems) const
    {
        return static_cast<T*>(
            alloc_bytes(num_elems * static_cast<size_type>(sizeof(T))));
    }

    /// Copies `bytes` bytes from `src` (owned by `src_exec`) into `dst`
    /// (owned by this executor), charging transfer cost when the copy
    /// crosses the host/device boundary.
    void copy_from(const Executor* src_exec, size_type bytes, const void* src,
                   void* dst) const;

    /// Charges the modeled cost of moving `bytes` from `src_exec`'s space
    /// into this one without performing the copy (used by strided copies
    /// that move the payload themselves).
    void charge_copy(const Executor* src_exec, size_type bytes) const;

    /// Blocks until all outstanding simulated work completed.  On the
    /// simulated devices this also charges a synchronization latency.
    virtual void synchronize() const;

    /// Runs one kernel launch: calls `body(this)`, then charges launch
    /// latency, counts the launch and reports the kernel's wall time and
    /// modeled work under `name` to the loggers, the sampling profiler, the
    /// hardware counters and the active request's cost.  `name` must have
    /// static storage duration (a string literal): RequestCost keeps the
    /// pointer until snapshot() and the sampling profiler caches by it.
    template <typename Body>
    void run(const char* name, Body&& body) const
    {
        using Fn = std::remove_reference_t<Body>;
        launch(name, &body, [](const void* fn, const Executor* exec) {
            (*static_cast<const Fn*>(fn))(exec);
        });
    }

    virtual exec_kind kind() const = 0;
    /// True for the simulated device executors (memory not host-resident
    /// from the framework's point of view).
    virtual bool is_device() const { return false; }

    const std::string& name() const { return name_; }
    const sim::MachineModel& model() const { return model_; }
    sim::SimClock& clock() const { return clock_; }

    /// Number of parallel workers the performance model assumes; kernels use
    /// it for partitioning decisions (and, on real hardware, thread counts).
    int worker_count() const { return model_.workers; }

    /// Threads a kernel actually uses on this machine, fixed at
    /// construction.  The performance model may assume more workers (a
    /// simulated A100); real execution is capped by the hardware.
    int real_threads() const { return real_threads_; }

    /// The host executor backing this one; returns itself for host
    /// executors.
    std::shared_ptr<const Executor> get_master() const;

    /// True if `ptr` was allocated (and not yet freed) on this executor.
    bool owns(const void* ptr) const;

    // --- instrumentation ------------------------------------------------
    //
    // Allocation counters come in two flavours.  *System* counters describe
    // traffic that actually reached the system allocator: num_allocations()
    // is the cumulative count of fresh system allocations (== pool_misses()),
    // so a steady-state region whose requests are all pool hits leaves it
    // unchanged — the property the workspace tests assert.  *Live* counters
    // describe the registry: num_live_allocations() and bytes_in_use() track
    // blocks currently allocated and not yet freed, regardless of whether
    // their eventual free returns them to the pool or the system.
    size_type num_kernel_launches() const { return launches_.load(); }
    /// Cumulative system allocations performed by this executor (pool
    /// misses); unchanged while requests are served from the pool.
    size_type num_allocations() const;
    /// Blocks currently allocated and not yet freed.
    size_type num_live_allocations() const;
    /// Sum of the requested sizes of live blocks.
    size_type bytes_in_use() const;
    /// Pool allocations served from the cached free lists.
    size_type pool_hits() const;
    /// Pool allocations that had to go to the system allocator.
    size_type pool_misses() const;
    /// Bytes currently cached in the pool's free lists.
    size_type pool_bytes_cached() const;
    /// Peak of pool_bytes_cached() over the executor's lifetime.
    size_type pool_high_watermark() const;
    /// Releases all cached blocks back to the system; returns bytes freed.
    size_type trim_pool() const;
    /// Accumulated *real* wall time spent inside kernel bodies; benchmark
    /// harnesses subtract it to isolate host-side software overhead.
    double real_kernel_wall_ns() const { return kernel_wall_ns_.load(); }

protected:
    Executor(sim::MachineModel model, std::shared_ptr<const Executor> master,
             int real_threads);

private:
    /// The out-of-line body of run(): `call(body, this)` invokes the kernel.
    void launch(const char* name, const void* body,
                void (*call)(const void*, const Executor*)) const;

    sim::MachineModel model_;
    std::string name_;
    std::shared_ptr<const Executor> master_;  // null for host executors
    int real_threads_;
    mutable sim::SimClock clock_;
    mutable detail::MemoryPool pool_;
    mutable std::atomic<size_type> launches_{0};
    mutable std::atomic<double> kernel_wall_ns_{0.0};
};


/// Sequential host executor; the numerical ground truth for all kernels.
class ReferenceExecutor : public Executor {
public:
    static std::shared_ptr<ReferenceExecutor> create();
    exec_kind kind() const override { return exec_kind::reference; }

protected:
    ReferenceExecutor();
};


/// OpenMP-parallel host executor.  `num_threads` configures both the
/// performance model and (capped by the hardware) the real thread count.
class OmpExecutor : public Executor {
public:
    static std::shared_ptr<OmpExecutor> create(int num_threads = 0);
    exec_kind kind() const override { return exec_kind::omp; }
    /// Threads assumed by the performance model.
    int num_threads() const { return worker_count(); }

protected:
    explicit OmpExecutor(int num_threads);
};


/// Simulated NVIDIA device executor (A100 model).
class CudaExecutor : public Executor {
public:
    static std::shared_ptr<CudaExecutor> create(
        int device_id = 0, std::shared_ptr<const Executor> master = nullptr);
    exec_kind kind() const override { return exec_kind::cuda; }
    bool is_device() const override { return true; }
    int device_id() const { return device_id_; }
    void synchronize() const override;

protected:
    CudaExecutor(int device_id, std::shared_ptr<const Executor> master);

private:
    int device_id_;
};


/// Simulated AMD device executor (MI100 model); its kernels use
/// wavefront-chunked variants where they differ from the CUDA path.
class HipExecutor : public Executor {
public:
    static std::shared_ptr<HipExecutor> create(
        int device_id = 0, std::shared_ptr<const Executor> master = nullptr);
    exec_kind kind() const override { return exec_kind::hip; }
    bool is_device() const override { return true; }
    int device_id() const { return device_id_; }
    void synchronize() const override;

protected:
    HipExecutor(int device_id, std::shared_ptr<const Executor> master);

private:
    int device_id_;
};


/// Convenience: creates the executor named by the paper's device strings
/// ("reference", "omp"/"cpu", "cuda", "hip"), case-insensitive.
std::shared_ptr<Executor> create_executor(const std::string& name,
                                          int device_id = 0);


}  // namespace mgko
