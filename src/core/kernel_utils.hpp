// Shared helpers for kernel implementations: the one place a kernel forks
// threads, column tiling and SimClock ticking.
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>

#include <omp.h>

#include "core/executor.hpp"
#include "log/work_model.hpp"
#include "sim/cost_model.hpp"

namespace mgko::kernels {


/// Runs a one-thread launch's body on the calling thread as thread 0 of 1.
/// Out of line, as the body of an OpenMP region is: inlined into a kernel
/// with many variants (CSR SpMV), the one-thread loop compiled slower
/// (24-31 us against 15-17 us per SpMV of a 3136-row power-law operator).
template <typename Body>
[[gnu::noinline]] void run_alone(Body& body)
{
    body(0, 1);
}


/// Runs `body(tid, threads)` once on every thread of a team of `nt`: the
/// only OpenMP region in the library.  A one-thread launch calls
/// `body(0, 1)` on the calling thread and never enters the OpenMP runtime,
/// whose serialized-region entry would cost more than a small body.  A
/// body takes its thread's share and its per-thread slot from `tid` and
/// `threads`, never from omp_get_thread_num(): a caller may itself run
/// inside a parallel region.
template <typename Body>
inline void parallel_team(int nt, Body&& body)
{
    if (nt <= 1) {
        run_alone(body);
        return;
    }
#pragma omp parallel num_threads(nt)
    body(omp_get_thread_num(), omp_get_num_threads());
}


/// Thread `tid`'s contiguous block of [0, n) under schedule(static): the
/// first n % threads threads take one index more.  This is the partition
/// libgomp gives a `parallel for schedule(static)`, so a reduction over
/// the blocks adds its terms in the same order it always did.
inline std::pair<size_type, size_type> static_block(size_type n, int tid,
                                                    int threads)
{
    const auto t = static_cast<size_type>(tid);
    const auto q = n / static_cast<size_type>(threads);
    const auto r = n % static_cast<size_type>(threads);
    const auto begin = q * t + std::min(t, r);
    return {begin, begin + q + (t < r ? 1 : 0)};
}


/// Runs `body(i)` for every i in [0, n) on `nt` threads, each thread over
/// its static_block in ascending order; one thread runs a plain loop.
/// Each thread calls its own copy of `body`.  A body that stores bytes,
/// which may alias anything, or whose few flops per index sit behind a
/// branch, captures its operands by value: the per-thread copy then keeps
/// them in registers, where a by-reference closure reloads them per index.
template <typename Body>
inline void parallel_for(int nt, size_type n, const Body& body)
{
    parallel_team(nt, [&](int tid, int threads) {
        const auto [begin, end] = static_block(n, tid, threads);
        auto row_body = body;
        for (auto i = begin; i < end; ++i) {
            row_body(i);
        }
    });
}


/// Widest column tile the block kernels (gemm, gemv_t, n x k CSR SpMV) keep
/// in local accumulators: eight doubles are one cache line of a block row.
inline constexpr size_type tile_cols = 8;


/// Calls `fn(std::integral_constant<size_type, W>{})` for the run-time
/// width `w` in [1, Max], so full tiles and tails share one body that is
/// compiled for each width.
template <size_type Max, typename Fn>
inline void with_width(size_type w, Fn&& fn)
{
    if constexpr (Max > 1) {
        if (w < Max) {
            with_width<Max - 1>(w, fn);
            return;
        }
    }
    fn(std::integral_constant<size_type, Max>{});
}


/// Charges a kernel's modeled cost onto the executor clock and notes the
/// profile's flop/byte work into the calling thread's accumulator, where
/// Executor::run() picks it up for on_operation_completed.  The launch
/// latency itself is charged by Executor::run().
inline void tick(const Executor* exec, const sim::kernel_profile& profile)
{
    log::note_work(profile.flops, profile.bytes);
    exec->clock().tick(profile.time_ns(exec->model()));
}


}  // namespace mgko::kernels
