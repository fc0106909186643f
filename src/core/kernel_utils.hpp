// Shared helpers for kernel implementations: column tiling and SimClock
// ticking.
#pragma once

#include <type_traits>

#include "core/executor.hpp"
#include "log/work_model.hpp"
#include "sim/cost_model.hpp"

namespace mgko::kernels {


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
