// Per-kernel work model: FLOP and byte accounting for roofline-style
// attribution (achieved GFLOP/s and GB/s per tag).
//
// Two halves:
//
//   * a *captured* work channel — every kernel already assembles a
//     sim::kernel_profile carrying the exact flops/bytes it processed;
//     kernels::tick() notes those amounts into a thread-local accumulator,
//     and Executor::run() drains the accumulator around each dispatch so
//     on_operation_completed can report the operation's real work next to
//     its real wall time.  No kernel changes its signature for this.
//
//   * closed-form flop/byte formulas: CSR SpMV, which tests use to check
//     that the captured counts match what the math says the kernel must
//     do, and SpGEMM, whose kernel reports its work through it.  The CSR
//     byte count is a compulsory-traffic lower bound: it excludes the
//     locality-dependent gather-miss term the cost model adds on top
//     (bounded by one extra value read per nonzero), so captured_bytes ∈
//     [analytic.bytes, analytic.bytes + nnz * value_bytes * vec_cols].
#pragma once

#include "core/types.hpp"

namespace mgko::log {


/// Work performed by one operation: floating-point operations and bytes
/// moved through the memory system.
struct op_work {
    double flops{0.0};
    double bytes{0.0};
};


/// Adds work to the calling thread's accumulator.  Called by
/// kernels::tick() with the profile every kernel already computes; cheap
/// enough to stay unconditional (two thread-local adds).
void note_work(double flops, double bytes);

/// Swaps the calling thread's accumulator for `next` and returns the
/// previous contents.  Executor::run() exchanges in a zeroed accumulator
/// before dispatch and exchanges the old one back afterwards, so nested
/// runs and unlogged stretches never leak work into the wrong operation.
op_work exchange_work(op_work next);


// --- analytic per-kernel formulas ---------------------------------------
//
// vb/ib are sizeof(value)/sizeof(index); k is the number of right-hand-side
// columns (1 for SpMV).  All byte counts are compulsory traffic: matrix
// storage read once, vectors streamed once, result written once.

/// CSR SpMV: y = A x.  values + column indices + row pointers + result.
inline op_work csr_spmv_work(size_type rows, size_type nnz, size_type vb,
                             size_type ib, size_type k = 1)
{
    const double n = static_cast<double>(nnz);
    const double r = static_cast<double>(rows);
    return {2.0 * n * static_cast<double>(k),
            n * static_cast<double>(vb + ib) +
                (r + 1.0) * static_cast<double>(ib) +
                r * static_cast<double>(vb * k)};
}

/// SpGEMM C = A * B (Gustavson row-merge): both operands streamed, the
/// result written, with a 1.5x factor for the accumulator/touched-list
/// traffic of the merge.  `products` is the number of scalar a_ik * b_kj
/// terms (sum over A's nonzeros of the matching B-row length) — data
/// dependent, so callers count it while merging; each term is one multiply
/// plus one add.
inline op_work spgemm_work(size_type a_nnz, size_type b_nnz, size_type c_nnz,
                           double products, size_type vb, size_type ib)
{
    return {2.0 * products,
            static_cast<double>(a_nnz + b_nnz + c_nnz) *
                static_cast<double>(vb + ib) * 1.5};
}


// --- roofline derivations -----------------------------------------------

/// flops per nanosecond == GFLOP/s.
inline double achieved_gflops(double flops, double wall_ns)
{
    return wall_ns > 0.0 ? flops / wall_ns : 0.0;
}

/// bytes per nanosecond == GB/s.
inline double achieved_gbps(double bytes, double wall_ns)
{
    return wall_ns > 0.0 ? bytes / wall_ns : 0.0;
}


}  // namespace mgko::log
