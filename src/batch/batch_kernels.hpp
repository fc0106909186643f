// Batched kernels: every kernel advances all (active) systems of a batch
// in one launch, parallelized *across* systems with OpenMP — the layout and
// schedule that turns many small solves into one throughput-bound sweep.
//
// Conventions shared by all kernels here:
//   * per-system data is contiguous: system s of an (n x 1) batch vector
//     starts at `v + s * n`; system s of a shared-pattern batch CSR starts
//     at `values + s * nnz`,
//   * `active` is an optional per-system mask (nullptr = all active):
//     converged systems drop out of the residual work while the batch keeps
//     running — their slice is simply skipped,
//   * per-system reduction results land in host-side double buffers
//     (solver::Workspace::host slots), matching the single-system solvers'
//     convention of double-precision norms.
//
// Header-only (like matrix/coo_kernels.hpp) so tests can drive the kernel
// bodies with forced thread counts.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "sim/cost_model.hpp"

namespace mgko::kernels::batch {


/// Number of active systems (mask == nullptr means all).
inline size_type count_active(const std::uint8_t* active,
                              size_type num_systems)
{
    if (active == nullptr) {
        return num_systems;
    }
    size_type count = 0;
    for (size_type s = 0; s < num_systems; ++s) {
        count += active[s] ? 1 : 0;
    }
    return count;
}


/// Runs `body(s, row)` over every (system, row) pair on `nt` threads,
/// split as one flat range of num_systems * rows, as collapse(2) splits it.
/// Each thread divides once to find its first pair, then steps the row and
/// carries into the system.  A pair is a few flops behind the inactive-system
/// check, so bodies capture their operands by value: through a by-reference
/// closure every operand is reloaded per pair.
template <typename Body>
void for_system_rows(int nt, size_type num_systems, size_type rows,
                     const Body& body)
{
    parallel_team(nt, [&](int tid, int threads) {
        const auto [begin, end] =
            static_block(num_systems * rows, tid, threads);
        if (begin == end) {
            return;
        }
        auto pair_body = body;
        auto s = begin / rows;
        auto row = begin % rows;
        for (auto i = begin; i < end; ++i) {
            pair_body(s, row);
            if (++row == rows) {
                row = 0;
                ++s;
            }
        }
    });
}


/// Batched shared-pattern CSR SpMV: x[s] = A[s] b[s] for every active s.
/// The sparsity pattern (row_ptrs / col_idxs) is shared; values are strided
/// by nnz per system.
template <typename V, typename I>
void csr_spmv(int nt, size_type num_systems, const std::uint8_t* active,
              const I* row_ptrs, const I* col_idxs, const V* values,
              size_type rows, size_type nnz, const V* b, V* x)
{
    for_system_rows(nt, num_systems, rows, [=](size_type s, size_type row) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* vals = values + s * nnz;
        const V* bs = b + s * rows;
        using acc_t = accumulate_t<V>;
        acc_t acc{};
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            acc += static_cast<acc_t>(vals[k]) *
                   static_cast<acc_t>(bs[col_idxs[k]]);
        }
        x[s * rows + row] = V{acc};
    });
}


/// Batched dense apply: x[s] = A[s] b[s], A[s] row-major (rows x cols),
/// b[s] (cols x vec_cols), x[s] (rows x vec_cols).
template <typename V>
void dense_apply(int nt, size_type num_systems, const std::uint8_t* active,
                 const V* a, size_type rows, size_type cols, const V* b,
                 size_type vec_cols, V* x)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* as = a + s * rows * cols;
        const V* bs = b + s * cols * vec_cols;
        V* xs = x + s * rows * vec_cols;
        for (size_type r = 0; r < rows; ++r) {
            for (size_type c = 0; c < vec_cols; ++c) {
                using acc_t = accumulate_t<V>;
                acc_t acc{};
                for (size_type k = 0; k < cols; ++k) {
                    acc += static_cast<acc_t>(as[r * cols + k]) *
                           static_cast<acc_t>(bs[k * vec_cols + c]);
                }
                xs[r * vec_cols + c] = V{acc};
            }
        }
    });
}


/// x[s] = b[s] for active systems (`elems` elements per system).
template <typename V>
void copy(int nt, size_type num_systems, const std::uint8_t* active,
          const V* b, V* x, size_type elems)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        std::copy_n(b + s * elems, elems, x + s * elems);
    });
}


/// x[s] += alpha[s] * b[s] (subtract = true flips the sign); alpha is one
/// host-side double per system, folded into the vector kernel exactly like
/// the single-system solvers fold their 1x1 scalars.
template <typename V>
void add_scaled(int nt, size_type num_systems, const std::uint8_t* active,
                const double* alpha, const V* b, V* x, size_type elems,
                bool subtract)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V a = static_cast<V>(subtract ? -alpha[s] : alpha[s]);
        const V* bs = b + s * elems;
        V* xs = x + s * elems;
        for (size_type i = 0; i < elems; ++i) {
            xs[i] += a * bs[i];
        }
    });
}


/// x[s] = b[s] + beta[s] * x[s] — the p-update of CG, one kernel.
template <typename V>
void scale_add(int nt, size_type num_systems, const std::uint8_t* active,
               const double* beta, const V* b, V* x, size_type elems)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V bt = static_cast<V>(beta[s]);
        const V* bs = b + s * elems;
        V* xs = x + s * elems;
        for (size_type i = 0; i < elems; ++i) {
            xs[i] = bs[i] + bt * xs[i];
        }
    });
}


/// Per-system dot products: result[s] = a[s] . b[s], accumulated in double
/// (the convention of the single-system solvers' detail::dot).
template <typename V>
void dot(int nt, size_type num_systems, const std::uint8_t* active,
         const V* a, const V* b, size_type elems, double* result)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* as = a + s * elems;
        const V* bs = b + s * elems;
        double acc = 0.0;
        for (size_type i = 0; i < elems; ++i) {
            acc += static_cast<double>(to_float(as[i])) *
                   static_cast<double>(to_float(bs[i]));
        }
        result[s] = acc;
    });
}


/// Per-system Euclidean norms: result[s] = ||a[s]||_2.
template <typename V>
void norm2(int nt, size_type num_systems, const std::uint8_t* active,
           const V* a, size_type elems, double* result)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* as = a + s * elems;
        double acc = 0.0;
        for (size_type i = 0; i < elems; ++i) {
            const double v = to_float(as[i]);
            acc += v * v;
        }
        result[s] = std::sqrt(acc);
    });
}


/// Batched residual: r[s] = b[s] - A[s] x[s] (shared-pattern CSR).
template <typename V, typename I>
void csr_residual(int nt, size_type num_systems, const std::uint8_t* active,
                  const I* row_ptrs, const I* col_idxs, const V* values,
                  size_type rows, size_type nnz, const V* b, const V* x,
                  V* r)
{
    for_system_rows(nt, num_systems, rows, [=](size_type s, size_type row) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* vals = values + s * nnz;
        const V* xs = x + s * rows;
        using acc_t = accumulate_t<V>;
        acc_t acc{};
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            acc += static_cast<acc_t>(vals[k]) *
                   static_cast<acc_t>(xs[col_idxs[k]]);
        }
        r[s * rows + row] = b[s * rows + row] - V{acc};
    });
}


/// Batched dense residual: r[s] = b[s] - A[s] x[s], A[s] row-major
/// (rows x rows, square systems).
template <typename V>
void dense_residual(int nt, size_type num_systems, const std::uint8_t* active,
                    const V* a, size_type rows, const V* b, const V* x, V* r)
{
    for_system_rows(nt, num_systems, rows, [=](size_type s, size_type row) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* as = a + s * rows * rows;
        const V* xs = x + s * rows;
        using acc_t = accumulate_t<V>;
        acc_t acc{};
        for (size_type k = 0; k < rows; ++k) {
            acc += static_cast<acc_t>(as[row * rows + k]) *
                   static_cast<acc_t>(xs[k]);
        }
        r[s * rows + row] = b[s * rows + row] - V{acc};
    });
}


/// Batched scalar-Jacobi application: x[s] = inv_diag[s] ⊙ b[s].
template <typename V>
void jacobi_apply(int nt, size_type num_systems, const std::uint8_t* active,
                  const V* inv_diag, const V* b, V* x, size_type elems)
{
    parallel_for(nt, num_systems, [&](size_type s) {
        if (active != nullptr && !active[s]) {
            return;
        }
        const V* ds = inv_diag + s * elems;
        const V* bs = b + s * elems;
        V* xs = x + s * elems;
        for (size_type i = 0; i < elems; ++i) {
            xs[i] = ds[i] * bs[i];
        }
    });
}


/// Modeled cost of one batched streaming kernel over the active slices.
inline sim::kernel_profile batch_stream_profile(size_type active_systems,
                                                double bytes_per_system,
                                                double flops_per_system)
{
    return sim::profile_stream(
        static_cast<double>(active_systems) * bytes_per_system,
        static_cast<double>(active_systems) * flops_per_system);
}


}  // namespace mgko::kernels::batch
