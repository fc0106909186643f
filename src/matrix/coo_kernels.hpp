// COO SpMV kernels, modeled on Ginkgo's load-balanced COO strategy.
//
// Header-exposed (rather than private to coo.cpp) so tests can drive the
// parallel kernel with an explicit thread count: the interesting races —
// one dense row split across many thread ranges — only appear when the
// split is forced, independent of the host's core count.
#pragma once

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "core/types.hpp"

namespace mgko::kernels::coo {


/// Serial reference kernel over (row, col, value) triplets.
template <typename V, typename I>
void spmv_serial(const V* values, const I* row_idxs, const I* col_idxs,
                 size_type nnz, const V* b, size_type b_stride, V* x,
                 size_type x_stride, size_type vec_cols)
{
    for (size_type k = 0; k < nnz; ++k) {
        const auto row = static_cast<size_type>(row_idxs[k]);
        const auto col = static_cast<size_type>(col_idxs[k]);
        for (size_type c = 0; c < vec_cols; ++c) {
            x[row * x_stride + c] += values[k] * b[col * b_stride + c];
        }
    }
}


/// Parallel kernel: flat nnz split, each worker accumulates its contiguous
/// range; rows crossing a range boundary are updated atomically — the
/// structure of Ginkgo's load-balanced COO kernel.
template <typename V, typename I>
void spmv_flat(int nt, const V* values, const I* row_idxs, const I* col_idxs,
               size_type nnz, const V* b, size_type b_stride, V* x,
               size_type x_stride, size_type vec_cols)
{
    parallel_team(nt, [&](int tid, int threads) {
        const size_type begin = nnz * tid / threads;
        const size_type end = nnz * (tid + 1) / threads;
        size_type k = begin;
        while (k < end) {
            const auto row = row_idxs[k];
            // Accumulate the run of entries sharing this row locally.
            for (size_type c = 0; c < vec_cols; ++c) {
                using acc_t = accumulate_t<V>;
                acc_t acc{};
                size_type j = k;
                while (j < end && row_idxs[j] == row) {
                    acc += static_cast<acc_t>(values[j]) *
                           static_cast<acc_t>(
                               b[static_cast<size_type>(col_idxs[j]) *
                                     b_stride +
                                 c]);
                    ++j;
                }
                const bool boundary =
                    (k == begin && begin > 0 && row_idxs[begin - 1] == row) ||
                    (j == end && end < nnz && row_idxs[end] == row);
                auto& out = x[static_cast<size_type>(row) * x_stride + c];
                if (boundary) {
                    // Every thread whose range begins or ends inside a
                    // split row satisfies the boundary condition, so a row
                    // spanning t >= 2 ranges is updated by all t of its
                    // threads — including the interior threads of a row
                    // spanning three or more ranges.  `half` has no native
                    // atomic, so a named critical section covers all value
                    // types; split rows stay rare (at most one begin- and
                    // one end-boundary per thread).
#pragma omp critical(mgko_coo_boundary)
                    out += V{acc};
                } else {
                    out += V{acc};
                }
            }
            while (k < end && row_idxs[k] == row) {
                ++k;
            }
        }
    });
}


}  // namespace mgko::kernels::coo
