#include "matrix/spgemm.hpp"

#include <algorithm>
#include <vector>

#include <omp.h>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "sim/cost_model.hpp"

namespace mgko {


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> spgemm(
    const Csr<ValueType, IndexType>* a, const Csr<ValueType, IndexType>* b)
{
    MGKO_ASSERT_CONFORMANT("spgemm", a->get_size(), b->get_size());
    auto exec = a->get_executor();
    const auto m = a->get_size().rows;
    const auto n = b->get_size().cols;

    const auto* a_ptrs = a->get_const_row_ptrs();
    const auto* a_cols = a->get_const_col_idxs();
    const auto* a_vals = a->get_const_values();
    const auto* b_ptrs = b->get_const_row_ptrs();
    const auto* b_cols = b->get_const_col_idxs();
    const auto* b_vals = b->get_const_values();

    std::unique_ptr<Csr<ValueType, IndexType>> product;
    // Gustavson, row-parallel in two passes straight into the CSR arrays: a
    // symbolic pass counts each row's distinct columns, the row pointers are
    // their prefix sum, and a numeric pass accumulates each row into its
    // thread's dense accumulator (ascending ka, then kb, in double) and
    // writes the row's sorted columns and values in place.  One thread
    // computes a row in that fixed order, so the product does not depend
    // on the thread count or the schedule.  Runs as one kernel launch so
    // the data-dependent flop/byte volumes reach the profiler/FlightRecorder
    // through kernels::tick like every other kernel (the analytic
    // counterpart is log::spgemm_work).
    exec->run("spgemm", [&](const Executor* e) {
        const int nt = e->real_threads();
        const auto width = static_cast<std::size_t>(n);
        const auto slots = width * static_cast<std::size_t>(nt);
        // Every thread's n-wide work arrays are allocated here, outside the
        // parallel regions, so a failed allocation throws to the caller:
        // the last row that touched each column (symbolic pass), and the
        // dense accumulator and touched flags (numeric pass).
        std::vector<size_type> marker(slots, -1);
        std::vector<double> accumulator(slots, 0.0);
        std::vector<unsigned char> touched(slots, 0);
        std::vector<size_type> row_nnz(static_cast<std::size_t>(m));
        size_type products = 0;
#pragma omp parallel num_threads(nt) if (nt > 1) reduction(+ : products)
        {
            auto* last_row = marker.data() + width * omp_get_thread_num();
#pragma omp for schedule(dynamic, 64)
            for (size_type row = 0; row < m; ++row) {
                size_type count = 0;
                for (auto ka = a_ptrs[row]; ka < a_ptrs[row + 1]; ++ka) {
                    const auto inner = static_cast<size_type>(a_cols[ka]);
                    products += b_ptrs[inner + 1] - b_ptrs[inner];
                    for (auto kb = b_ptrs[inner]; kb < b_ptrs[inner + 1];
                         ++kb) {
                        const auto col = static_cast<std::size_t>(b_cols[kb]);
                        if (last_row[col] != row) {
                            last_row[col] = row;
                            ++count;
                        }
                    }
                }
                row_nnz[static_cast<std::size_t>(row)] = count;
            }
        }

        product = Csr<ValueType, IndexType>::create_with_row_counts(
            exec, dim2{m, n}, row_nnz);
        const auto* c_ptrs = product->get_const_row_ptrs();
        auto* c_cols = product->get_col_idxs();
        auto* c_vals = product->get_values();
#pragma omp parallel num_threads(nt) if (nt > 1)
        {
            const auto offset = width * omp_get_thread_num();
            auto* acc = accumulator.data() + offset;
            auto* seen = touched.data() + offset;
#pragma omp for schedule(dynamic, 64)
            for (size_type row = 0; row < m; ++row) {
                auto out = c_ptrs[row];
                for (auto ka = a_ptrs[row]; ka < a_ptrs[row + 1]; ++ka) {
                    const auto inner = static_cast<size_type>(a_cols[ka]);
                    const double a_val = to_float(a_vals[ka]);
                    for (auto kb = b_ptrs[inner]; kb < b_ptrs[inner + 1];
                         ++kb) {
                        const auto col = static_cast<std::size_t>(b_cols[kb]);
                        if (!seen[col]) {
                            seen[col] = 1;
                            c_cols[out++] = b_cols[kb];
                        }
                        acc[col] += a_val * to_float(b_vals[kb]);
                    }
                }
                std::sort(c_cols + c_ptrs[row], c_cols + c_ptrs[row + 1]);
                for (auto k = c_ptrs[row]; k < c_ptrs[row + 1]; ++k) {
                    const auto col = static_cast<std::size_t>(c_cols[k]);
                    c_vals[k] = static_cast<ValueType>(acc[col]);
                    acc[col] = 0.0;
                    seen[col] = 0;
                }
            }
        }
        const auto work = log::spgemm_work(
            a->get_num_stored_elements(), b->get_num_stored_elements(),
            product->get_num_stored_elements(),
            static_cast<double>(products), sizeof(ValueType),
            sizeof(IndexType));
        kernels::tick(e, sim::profile_stream(work.bytes, work.flops, 0.5));
    });
    return product;
}


#define MGKO_DECLARE_SPGEMM(ValueType, IndexType)                          \
    template std::unique_ptr<Csr<ValueType, IndexType>> spgemm(            \
        const Csr<ValueType, IndexType>*, const Csr<ValueType, IndexType>*)
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_SPGEMM);


}  // namespace mgko
