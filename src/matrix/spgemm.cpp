#include "matrix/spgemm.hpp"

#include <algorithm>
#include <vector>

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
    // Gustavson: dense accumulator + touched-column list per row.  Runs as
    // one kernel launch so the data-dependent flop/byte volumes reach the
    // profiler/FlightRecorder through kernels::tick like every other
    // kernel (the analytic counterpart is log::spgemm_work).
    exec->run("spgemm", [&](const Executor* e) {
        std::vector<double> accumulator(static_cast<std::size_t>(n), 0.0);
        std::vector<bool> touched(static_cast<std::size_t>(n), false);
        std::vector<IndexType> row_cols;
        matrix_data<ValueType, IndexType> result{dim2{m, n}};
        double products = 0.0;
        for (size_type row = 0; row < m; ++row) {
            row_cols.clear();
            for (auto ka = a_ptrs[row]; ka < a_ptrs[row + 1]; ++ka) {
                const auto inner = static_cast<size_type>(a_cols[ka]);
                const double a_val = to_float(a_vals[ka]);
                for (auto kb = b_ptrs[inner]; kb < b_ptrs[inner + 1]; ++kb) {
                    const auto col = static_cast<std::size_t>(b_cols[kb]);
                    if (!touched[col]) {
                        touched[col] = true;
                        row_cols.push_back(b_cols[kb]);
                    }
                    accumulator[col] += a_val * to_float(b_vals[kb]);
                    products += 1.0;
                }
            }
            std::sort(row_cols.begin(), row_cols.end());
            for (const auto col : row_cols) {
                const auto c = static_cast<std::size_t>(col);
                result.add(static_cast<IndexType>(row), col,
                           static_cast<ValueType>(accumulator[c]));
                accumulator[c] = 0.0;
                touched[c] = false;
            }
        }
        product = Csr<ValueType, IndexType>::create_from_data(exec, result);
        const auto work = log::spgemm_work(
            a->get_num_stored_elements(), b->get_num_stored_elements(),
            product->get_num_stored_elements(), products, sizeof(ValueType),
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
