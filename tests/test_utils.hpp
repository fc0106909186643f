// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/matrix_data.hpp"
#include "core/math.hpp"
#include "core/types.hpp"
#include "log/flight_recorder.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace mgko::test {


/// Tolerance scaled to the value type's precision.
template <typename V>
double tolerance()
{
    return 50.0 * static_cast<double>(std::numeric_limits<V>::epsilon());
}


/// All four executors, for tests parameterized across backends.
inline std::vector<std::shared_ptr<Executor>> all_executors()
{
    return {ReferenceExecutor::create(), OmpExecutor::create(4),
            CudaExecutor::create(), HipExecutor::create()};
}

inline std::vector<std::string> all_executor_names()
{
    return {"reference", "omp", "cuda", "hip"};
}


/// Deterministic random sparse matrix with ~`row_nnz` entries per row plus
/// a guaranteed diagonal (so it is usable for factorizations/solves).
template <typename V = double, typename I = int32>
matrix_data<V, I> random_sparse(size_type n, size_type row_nnz,
                                std::uint64_t seed = 1234,
                                bool diag_dominant = true)
{
    std::mt19937_64 engine{seed};
    std::uniform_int_distribution<size_type> col_dist{0, n - 1};
    std::uniform_real_distribution<double> val_dist{-1.0, 1.0};
    matrix_data<V, I> data{dim2{n}};
    for (size_type r = 0; r < n; ++r) {
        double off_diag_sum = 0.0;
        for (size_type k = 0; k < row_nnz; ++k) {
            const auto c = col_dist(engine);
            if (c == r) {
                continue;
            }
            const auto v = val_dist(engine);
            off_diag_sum += std::abs(v);
            data.add(static_cast<I>(r), static_cast<I>(c),
                     static_cast<V>(v));
        }
        const double diag =
            diag_dominant ? off_diag_sum + 1.0 : val_dist(engine);
        data.add(static_cast<I>(r), static_cast<I>(r),
                 static_cast<V>(diag));
    }
    data.sort_row_major();
    data.sum_duplicates();
    return data;
}


/// Symmetric positive definite test matrix: 1D Laplacian stencil.
template <typename V = double, typename I = int32>
matrix_data<V, I> laplacian_1d(size_type n)
{
    matrix_data<V, I> data{dim2{n}};
    for (size_type i = 0; i < n; ++i) {
        if (i > 0) {
            data.add(static_cast<I>(i), static_cast<I>(i - 1),
                     static_cast<V>(-1.0));
        }
        data.add(static_cast<I>(i), static_cast<I>(i), static_cast<V>(2.0));
        if (i + 1 < n) {
            data.add(static_cast<I>(i), static_cast<I>(i + 1),
                     static_cast<V>(-1.0));
        }
    }
    return data;
}


/// Dense reference SpMV on staging data: y = A x.
template <typename V, typename I>
std::vector<double> reference_spmv(const matrix_data<V, I>& data,
                                   const std::vector<double>& x)
{
    std::vector<double> y(static_cast<std::size_t>(data.size.rows), 0.0);
    for (const auto& e : data.entries) {
        y[static_cast<std::size_t>(e.row)] +=
            to_float(e.value) * x[static_cast<std::size_t>(e.col)];
    }
    return y;
}


/// a * b by one serial Gustavson loop: rows in order, ascending ka then kb,
/// a double accumulator cast at the end, each row's columns sorted.  The
/// oracle the row-parallel spgemm must equal bitwise.
template <typename V, typename I>
std::unique_ptr<Csr<V, I>> serial_gustavson(const Csr<V, I>* a,
                                            const Csr<V, I>* b)
{
    const auto* a_ptrs = a->get_const_row_ptrs();
    const auto* a_cols = a->get_const_col_idxs();
    const auto* a_vals = a->get_const_values();
    const auto* b_ptrs = b->get_const_row_ptrs();
    const auto* b_cols = b->get_const_col_idxs();
    const auto* b_vals = b->get_const_values();
    const auto rows = a->get_size().rows;
    const auto n = static_cast<std::size_t>(b->get_size().cols);
    std::vector<double> acc(n, 0.0);
    std::vector<bool> touched(n, false);
    std::vector<I> row_cols;
    std::vector<I> row_ptrs{0};
    std::vector<I> col_idxs;
    std::vector<V> values;
    for (size_type row = 0; row < rows; ++row) {
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
                acc[col] += a_val * to_float(b_vals[kb]);
            }
        }
        std::sort(row_cols.begin(), row_cols.end());
        for (const auto col : row_cols) {
            const auto k = static_cast<std::size_t>(col);
            col_idxs.push_back(col);
            values.push_back(static_cast<V>(acc[k]));
            acc[k] = 0.0;
            touched[k] = false;
        }
        row_ptrs.push_back(static_cast<I>(col_idxs.size()));
    }
    auto c = Csr<V, I>::create(a->get_executor(),
                               dim2{rows, b->get_size().cols},
                               static_cast<size_type>(values.size()));
    std::copy(row_ptrs.begin(), row_ptrs.end(), c->get_row_ptrs());
    std::copy(col_idxs.begin(), col_idxs.end(), c->get_col_idxs());
    std::copy(values.begin(), values.end(), c->get_values());
    return c;
}


/// Asserts two CSR matrices have the same size and bitwise the same row
/// pointers, column indices and values.
template <typename V, typename I>
void expect_same_csr(const Csr<V, I>* got, const Csr<V, I>* expected)
{
    ASSERT_EQ(got->get_size(), expected->get_size());
    const auto nnz = expected->get_num_stored_elements();
    ASSERT_EQ(got->get_num_stored_elements(), nnz);
    const auto bytes_equal = [](const auto* x, const auto* y, size_type n) {
        return n == 0 ||
               std::memcmp(x, y, static_cast<std::size_t>(n) * sizeof(*x)) ==
                   0;
    };
    EXPECT_TRUE(bytes_equal(got->get_const_row_ptrs(),
                            expected->get_const_row_ptrs(),
                            expected->get_size().rows + 1))
        << "row pointers differ";
    EXPECT_TRUE(bytes_equal(got->get_const_col_idxs(),
                            expected->get_const_col_idxs(), nnz))
        << "column indices differ";
    EXPECT_TRUE(bytes_equal(got->get_const_values(),
                            expected->get_const_values(), nnz))
        << "values differ";
}


/// Random dense vector as Dense<V> column.
template <typename V>
std::unique_ptr<Dense<V>> random_vector(std::shared_ptr<const Executor> exec,
                                        size_type n, std::uint64_t seed = 7)
{
    std::mt19937_64 engine{seed};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    auto result = Dense<V>::create(exec, dim2{n, 1});
    for (size_type i = 0; i < n; ++i) {
        result->at(i, 0) = static_cast<V>(dist(engine));
    }
    return result;
}


/// The records of one event kind in a private recorder's snapshot,
/// grouped per thread and oldest first — the test observer.  Size the
/// recorder so nothing wraps (assert dropped() == 0 where counts matter).
inline std::vector<log::FlightRecorder::record> records_of(
    const log::FlightRecorder& recorder, log::FlightRecorder::event_kind kind)
{
    std::vector<log::FlightRecorder::record> out;
    for (const auto& rec : recorder.snapshot()) {
        if (rec.kind == kind) {
            out.push_back(rec);
        }
    }
    return out;
}

inline size_type count_of(const log::FlightRecorder& recorder,
                          log::FlightRecorder::event_kind kind)
{
    return static_cast<size_type>(records_of(recorder, kind).size());
}


/// The process-wide switches solver configs do not accept, each paired
/// with the JSON text of a value that would act on the whole process.
inline std::vector<std::pair<std::string, std::string>>
process_switch_keys()
{
    return {{"trace", "true"},        {"trace_sample", "0.0"},
            {"telemetry", "true"},    {"solve_server", "true"},
            {"sampling_hz", "1000"},  {"hw_counters", "\"auto\""}};
}


/// True when `response` is one complete HTTP response: a status line, a
/// header block, and exactly Content-Length body bytes.
inline bool is_complete_http_response(const std::string& response)
{
    const auto head_end = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) {
        return false;
    }
    const auto key = response.find("Content-Length: ");
    if (key == std::string::npos || key > head_end) {
        return false;
    }
    const auto declared = std::stoul(response.substr(key + 16));
    return response.size() - (head_end + 4) == declared;
}


}  // namespace mgko::test
