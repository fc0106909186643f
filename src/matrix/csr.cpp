#include "matrix/csr.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <omp.h>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/coo.hpp"
#include "matrix/dense.hpp"
#include "matrix/ell.hpp"
#include "matrix/sellcs.hpp"

namespace mgko {

namespace kernels::csr {

// Each kernel below is a row body; the strategies further down only decide
// which rows each thread owns.  The body is picked from the operand's shape:
// one right-hand side gets its own row-range loop, wider blocks run the
// row's entries once per tile of up to 8 columns.

/// Columns [0, W) of one row of y = [alpha *] A * b [+ beta * y]: each
/// stored entry updates W accumulators from one contiguous segment of a row
/// of b.
template <size_type W, typename V, typename I>
inline void spmv_row_tile(const V* values, const I* col_idxs, const I* row_ptrs,
                          const V* b, size_type b_stride, V* x, size_type row,
                          bool advanced, V alpha, V beta)
{
    using acc_t = accumulate_t<V>;
    acc_t acc[W]{};
    for (I k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
        const auto value = static_cast<acc_t>(values[k]);
        const V* b_row = b + static_cast<size_type>(col_idxs[k]) * b_stride;
        for (size_type c = 0; c < W; ++c) {
            acc[c] += value * static_cast<acc_t>(b_row[c]);
        }
    }
    // beta == 0 must not read x (may be uninitialized).
    const bool read_x = advanced && beta != zero<V>();
    for (size_type c = 0; c < W; ++c) {
        x[c] = !advanced ? V{acc[c]}
               : read_x  ? alpha * V{acc[c]} + beta * x[c]
                         : alpha * V{acc[c]};
    }
}


/// Computes one row of y = [alpha *] A * b [+ beta * y] for all b columns.
template <typename V, typename I>
inline void spmv_row(const V* values, const I* col_idxs, const I* row_ptrs,
                     const V* b, size_type b_stride, V* x, size_type x_stride,
                     size_type row, size_type vec_cols, bool advanced, V alpha,
                     V beta)
{
    for (size_type c0 = 0; c0 < vec_cols; c0 += tile_cols) {
        with_width<tile_cols>(std::min(tile_cols, vec_cols - c0), [&](auto w) {
            spmv_row_tile<decltype(w)::value>(values, col_idxs, row_ptrs,
                                              b + c0, b_stride,
                                              x + row * x_stride + c0, row,
                                              advanced, alpha, beta);
        });
    }
}


/// Rows [begin, end) of y = [alpha *] A * b [+ beta * y] for a single
/// right-hand side, accumulated in the same order as spmv_row.
template <bool Advanced, typename V, typename I>
inline void spmv_single(const V* values, const I* col_idxs, const I* row_ptrs,
                        const V* b, size_type b_stride, V* x,
                        size_type x_stride, size_type begin, size_type end,
                        V alpha, V beta)
{
    using acc_t = accumulate_t<V>;
    const bool read_out = Advanced && beta != zero<V>();
    for (size_type row = begin; row < end; ++row) {
        acc_t acc{};
        const I row_end = row_ptrs[row + 1];
        for (I k = row_ptrs[row]; k < row_end; ++k) {
            acc += static_cast<acc_t>(values[k]) *
                   static_cast<acc_t>(
                       b[static_cast<size_type>(col_idxs[k]) * b_stride]);
        }
        auto& out = x[row * x_stride];
        if constexpr (Advanced) {
            // beta == 0 must not read `out` (may be uninitialized).
            out = read_out ? alpha * V{acc} + beta * out : alpha * V{acc};
        } else {
            out = V{acc};
        }
    }
}


/// Classical parallel split: contiguous equal-count row blocks per thread.
template <typename Body>
void rows_classical(int nt, size_type rows, Body body)
{
#pragma omp parallel for num_threads(nt) if (nt > 1) schedule(static)
    for (size_type row = 0; row < rows; ++row) {
        body(row, row + 1);
    }
}


/// Load-balanced split: rows are divided so that every thread owns (nearly)
/// the same number of nonzeros — Ginkgo's balancing strategy for
/// irregular matrices.  Row boundaries are found by binary search in the
/// row-pointer array.
template <typename I, typename Body>
void rows_balanced(int nt, const I* row_ptrs, size_type rows, Body body)
{
    const auto nnz = static_cast<size_type>(row_ptrs[rows]);
#pragma omp parallel num_threads(nt) if (nt > 1)
    {
#ifdef _OPENMP
        const int tid = omp_get_thread_num();
        const int threads = omp_get_num_threads();
#else
        const int tid = 0;
        const int threads = 1;
#endif
        const auto target_begin = nnz * tid / threads;
        const auto target_end = nnz * (tid + 1) / threads;
        // Thread t owns the rows whose start offset falls in
        // [target_begin, target_end); boundaries are consistent across
        // threads because both ends use the same search.
        const auto row_begin = static_cast<size_type>(
            std::lower_bound(row_ptrs, row_ptrs + rows,
                             static_cast<I>(target_begin)) -
            row_ptrs);
        const auto row_end =
            tid == threads - 1
                ? rows
                : static_cast<size_type>(
                      std::lower_bound(row_ptrs, row_ptrs + rows,
                                       static_cast<I>(target_end)) -
                      row_ptrs);
        body(row_begin, row_end);
    }
}


/// Wavefront split (HIP path): rows processed in chunks of 64, chunks
/// distributed round-robin.
template <typename Body>
void rows_wavefront(int nt, size_type rows, Body body)
{
    const size_type chunk = 64;
    const size_type num_chunks = ceildiv(rows, chunk);
#pragma omp parallel for num_threads(nt) if (nt > 1) schedule(static, 1)
    for (size_type c = 0; c < num_chunks; ++c) {
        const size_type begin = c * chunk;
        body(begin, std::min(rows, begin + chunk));
    }
}

}  // namespace kernels::csr


namespace {

/// Refuses a size or entry count that IndexType cannot hold, naming it, so
/// that nothing is narrowed and nothing is allocated for it.
template <typename IndexType>
void check_index_range(dim2 size, size_type nnz)
{
    constexpr auto max =
        static_cast<size_type>(std::numeric_limits<IndexType>::max());
    const std::pair<size_type, const char*> counts[] = {
        {size.rows, " rows"}, {size.cols, " columns"}, {nnz, " stored entries"}};
    for (const auto& [count, what] : counts) {
        if (count > max) {
            throw BadParameter(__FILE__, __LINE__,
                               std::to_string(count) + what +
                                   " exceed the index type's range");
        }
    }
}


/// One pass over the triplets on `nt` threads: the position of the first
/// entry whose row or column lies outside the size, compared in int64
/// (num_stored() when there is none), and whether every entry's (row,
/// column) is greater than the one before it.
template <typename V, typename I>
std::pair<size_type, bool> scan_triplets(const matrix_data<V, I>& data,
                                         int nt)
{
    const auto nnz = data.num_stored();
    const auto* entries = data.entries.data();
    const auto rows = data.size.rows;
    const auto cols = data.size.cols;
    size_type first_bad = nnz;
    bool row_major = true;
#pragma omp parallel for num_threads(nt) if (nt > 1) schedule(static) \
    reduction(min : first_bad) reduction(&& : row_major)
    for (size_type i = 0; i < nnz; ++i) {
        const auto row = static_cast<int64>(entries[i].row);
        const auto col = static_cast<int64>(entries[i].col);
        if (row < 0 || row >= rows || col < 0 || col >= cols) {
            first_bad = std::min(first_bad, i);
        }
        if (i > 0) {
            const auto& prev = entries[i - 1];
            row_major = row_major && (prev.row != entries[i].row
                                          ? prev.row < entries[i].row
                                          : prev.col < entries[i].col);
        }
    }
    return {first_bad, row_major};
}


/// `value` as V, through to_float as matrix_data::cast converts it; the
/// same type is copied as it is.
template <typename V, typename SourceValue>
V narrow(SourceValue value)
{
    if constexpr (std::is_same_v<V, SourceValue>) {
        return value;
    } else {
        return static_cast<V>(to_float(value));
    }
}


/// Writes strictly row-major triplets into CSR arrays on `nt` threads.
/// Position i < nnz stores entry i and sets the row pointers of the rows
/// after entry i - 1's up to its own; position nnz sets those after the
/// last entry's.  So every row pointer is written by exactly one position.
template <typename V, typename I, typename SourceValue, typename SourceIndex>
void fill_row_major(const matrix_data<SourceValue, SourceIndex>& data,
                    V* values, I* col_idxs, I* row_ptrs, int nt)
{
    const auto nnz = data.num_stored();
    const auto* entries = data.entries.data();
#pragma omp parallel for num_threads(nt) if (nt > 1) schedule(static)
    for (size_type i = 0; i <= nnz; ++i) {
        const auto first_row =
            i == 0 ? size_type{0}
                   : static_cast<size_type>(entries[i - 1].row) + 1;
        const auto last_row = i == nnz
                                  ? data.size.rows
                                  : static_cast<size_type>(entries[i].row);
        for (auto row = first_row; row <= last_row; ++row) {
            row_ptrs[row] = static_cast<I>(i);
        }
        if (i < nnz) {
            col_idxs[i] = static_cast<I>(entries[i].col);
            values[i] = narrow<V>(entries[i].value);
        }
    }
}

}  // namespace


template <typename ValueType, typename IndexType>
Csr<ValueType, IndexType>::Csr(std::shared_ptr<const Executor> exec, dim2 size,
                               size_type nnz)
    : LinOp{exec, size},
      values_{exec, nnz},
      col_idxs_{exec, nnz},
      row_ptrs_{exec, size.rows + 1}
{
    std::fill_n(row_ptrs_.get_data(), size.rows + 1, IndexType{});
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> Csr<ValueType, IndexType>::create(
    std::shared_ptr<const Executor> exec, dim2 size, size_type nnz)
{
    return std::unique_ptr<Csr>{new Csr{std::move(exec), size, nnz}};
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<ValueType, IndexType>& data)
{
    return from_triplets(std::move(exec), data);
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<double, int64>& data)
    requires(!reads_interchange_natively)
{
    return from_triplets(std::move(exec), data);
}


template <typename ValueType, typename IndexType>
template <typename SourceValue, typename SourceIndex>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::from_triplets(
    std::shared_ptr<const Executor> exec,
    const matrix_data<SourceValue, SourceIndex>& data)
{
    check_index_range<IndexType>(data.size, data.num_stored());
    auto result = create(std::move(exec), data.size);
    result->read_triplets(data);
    return result;
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::create_with_row_counts(
    std::shared_ptr<const Executor> exec, dim2 size,
    const std::vector<size_type>& counts)
{
    MGKO_ENSURE(static_cast<size_type>(counts.size()) == size.rows,
                "one entry count per row");
    const auto nnz = std::accumulate(counts.begin(), counts.end(), size_type{});
    check_index_range<IndexType>(size, nnz);
    auto result = create(std::move(exec), size, nnz);
    auto* row_ptrs = result->get_row_ptrs();
    size_type offset = 0;
    for (size_type row = 0; row < size.rows; ++row) {
        row_ptrs[row] = static_cast<IndexType>(offset);
        offset += counts[static_cast<std::size_t>(row)];
    }
    row_ptrs[size.rows] = static_cast<IndexType>(offset);
    return result;
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::read(
    const matrix_data<ValueType, IndexType>& data)
{
    read_triplets(data);
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::read(const matrix_data<double, int64>& data)
    requires(!reads_interchange_natively)
{
    read_triplets(data);
}


template <typename ValueType, typename IndexType>
template <typename SourceValue, typename SourceIndex>
void Csr<ValueType, IndexType>::read_triplets(
    const matrix_data<SourceValue, SourceIndex>& data)
{
    check_index_range<IndexType>(data.size, data.num_stored());
    const int nt = get_executor()->real_threads();
    const auto [first_bad, row_major] = scan_triplets(data, nt);
    if (first_bad < data.num_stored()) {
        const auto& e = data.entries[static_cast<std::size_t>(first_bad)];
        if (e.row < 0 || static_cast<size_type>(e.row) >= data.size.rows) {
            throw OutOfBounds(__FILE__, __LINE__, e.row, data.size.rows);
        }
        throw OutOfBounds(__FILE__, __LINE__, e.col, data.size.cols);
    }
    auto fill = [&](const auto& src) {
        set_size(src.size);
        const auto nnz = src.num_stored();
        values_.resize_and_reset(nnz);
        col_idxs_.resize_and_reset(nnz);
        row_ptrs_.resize_and_reset(src.size.rows + 1);
        fill_row_major(src, values_.get_data(), col_idxs_.get_data(),
                       row_ptrs_.get_data(), nt);
        invalidate_profile_cache();
    };
    if (row_major) {
        fill(data);
        return;
    }
    // Any other order is narrowed, sorted and its duplicates summed in the
    // value type first, which leaves it strictly row-major.
    matrix_data<ValueType, IndexType> sorted;
    if constexpr (std::is_same_v<matrix_data<ValueType, IndexType>,
                                 matrix_data<SourceValue, SourceIndex>>) {
        sorted = data;
    } else {
        sorted = data.template cast<ValueType, IndexType>();
    }
    sorted.sort_row_major();
    sorted.sum_duplicates();
    fill(sorted);
}


template <typename ValueType, typename IndexType>
matrix_data<ValueType, IndexType> Csr<ValueType, IndexType>::to_data() const
{
    matrix_data<ValueType, IndexType> result{get_size()};
    const auto* values = get_const_values();
    const auto* col_idxs = get_const_col_idxs();
    const auto* row_ptrs = get_const_row_ptrs();
    result.entries.reserve(static_cast<std::size_t>(values_.size()));
    for (size_type row = 0; row < get_size().rows; ++row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            result.add(static_cast<IndexType>(row), col_idxs[k], values[k]);
        }
    }
    return result;
}


template <typename ValueType, typename IndexType>
sim::kernel_profile Csr<ValueType, IndexType>::spmv_profile(
    sim::spmv_strategy s, const sim::MachineModel& m, size_type vec_cols,
    bool advanced) const
{
    if (miss_rate_ < 0.0) {
        miss_rate_ = sim::locality_miss_rate(get_const_col_idxs(),
                                             values_.size(), get_size().cols);
    }
    const auto key = std::make_pair(static_cast<int>(s), m.workers);
    auto it = imbalance_cache_.find(key);
    if (it == imbalance_cache_.end()) {
        it = imbalance_cache_
                 .emplace(key, sim::strategy_imbalance(s, m, get_size().rows,
                                                       get_const_row_ptrs()))
                 .first;
    }
    return sim::assemble_spmv_profile(
        s, m, get_size().rows, values_.size(),
        static_cast<size_type>(sizeof(ValueType)),
        static_cast<size_type>(sizeof(IndexType)), miss_rate_, it->second,
        vec_cols, advanced);
}


namespace {

template <typename V, typename I>
void csr_apply_dispatch(const Csr<V, I>* mat, const Dense<V>* b, Dense<V>* x,
                        bool advanced, V alpha, V beta)
{
    const auto* values = mat->get_const_values();
    const auto* col_idxs = mat->get_const_col_idxs();
    const auto* row_ptrs = mat->get_const_row_ptrs();
    const auto rows = mat->get_size().rows;
    const auto vec_cols = b->get_size().cols;
    const auto exec = mat->get_executor();
    const auto classical =
        mat->get_strategy() == Csr<V, I>::strategy::classical;
    const auto* bv = b->get_const_values();
    const auto b_stride = b->get_stride();
    auto* xv = x->get_values();
    const auto x_stride = x->get_stride();

    // Hands `split` the row body that fits the operand: a single right-hand
    // side runs the row-range kernel, wider blocks the per-row column loop.
    auto run_rows = [&](auto split) {
        if (vec_cols != 1) {
            split([&](size_type begin, size_type end) {
                for (auto row = begin; row < end; ++row) {
                    kernels::csr::spmv_row(values, col_idxs, row_ptrs, bv,
                                           b_stride, xv, x_stride, row,
                                           vec_cols, advanced, alpha, beta);
                }
            });
        } else if (advanced) {
            split([&](size_type begin, size_type end) {
                kernels::csr::spmv_single<true>(values, col_idxs, row_ptrs,
                                                bv, b_stride, xv, x_stride,
                                                begin, end, alpha, beta);
            });
        } else {
            split([&](size_type begin, size_type end) {
                kernels::csr::spmv_single<false>(values, col_idxs, row_ptrs,
                                                 bv, b_stride, xv, x_stride,
                                                 begin, end, alpha, beta);
            });
        }
    };
    auto tick_strategy = [&](const Executor* e, sim::spmv_strategy s) {
        kernels::tick(e, mat->spmv_profile(s, e->model(), vec_cols, advanced));
    };

    // Each backend runs its own row partition and ticks its own strategy.
    exec->run("csr_spmv", [&](const Executor* e) {
        const int nt = e->real_threads();
        switch (e->kind()) {
        case exec_kind::reference:
            // Textbook serial order (reference executor ground truth).
            run_rows([&](auto body) { body(size_type{0}, rows); });
            tick_strategy(e, sim::spmv_strategy::serial);
            break;
        case exec_kind::omp:
            if (classical) {
                run_rows([&](auto body) {
                    kernels::csr::rows_classical(nt, rows, body);
                });
                tick_strategy(e, sim::spmv_strategy::classical_rows);
            } else {
                run_rows([&](auto body) {
                    kernels::csr::rows_balanced(nt, row_ptrs, rows, body);
                });
                tick_strategy(e, sim::spmv_strategy::balanced_nnz);
            }
            break;
        case exec_kind::cuda:
            run_rows([&](auto body) {
                kernels::csr::rows_balanced(nt, row_ptrs, rows, body);
            });
            tick_strategy(e, classical ? sim::spmv_strategy::classical_rows
                                       : sim::spmv_strategy::balanced_nnz);
            break;
        case exec_kind::hip:
            run_rows([&](auto body) {
                kernels::csr::rows_wavefront(nt, rows, body);
            });
            tick_strategy(e, sim::spmv_strategy::wavefront64);
            break;
        }
    });
}

}  // namespace


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    csr_apply_dispatch(this, as_dense<ValueType>(b), as_dense<ValueType>(x),
                       false, one<ValueType>(), zero<ValueType>());
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                           const LinOp* beta, LinOp* x) const
{
    csr_apply_dispatch(this, as_dense<ValueType>(b), as_dense<ValueType>(x),
                       true, as_dense<ValueType>(alpha)->at(0, 0),
                       as_dense<ValueType>(beta)->at(0, 0));
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>>
Csr<ValueType, IndexType>::transpose() const
{
    const auto rows = get_size().rows;
    const auto cols = get_size().cols;
    const auto nnz = values_.size();
    auto result = create(get_executor(), dim2{cols, rows}, nnz);

    auto* t_row_ptrs = result->get_row_ptrs();
    auto* t_col_idxs = result->get_col_idxs();
    auto* t_values = result->get_values();
    const auto* row_ptrs = get_const_row_ptrs();
    const auto* col_idxs = get_const_col_idxs();
    const auto* values = get_const_values();

    // A counting sort by column over contiguous row blocks, one per thread,
    // each holding about nnz / blocks entries.  Every block counts its
    // columns, the offsets are taken in (column, block) order, and every
    // block places its entries from its own offsets: each entry lands where
    // the serial counting sort puts it.  The blocks are capped at
    // nnz / cols so that the counters never outgrow the output.
    const auto blocks = std::max<size_type>(
        1, std::min<size_type>(get_executor()->real_threads(),
                               cols > 0 ? nnz / cols : 0));
    auto block_begin = [&](size_type b) {
        return b == 0 ? size_type{0}
                      : static_cast<size_type>(
                            std::lower_bound(
                                row_ptrs, row_ptrs + rows,
                                static_cast<IndexType>(nnz * b / blocks)) -
                            row_ptrs);
    };
    std::vector<IndexType> next(static_cast<std::size_t>(blocks * cols));
    auto for_each_block = [&](auto body) {
#pragma omp parallel for num_threads(static_cast<int>(blocks)) \
    if (blocks > 1) schedule(static, 1)
        for (size_type b = 0; b < blocks; ++b) {
            const auto end = b + 1 == blocks ? rows : block_begin(b + 1);
            body(block_begin(b), end, next.data() + b * cols);
        }
    };
    for_each_block([&](size_type begin, size_type end, IndexType* count) {
        for (auto k = row_ptrs[begin]; k < row_ptrs[end]; ++k) {
            ++count[col_idxs[k]];
        }
    });
    IndexType offset{};
    for (size_type col = 0; col < cols; ++col) {
        t_row_ptrs[col] = offset;
        for (size_type b = 0; b < blocks; ++b) {
            auto& slot = next[static_cast<std::size_t>(b * cols + col)];
            offset += std::exchange(slot, offset);
        }
    }
    t_row_ptrs[cols] = offset;
    for_each_block([&](size_type begin, size_type end, IndexType* dst) {
        for (auto row = begin; row < end; ++row) {
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                const auto pos = dst[col_idxs[k]]++;
                t_col_idxs[pos] = static_cast<IndexType>(row);
                t_values[pos] = values[k];
            }
        }
    });
    get_executor()->clock().tick(
        sim::profile_stream(static_cast<double>(nnz) *
                                (sizeof(ValueType) + sizeof(IndexType)) * 3.0,
                            0.0, 0.4)
            .time_ns(get_executor()->model()));
    return result;
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Csr<ValueType, IndexType>> Csr<ValueType, IndexType>::clone_to(
    std::shared_ptr<const Executor> exec) const
{
    auto result = create(exec, get_size(), values_.size());
    result->values_ = array<ValueType>{exec, values_};
    result->col_idxs_ = array<IndexType>{exec, col_idxs_};
    result->row_ptrs_ = array<IndexType>{exec, row_ptrs_};
    result->strategy_ = strategy_;
    return result;
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::sort_by_column_index()
{
    auto* values = get_values();
    auto* col_idxs = get_col_idxs();
    const auto* row_ptrs = get_const_row_ptrs();
    std::vector<std::pair<IndexType, ValueType>> row_buffer;
    for (size_type row = 0; row < get_size().rows; ++row) {
        const auto begin = row_ptrs[row];
        const auto end = row_ptrs[row + 1];
        row_buffer.clear();
        for (auto k = begin; k < end; ++k) {
            row_buffer.emplace_back(col_idxs[k], values[k]);
        }
        std::sort(row_buffer.begin(), row_buffer.end(),
                  [](const auto& a, const auto& b) {
                      return a.first < b.first;
                  });
        for (auto k = begin; k < end; ++k) {
            col_idxs[k] = row_buffer[static_cast<std::size_t>(k - begin)].first;
            values[k] = row_buffer[static_cast<std::size_t>(k - begin)].second;
        }
    }
    invalidate_profile_cache();
}


template <typename ValueType, typename IndexType>
bool Csr<ValueType, IndexType>::is_sorted_by_column_index() const
{
    const auto* col_idxs = get_const_col_idxs();
    const auto* row_ptrs = get_const_row_ptrs();
    for (size_type row = 0; row < get_size().rows; ++row) {
        for (auto k = row_ptrs[row] + 1; k < row_ptrs[row + 1]; ++k) {
            if (col_idxs[k - 1] >= col_idxs[k]) {
                return false;
            }
        }
    }
    return true;
}


template <typename ValueType, typename IndexType>
std::unique_ptr<Dense<ValueType>>
Csr<ValueType, IndexType>::extract_diagonal() const
{
    auto result = Dense<ValueType>::create(get_executor(),
                                           dim2{get_size().rows, 1});
    result->fill(zero<ValueType>());
    const auto* values = get_const_values();
    const auto* col_idxs = get_const_col_idxs();
    const auto* row_ptrs = get_const_row_ptrs();
    for (size_type row = 0; row < get_size().rows; ++row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (static_cast<size_type>(col_idxs[k]) == row) {
                result->at(row, 0) = values[k];
            }
        }
    }
    return result;
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::convert_to(Dense<ValueType>* result) const
{
    result->read(to_data().template cast<ValueType, int64>());
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::convert_to(
    Coo<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::convert_to(
    Ell<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


template <typename ValueType, typename IndexType>
void Csr<ValueType, IndexType>::convert_to(
    SellCs<ValueType, IndexType>* result) const
{
    result->read(to_data());
}


#define MGKO_DECLARE_CSR(ValueType, IndexType) \
    template class Csr<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_CSR);


}  // namespace mgko
