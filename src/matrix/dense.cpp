#include "matrix/dense.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernel_utils.hpp"

namespace mgko {

namespace kernels::dense {

// All dense kernels share one body across backends: the computation is
// identical, and the performance difference between backends is carried by
// each executor's MachineModel when the cost profile is ticked.

// fill/scale/add_scaled pick their loop from the operand's shape: when
// every operand is contiguous (stride == cols) and alpha is 1x1, the block
// is one flat run of rows * cols values; strided views and per-column alpha
// walk rows and columns.  Both loops do the same arithmetic per element.

template <typename V>
void fill(const Executor* exec, V* values, size_type rows, size_type cols,
          size_type stride, V value)
{
    const int nt = exec->real_threads();
    if (stride == cols) {
        parallel_for(nt, rows * cols, [=](size_type i) { values[i] = value; });
    } else {
        parallel_for(nt, rows, [&](size_type r) {
            std::fill_n(values + r * stride, cols, value);
        });
    }
    kernels::tick(exec, sim::profile_stream(
                            static_cast<double>(rows * cols * sizeof(V)), 0.0));
}

template <typename V>
void scale(const Executor* exec, V* x, size_type rows, size_type cols,
           size_type stride, const V* alpha, size_type alpha_cols)
{
    const int nt = exec->real_threads();
    if (alpha_cols == 1 && stride == cols) {
        const V a = alpha[0];
        parallel_for(nt, rows * cols, [=](size_type i) { x[i] *= a; });
    } else {
        parallel_for(nt, rows, [&](size_type r) {
            for (size_type c = 0; c < cols; ++c) {
                x[r * stride + c] *= alpha[alpha_cols == 1 ? 0 : c];
            }
        });
    }
    const double bytes = static_cast<double>(2 * rows * cols * sizeof(V));
    kernels::tick(exec, sim::profile_stream(bytes,
                                            static_cast<double>(rows * cols)));
}

/// x += alpha * b, or x -= alpha * b when Subtract.
template <bool Subtract, typename V>
void add_scaled(const Executor* exec, V* x, const V* b, size_type rows,
                size_type cols, size_type x_stride, size_type b_stride,
                const V* alpha, size_type alpha_cols)
{
    auto update = [](V& out, V term) {
        if constexpr (Subtract) {
            out -= term;
        } else {
            out += term;
        }
    };
    const int nt = exec->real_threads();
    if (alpha_cols == 1 && x_stride == cols && b_stride == cols) {
        const V a = alpha[0];
        parallel_for(nt, rows * cols,
                     [=](size_type i) { update(x[i], a * b[i]); });
    } else {
        parallel_for(nt, rows, [&](size_type r) {
            for (size_type c = 0; c < cols; ++c) {
                update(x[r * x_stride + c],
                       alpha[alpha_cols == 1 ? 0 : c] * b[r * b_stride + c]);
            }
        });
    }
    const double bytes = static_cast<double>(3 * rows * cols * sizeof(V));
    kernels::tick(exec, sim::profile_stream(
                            bytes, static_cast<double>(2 * rows * cols)));
}

// dot and norm2 are bitwise reproducible at a fixed thread count: each
// thread sums its static_block of rows into its own stack slot, and the
// slots are added in thread order after the region, so the result does not
// depend on which thread finishes first.  No allocation and no barrier
// beyond the region's own join.  `finish(c, sum)` stores column c.
template <typename Term, typename Finish>
void ordered_column_sums(int nt, size_type rows, size_type cols, Term term,
                         Finish finish)
{
    constexpr int slots = 256;
    nt = std::clamp(nt, 1, slots);
    double partial[slots];
    // One region covers as many columns as the slots hold: every column
    // while cols * nt <= 256.
    const size_type chunk = slots / nt;
    for (size_type c0 = 0; c0 < cols; c0 += chunk) {
        const size_type width = std::min(chunk, cols - c0);
        std::fill_n(partial, width * nt, 0.0);
        parallel_team(nt, [&](int t, int threads) {
            const auto [begin, end] = static_block(rows, t, threads);
            for (size_type c = 0; c < width; ++c) {
                double acc = 0.0;
                for (size_type r = begin; r < end; ++r) {
                    acc += term(r, c0 + c);
                }
                partial[c * nt + t] = acc;
            }
        });
        for (size_type c = 0; c < width; ++c) {
            double sum = 0.0;
            for (int t = 0; t < nt; ++t) {
                sum += partial[c * nt + t];
            }
            finish(c0 + c, sum);
        }
    }
}

template <typename V>
void compute_dot(const Executor* exec, const V* a, const V* b, size_type rows,
                 size_type cols, size_type a_stride, size_type b_stride,
                 V* result)
{
    ordered_column_sums(
        exec->real_threads(), rows, cols,
        [&](size_type r, size_type c) {
            return to_float(a[r * a_stride + c]) *
                   to_float(b[r * b_stride + c]);
        },
        [&](size_type c, double sum) { result[c] = static_cast<V>(sum); });
    const double bytes = static_cast<double>(2 * rows * cols * sizeof(V));
    kernels::tick(exec,
                  sim::profile_reduction(exec->model(), bytes,
                                         static_cast<double>(2 * rows * cols)));
}

template <typename V>
void compute_norm2(const Executor* exec, const V* a, size_type rows,
                   size_type cols, size_type stride, V* result)
{
    ordered_column_sums(
        exec->real_threads(), rows, cols,
        [&](size_type r, size_type c) {
            const double v = to_float(a[r * stride + c]);
            return v * v;
        },
        [&](size_type c, double sum) {
            result[c] = static_cast<V>(std::sqrt(sum));
        });
    const double bytes = static_cast<double>(rows * cols * sizeof(V));
    kernels::tick(exec,
                  sim::profile_reduction(exec->model(), bytes,
                                         static_cast<double>(2 * rows * cols)));
}

// gemm and gemv_t keep tiles of outputs in local accumulators so that
// each pass reads contiguous row segments of the operands.  Every output
// still adds its terms in ascending reduction index in accumulate_t, and
// is computed by one thread, so results are bitwise independent of the
// tile shape and of the thread count.

/// Columns [0, W) of one output row of x = alpha * a * b + beta * x: `l`
/// runs once over a[i][l] * b[l][0..W).
template <size_type W, typename V>
inline void gemm_row_tile(const V* a_row, const V* b, V* x, size_type k,
                          size_type b_stride, V alpha, V beta)
{
    using acc_t = accumulate_t<V>;
    acc_t acc[W]{};
    for (size_type l = 0; l < k; ++l) {
        const auto a_il = static_cast<acc_t>(a_row[l]);
        const V* b_row = b + l * b_stride;
        // One SIMD lane per column, each with its own accumulator, and `l`
        // sequential: the same additions in the same order.  Without the
        // pragma GCC 12 -O3 vectorizes `l` instead, as W in-order
        // reductions over strided loads of b, at half the speed.
#pragma omp simd
        for (size_type j = 0; j < W; ++j) {
            acc[j] += a_il * static_cast<acc_t>(b_row[j]);
        }
    }
    // beta == 0 must not read x: it may be uninitialized (0 * NaN would
    // poison the result).
    const bool read_x = beta != zero<V>();
    for (size_type j = 0; j < W; ++j) {
        x[j] = read_x ? alpha * V{acc[j]} + beta * x[j] : alpha * V{acc[j]};
    }
}

template <typename V>
void gemm(const Executor* exec, const V* a, const V* b, V* x, size_type m,
          size_type k, size_type n, size_type a_stride, size_type b_stride,
          size_type x_stride, V alpha, V beta)
{
    // Threads own whole output rows.  A single column (GMRES's basis
    // update) runs the width-1 tile, the per-row dot, without the width
    // dispatch in its row loop.
    const int nt = exec->real_threads();
    if (n == 1) {
        parallel_for(nt, m, [&](size_type i) {
            gemm_row_tile<1>(a + i * a_stride, b, x + i * x_stride, k,
                             b_stride, alpha, beta);
        });
    } else {
        parallel_for(nt, m, [&](size_type i) {
            for (size_type j0 = 0; j0 < n; j0 += tile_cols) {
                with_width<tile_cols>(std::min(tile_cols, n - j0),
                                      [&](auto w) {
                                          gemm_row_tile<decltype(w)::value>(
                                              a + i * a_stride, b + j0,
                                              x + i * x_stride + j0, k,
                                              b_stride, alpha, beta);
                                      });
            }
        });
    }
    const double bytes =
        static_cast<double>((m * k + k * n + 2 * m * n) * sizeof(V));
    kernels::tick(exec, sim::profile_stream(
                            bytes, 2.0 * static_cast<double>(m) *
                                       static_cast<double>(k) *
                                       static_cast<double>(n)));
}

/// Rows [0, TI) and columns [0, TJ) of a tile of x = aᵀ * b: `l` runs
/// outermost and reads TI contiguous values of row l of a and TJ of row l
/// of b.
template <size_type TI, size_type TJ, typename V>
inline void gemv_t_tile(const V* a, const V* b, V* x, size_type m,
                        size_type a_stride, size_type b_stride,
                        size_type x_stride)
{
    using acc_t = accumulate_t<V>;
    acc_t acc[TI][TJ]{};
    for (size_type l = 0; l < m; ++l) {
        const V* a_row = a + l * a_stride;
        const V* b_row = b + l * b_stride;
        for (size_type i = 0; i < TI; ++i) {
            const auto a_li = static_cast<acc_t>(a_row[i]);
            for (size_type j = 0; j < TJ; ++j) {
                acc[i][j] += a_li * static_cast<acc_t>(b_row[j]);
            }
        }
    }
    for (size_type i = 0; i < TI; ++i) {
        for (size_type j = 0; j < TJ; ++j) {
            x[i * x_stride + j] = V{acc[i][j]};
        }
    }
}

/// x = aᵀ * b over TI x TJ tiles of x; threads own whole tiles.
template <size_type TI, size_type TJ, typename V>
void gemv_t_tiles(int nt, const V* a, const V* b, V* x, size_type m,
                  size_type k, size_type n, size_type a_stride,
                  size_type b_stride, size_type x_stride)
{
    const size_type i_tiles = ceildiv(k, TI);
    const size_type j_tiles = ceildiv(n, TJ);
    parallel_for(nt, i_tiles * j_tiles, [&](size_type t) {
        const size_type i0 = t / j_tiles * TI;
        const size_type j0 = t % j_tiles * TJ;
        with_width<TI>(std::min(TI, k - i0), [&](auto ti) {
            with_width<TJ>(std::min(TJ, n - j0), [&](auto tj) {
                gemv_t_tile<decltype(ti)::value, decltype(tj)::value>(
                    a + i0, b + j0, x + i0 * x_stride + j0, m, a_stride,
                    b_stride, x_stride);
            });
        });
    });
}

template <typename V>
void gemv_t(const Executor* exec, const V* a, const V* b, V* x, size_type m,
            size_type k, size_type n, size_type a_stride, size_type b_stride,
            size_type x_stride)
{
    // x(k x n) = aᵀ(k x m) * b(m x n), a stored as (m x k) row-major.  The
    // tile shape follows the operands: a single right-hand side (GMRES
    // projecting onto its basis) takes 8 contiguous outputs per tile, a
    // block 2 x 8.
    const int nt = exec->real_threads();
    if (n == 1) {
        gemv_t_tiles<tile_cols, 1>(nt, a, b, x, m, k, n, a_stride, b_stride,
                                   x_stride);
    } else {
        gemv_t_tiles<2, tile_cols>(nt, a, b, x, m, k, n, a_stride, b_stride,
                                   x_stride);
    }
    const double bytes =
        static_cast<double>((m * k + m * n + k * n) * sizeof(V));
    kernels::tick(exec, sim::profile_stream(
                            bytes, 2.0 * static_cast<double>(m) *
                                       static_cast<double>(k) *
                                       static_cast<double>(n)));
}

}  // namespace kernels::dense


template <typename ValueType>
Dense<ValueType>::Dense(std::shared_ptr<const Executor> exec, dim2 size,
                        size_type stride)
    : LinOp{exec, size},
      values_{exec, size.rows * (stride == 0 ? size.cols : stride)},
      stride_{stride == 0 ? size.cols : stride}
{}


template <typename ValueType>
Dense<ValueType>::Dense(std::shared_ptr<const Executor> exec, dim2 size,
                        array<ValueType> values, size_type stride)
    : LinOp{exec, size}, values_{std::move(values)}, stride_{stride}
{
    MGKO_ENSURE(values_.size() >= (size.rows - 1) * stride + size.cols ||
                    size.rows == 0,
                "value buffer too small for dimensions");
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create(
    std::shared_ptr<const Executor> exec, dim2 size, size_type stride)
{
    return std::unique_ptr<Dense>{new Dense{std::move(exec), size, stride}};
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_filled(
    std::shared_ptr<const Executor> exec, dim2 size, ValueType value)
{
    auto result = create(std::move(exec), size);
    result->fill(value);
    return result;
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_scalar(
    std::shared_ptr<const Executor> exec, ValueType value)
{
    return create_filled(std::move(exec), dim2{1, 1}, value);
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_view(
    std::shared_ptr<const Executor> exec, dim2 size, ValueType* data,
    size_type stride)
{
    if (stride == 0) {
        stride = size.cols;
    }
    auto buffer = array<ValueType>::view(
        exec, size.rows == 0 ? 0 : (size.rows - 1) * stride + size.cols, data);
    return std::unique_ptr<Dense>{
        new Dense{std::move(exec), size, std::move(buffer), stride}};
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::create_from_data(
    std::shared_ptr<const Executor> exec,
    const matrix_data<ValueType, int64>& data)
{
    auto result = create(std::move(exec), data.size);
    result->read(data);
    return result;
}


template <typename ValueType>
void Dense<ValueType>::read(const matrix_data<ValueType, int64>& data)
{
    data.validate();
    set_size(data.size);
    stride_ = data.size.cols;
    values_.resize_and_reset(data.size.rows * stride_);
    std::fill_n(values_.get_data(), values_.size(), zero<ValueType>());
    for (const auto& e : data.entries) {
        values_.get_data()[e.row * stride_ + e.col] += e.value;
    }
}


template <typename ValueType>
matrix_data<ValueType, int64> Dense<ValueType>::to_data() const
{
    matrix_data<ValueType, int64> result{get_size()};
    for (size_type r = 0; r < get_size().rows; ++r) {
        for (size_type c = 0; c < get_size().cols; ++c) {
            const auto v = values_.get_const_data()[r * stride_ + c];
            if (v != zero<ValueType>()) {
                result.add(r, c, v);
            }
        }
    }
    return result;
}


template <typename ValueType>
ValueType& Dense<ValueType>::at(size_type row, size_type col)
{
    if (row < 0 || row >= get_size().rows) {
        throw OutOfBounds(__FILE__, __LINE__, row, get_size().rows);
    }
    if (col < 0 || col >= get_size().cols) {
        throw OutOfBounds(__FILE__, __LINE__, col, get_size().cols);
    }
    return values_.get_data()[row * stride_ + col];
}


template <typename ValueType>
ValueType Dense<ValueType>::at(size_type row, size_type col) const
{
    if (row < 0 || row >= get_size().rows) {
        throw OutOfBounds(__FILE__, __LINE__, row, get_size().rows);
    }
    if (col < 0 || col >= get_size().cols) {
        throw OutOfBounds(__FILE__, __LINE__, col, get_size().cols);
    }
    return values_.get_const_data()[row * stride_ + col];
}


template <typename ValueType>
void Dense<ValueType>::fill(ValueType value)
{
    get_executor()->run("dense_fill", [&](const Executor* e) {
        kernels::dense::fill(e, get_values(), get_size().rows, get_size().cols,
                             stride_, value);
    });
}


template <typename ValueType>
void Dense<ValueType>::scale(const Dense* alpha)
{
    MGKO_ENSURE(alpha->get_size().rows == 1 &&
                    (alpha->get_size().cols == 1 ||
                     alpha->get_size().cols == get_size().cols),
                "alpha must be 1x1 or 1 x cols");
    get_executor()->run("dense_scale", [&](const Executor* e) {
        kernels::dense::scale(e, get_values(), get_size().rows,
                              get_size().cols, stride_,
                              alpha->get_const_values(),
                              alpha->get_size().cols);
    });
}


template <typename ValueType>
void Dense<ValueType>::add_scaled(const Dense* alpha, const Dense* b)
{
    MGKO_ASSERT_EQUAL_DIMENSIONS("add_scaled", get_size(), b->get_size());
    get_executor()->run("dense_add_scaled", [&](const Executor* e) {
        kernels::dense::add_scaled<false>(
            e, get_values(), b->get_const_values(), get_size().rows,
            get_size().cols, stride_, b->stride_, alpha->get_const_values(),
            alpha->get_size().cols);
    });
}


template <typename ValueType>
void Dense<ValueType>::sub_scaled(const Dense* alpha, const Dense* b)
{
    MGKO_ASSERT_EQUAL_DIMENSIONS("sub_scaled", get_size(), b->get_size());
    get_executor()->run("dense_sub_scaled", [&](const Executor* e) {
        kernels::dense::add_scaled<true>(
            e, get_values(), b->get_const_values(), get_size().rows,
            get_size().cols, stride_, b->stride_, alpha->get_const_values(),
            alpha->get_size().cols);
    });
}


template <typename ValueType>
void Dense<ValueType>::compute_dot(const Dense* b, Dense* result) const
{
    MGKO_ASSERT_EQUAL_DIMENSIONS("compute_dot", get_size(), b->get_size());
    MGKO_ASSERT_EQUAL_DIMENSIONS("compute_dot result",
                                 result->get_size(),
                                 (dim2{1, get_size().cols}));
    get_executor()->run("dense_dot", [&](const Executor* e) {
        kernels::dense::compute_dot(e, get_const_values(),
                                    b->get_const_values(), get_size().rows,
                                    get_size().cols, stride_, b->stride_,
                                    result->get_values());
    });
}


template <typename ValueType>
void Dense<ValueType>::compute_norm2(Dense* result) const
{
    MGKO_ASSERT_EQUAL_DIMENSIONS("compute_norm2 result", result->get_size(),
                                 (dim2{1, get_size().cols}));
    get_executor()->run("dense_norm2", [&](const Executor* e) {
        kernels::dense::compute_norm2(e, get_const_values(), get_size().rows,
                                      get_size().cols, stride_,
                                      result->get_values());
    });
}


template <typename ValueType>
double Dense<ValueType>::dot_scalar(const Dense* b) const
{
    auto result = Dense::create(get_executor(), dim2{1, get_size().cols});
    compute_dot(b, result.get());
    return to_float(result->at(0, 0));
}


template <typename ValueType>
double Dense<ValueType>::norm2_scalar() const
{
    auto result = Dense::create(get_executor(), dim2{1, get_size().cols});
    compute_norm2(result.get());
    return to_float(result->at(0, 0));
}


template <typename ValueType>
void Dense<ValueType>::transpose_apply(const Dense* b, Dense* x) const
{
    MGKO_ASSERT_CONFORMANT("transpose_apply", get_size().transposed(),
                           b->get_size());
    MGKO_ASSERT_EQUAL_DIMENSIONS("transpose_apply result", x->get_size(),
                                 (dim2{get_size().cols, b->get_size().cols}));
    get_executor()->run("dense_gemv_t", [&](const Executor* e) {
        kernels::dense::gemv_t(e, get_const_values(), b->get_const_values(),
                               x->get_values(), get_size().rows,
                               get_size().cols, b->get_size().cols, stride_,
                               b->get_stride(), x->get_stride());
    });
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::transpose() const
{
    auto result =
        Dense::create(get_executor(), dim2{get_size().cols, get_size().rows});
    for (size_type r = 0; r < get_size().rows; ++r) {
        for (size_type c = 0; c < get_size().cols; ++c) {
            result->get_values()[c * result->stride_ + r] =
                get_const_values()[r * stride_ + c];
        }
    }
    get_executor()->clock().tick(
        sim::profile_stream(
            static_cast<double>(2 * get_size().area() * sizeof(ValueType)),
            0.0, 0.5)
            .time_ns(get_executor()->model()));
    return result;
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::clone() const
{
    return clone_to(get_executor());
}


namespace {

/// Row-wise strided copy charged as ONE transfer of the full payload (the
/// per-row loop is a host artifact; devices move the block in one burst).
template <typename V>
void strided_copy(const Executor* dst_exec, const Executor* src_exec,
                  dim2 size, const V* src, mgko::size_type src_stride, V* dst,
                  mgko::size_type dst_stride)
{
    if (size.rows == 0 || size.cols == 0) {
        return;
    }
    if (src_stride == size.cols && dst_stride == size.cols) {
        dst_exec->copy_from(src_exec,
                            size.area() *
                                static_cast<mgko::size_type>(sizeof(V)),
                            src, dst);
        return;
    }
    for (mgko::size_type r = 0; r < size.rows; ++r) {
        std::copy_n(src + r * src_stride, size.cols, dst + r * dst_stride);
    }
    dst_exec->charge_copy(src_exec, size.area() *
                                        static_cast<mgko::size_type>(sizeof(V)));
}

}  // namespace


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::clone_to(
    std::shared_ptr<const Executor> exec) const
{
    auto result = Dense::create(exec, get_size());
    strided_copy(exec.get(), get_executor().get(), get_size(),
                 get_const_values(), stride_, result->get_values(),
                 result->stride_);
    return result;
}


template <typename ValueType>
void Dense<ValueType>::copy_from(const Dense* other)
{
    MGKO_ASSERT_EQUAL_DIMENSIONS("copy_from", get_size(), other->get_size());
    strided_copy(get_executor().get(), other->get_executor().get(), get_size(),
                 other->get_const_values(), other->stride_, get_values(),
                 stride_);
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::column_view(size_type col)
{
    MGKO_ENSURE(col >= 0 && col < get_size().cols, "column out of range");
    return create_view(get_executor(), dim2{get_size().rows, 1},
                       get_values() + col, stride_);
}


template <typename ValueType>
std::unique_ptr<const Dense<ValueType>> Dense<ValueType>::column_view(
    size_type col) const
{
    MGKO_ENSURE(col >= 0 && col < get_size().cols, "column out of range");
    return create_view(get_executor(), dim2{get_size().rows, 1},
                       const_cast<ValueType*>(get_const_values()) + col,
                       stride_);
}


template <typename ValueType>
std::unique_ptr<Dense<ValueType>> Dense<ValueType>::row_block_view(
    size_type begin, size_type end)
{
    MGKO_ENSURE(begin >= 0 && begin <= end && end <= get_size().rows,
                "invalid row block");
    return create_view(get_executor(), dim2{end - begin, get_size().cols},
                       get_values() + begin * stride_, stride_);
}


template <typename ValueType>
void Dense<ValueType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    get_executor()->run("dense_gemm", [&](const Executor* e) {
        kernels::dense::gemm(e, get_const_values(), dense_b->get_const_values(),
                             dense_x->get_values(), get_size().rows,
                             get_size().cols, dense_b->get_size().cols,
                             stride_, dense_b->get_stride(),
                             dense_x->get_stride(), one<ValueType>(),
                             zero<ValueType>());
    });
}


template <typename ValueType>
void Dense<ValueType>::apply_impl(const LinOp* alpha, const LinOp* b,
                                  const LinOp* beta, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto a = as_dense<ValueType>(alpha)->at(0, 0);
    const auto bt = as_dense<ValueType>(beta)->at(0, 0);
    get_executor()->run("dense_gemm", [&](const Executor* e) {
        kernels::dense::gemm(e, get_const_values(), dense_b->get_const_values(),
                             dense_x->get_values(), get_size().rows,
                             get_size().cols, dense_b->get_size().cols,
                             stride_, dense_b->get_stride(),
                             dense_x->get_stride(), a, bt);
    });
}


template <typename ValueType>
Dense<ValueType>* as_dense(LinOp* op)
{
    auto result = dynamic_cast<Dense<ValueType>*>(op);
    if (result == nullptr) {
        MGKO_NOT_SUPPORTED("operand is not Dense<" +
                           to_string(dtype_of<ValueType>::value) + ">");
    }
    return result;
}


template <typename ValueType>
const Dense<ValueType>* as_dense(const LinOp* op)
{
    auto result = dynamic_cast<const Dense<ValueType>*>(op);
    if (result == nullptr) {
        MGKO_NOT_SUPPORTED("operand is not Dense<" +
                           to_string(dtype_of<ValueType>::value) + ">");
    }
    return result;
}


std::unique_ptr<LinOp> create_dense_like(const LinOp* proto, dim2 size)
{
    if (auto d = dynamic_cast<const Dense<half>*>(proto)) {
        return Dense<half>::create(d->get_executor(), size);
    }
    if (auto d = dynamic_cast<const Dense<float>*>(proto)) {
        return Dense<float>::create(d->get_executor(), size);
    }
    if (auto d = dynamic_cast<const Dense<double>*>(proto)) {
        return Dense<double>::create(d->get_executor(), size);
    }
    MGKO_NOT_SUPPORTED("prototype is not a Dense operator");
}


void copy_dense(const LinOp* src, LinOp* dst)
{
    if (auto s = dynamic_cast<const Dense<half>*>(src)) {
        as_dense<half>(dst)->copy_from(s);
        return;
    }
    if (auto s = dynamic_cast<const Dense<float>*>(src)) {
        as_dense<float>(dst)->copy_from(s);
        return;
    }
    if (auto s = dynamic_cast<const Dense<double>*>(src)) {
        as_dense<double>(dst)->copy_from(s);
        return;
    }
    MGKO_NOT_SUPPORTED("source is not a Dense operator");
}


#define MGKO_DECLARE_DENSE(ValueType) template class Dense<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_DENSE);

#define MGKO_DECLARE_AS_DENSE(ValueType)                      \
    template Dense<ValueType>* as_dense<ValueType>(LinOp*);   \
    template const Dense<ValueType>* as_dense<ValueType>(const LinOp*)
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_AS_DENSE);


}  // namespace mgko
