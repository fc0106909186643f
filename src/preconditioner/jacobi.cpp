#include "preconditioner/jacobi.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"

namespace mgko::preconditioner {

namespace {

/// Inverts a dense bs x bs block in place via Gauss-Jordan with partial
/// pivoting; throws NumericalError on singularity.
template <typename V>
void invert_block(std::vector<double>& block, size_type bs)
{
    std::vector<double> inv(static_cast<std::size_t>(bs * bs), 0.0);
    for (size_type i = 0; i < bs; ++i) {
        inv[static_cast<std::size_t>(i * bs + i)] = 1.0;
    }
    auto at = [&](std::vector<double>& m, size_type r, size_type c) -> double& {
        return m[static_cast<std::size_t>(r * bs + c)];
    };
    for (size_type col = 0; col < bs; ++col) {
        // partial pivot
        size_type pivot_row = col;
        double best = std::abs(at(block, col, col));
        for (size_type r = col + 1; r < bs; ++r) {
            if (std::abs(at(block, r, col)) > best) {
                best = std::abs(at(block, r, col));
                pivot_row = r;
            }
        }
        if (best == 0.0) {
            throw NumericalError(__FILE__, __LINE__,
                                 "singular diagonal block in block-Jacobi");
        }
        if (pivot_row != col) {
            for (size_type c = 0; c < bs; ++c) {
                std::swap(at(block, col, c), at(block, pivot_row, c));
                std::swap(at(inv, col, c), at(inv, pivot_row, c));
            }
        }
        const double pivot = at(block, col, col);
        for (size_type c = 0; c < bs; ++c) {
            at(block, col, c) /= pivot;
            at(inv, col, c) /= pivot;
        }
        for (size_type r = 0; r < bs; ++r) {
            if (r == col) {
                continue;
            }
            const double factor = at(block, r, col);
            if (factor != 0.0) {
                for (size_type c = 0; c < bs; ++c) {
                    at(block, r, c) -= factor * at(block, col, c);
                    at(inv, r, c) -= factor * at(inv, col, c);
                }
            }
        }
    }
    block = std::move(inv);
}

}  // namespace


template <typename ValueType, typename IndexType>
Jacobi<ValueType, IndexType>::Jacobi(
    std::shared_ptr<const Executor> exec, jacobi_parameters params,
    std::shared_ptr<const Csr<ValueType, IndexType>> system)
    : solver::EnableAdvancedApply<ValueType>{exec, system->get_size()},
      block_size_{params.max_block_size},
      inv_data_{exec}
{
    MGKO_ENSURE(block_size_ >= 1,
                "Jacobi max_block_size must be at least 1, got " +
                    std::to_string(block_size_));
    MGKO_ENSURE(system->get_size().rows == system->get_size().cols,
                "Jacobi requires a square system");
    const auto n = system->get_size().rows;
    const auto* values = system->get_const_values();
    const auto* col_idxs = system->get_const_col_idxs();
    const auto* row_ptrs = system->get_const_row_ptrs();

    if (block_size_ == 1) {
        inv_data_.resize_and_reset(n);
        for (size_type row = 0; row < n; ++row) {
            ValueType diag = zero<ValueType>();
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                if (static_cast<size_type>(col_idxs[k]) == row) {
                    diag = values[k];
                }
            }
            inv_data_.get_data()[row] = safe_reciprocal(diag);
        }
        return;
    }

    const auto bs = block_size_;
    const auto num_blocks = ceildiv(n, bs);
    inv_data_.resize_and_reset(num_blocks * bs * bs);
    std::fill_n(inv_data_.get_data(), inv_data_.size(), zero<ValueType>());
    std::vector<double> block;
    for (size_type blk = 0; blk < num_blocks; ++blk) {
        const auto begin = blk * bs;
        const auto end = std::min(n, begin + bs);
        const auto cur = end - begin;
        block.assign(static_cast<std::size_t>(bs * bs), 0.0);
        // Identity padding keeps partial trailing blocks invertible.
        for (size_type i = cur; i < bs; ++i) {
            block[static_cast<std::size_t>(i * bs + i)] = 1.0;
        }
        for (size_type r = begin; r < end; ++r) {
            for (auto k = row_ptrs[r]; k < row_ptrs[r + 1]; ++k) {
                const auto c = static_cast<size_type>(col_idxs[k]);
                if (c >= begin && c < end) {
                    block[static_cast<std::size_t>((r - begin) * bs +
                                                   (c - begin))] =
                        to_float(values[k]);
                }
            }
        }
        invert_block<ValueType>(block, bs);
        auto* out = inv_data_.get_data() + blk * bs * bs;
        for (size_type i = 0; i < bs * bs; ++i) {
            out[i] =
                static_cast<ValueType>(block[static_cast<std::size_t>(i)]);
        }
    }
    // Generate-time cost: stream the matrix once + invert blocks.
    exec->clock().tick(
        sim::profile_stream(static_cast<double>(system->get_num_stored_elements()) *
                                    (sizeof(ValueType) + sizeof(IndexType)) +
                                static_cast<double>(inv_data_.size()) *
                                    sizeof(ValueType),
                            static_cast<double>(num_blocks) * 2.0 *
                                static_cast<double>(bs * bs * bs),
                            0.6)
            .time_ns(exec->model()));
}


template <typename ValueType, typename IndexType>
void Jacobi<ValueType, IndexType>::apply_impl(const LinOp* b, LinOp* x) const
{
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    const auto n = this->get_size().rows;
    const auto vec_cols = dense_b->get_size().cols;
    const auto bs = block_size_;
    const auto* inv = inv_data_.get_const_data();
    const auto* bv = dense_b->get_const_values();
    auto* xv = dense_x->get_values();
    const auto b_stride = dense_b->get_stride();
    const auto x_stride = dense_x->get_stride();

    this->get_executor()->run("jacobi_apply", [&](const Executor* e) {
        const int nt = e->real_threads();
        if (bs == 1 && vec_cols == 1 && b_stride == 1 && x_stride == 1) {
            // One contiguous column: a flat loop, which vectorizes.  The
            // strided loop below keeps its column loop and row strides and
            // does not (one-thread apply on 3136 rows, median of 2000:
            // 1.1-1.7 us flat against 4.8-9.6 us through the strided loop
            // alone, 10 alternating runs).
            kernels::parallel_for(nt, n, [&](size_type row) {
                xv[row] = inv[row] * bv[row];
            });
        } else if (bs == 1) {
            kernels::parallel_for(nt, n, [&](size_type row) {
                for (size_type c = 0; c < vec_cols; ++c) {
                    xv[row * x_stride + c] = inv[row] * bv[row * b_stride + c];
                }
            });
        } else {
            kernels::parallel_for(nt, ceildiv(n, bs), [&](size_type blk) {
                const auto begin = blk * bs;
                const auto end = std::min(n, begin + bs);
                const auto* binv = inv + blk * bs * bs;
                for (size_type r = begin; r < end; ++r) {
                    for (size_type c = 0; c < vec_cols; ++c) {
                        using acc_t = accumulate_t<ValueType>;
                        acc_t acc{};
                        for (size_type j = begin; j < end; ++j) {
                            acc += static_cast<acc_t>(
                                       binv[(r - begin) * bs + (j - begin)]) *
                                   static_cast<acc_t>(bv[j * b_stride + c]);
                        }
                        xv[r * x_stride + c] = ValueType{acc};
                    }
                }
            });
        }
        kernels::tick(
            e, sim::profile_stream(
                   static_cast<double>(inv_data_.size() + 2 * n * vec_cols) *
                       sizeof(ValueType),
                   2.0 * static_cast<double>(inv_data_.size()) *
                       static_cast<double>(vec_cols),
                   0.85));
    });
}


template <typename ValueType, typename IndexType>
std::unique_ptr<LinOp> JacobiFactory<ValueType, IndexType>::generate_impl(
    std::shared_ptr<const LinOp> system) const
{
    auto csr =
        std::dynamic_pointer_cast<const Csr<ValueType, IndexType>>(system);
    if (!csr) {
        MGKO_NOT_SUPPORTED(
            "Jacobi requires a Csr system of matching value/index type");
    }
    return std::unique_ptr<LinOp>{new Jacobi<ValueType, IndexType>{
        get_executor(), params_, std::move(csr)}};
}


#define MGKO_DECLARE_JACOBI(ValueType, IndexType)       \
    template class Jacobi<ValueType, IndexType>;        \
    template class JacobiFactory<ValueType, IndexType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_AND_INDEX_TYPE(MGKO_DECLARE_JACOBI);


}  // namespace mgko::preconditioner
