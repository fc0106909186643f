// Comparison-library models (DESIGN.md §4).
//
// The paper races pyGinkgo against SciPy, CuPy, PyTorch, and TensorFlow.
// We reimplement each library's *documented kernel strategy* and its
// dispatch cost structure, so the benchmark comparisons measure the same
// algorithmic differences the paper attributes results to:
//
//   scipy       serial textbook CSR (one CPU core), Python-loop solvers
//   cupy        device, scalar-row CSR (cuSPARSE-default-like), solvers
//               launched op-by-op from Python; GMRES solves the Hessenberg
//               least-squares on the HOST and checks residuals only at
//               restarts (paper §6.2.1)
//   torch       device, COO with atomic scatter; no iterative solvers
//   tensorflow  device, COO only, gather/multiply/scatter pipeline (three
//               kernels + temporaries); no iterative solvers
//
// Every framework-level operation pays a per-call interpreter/dispatch
// cost on the executor clock in addition to the kernel's modeled time.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine_model.hpp"

namespace mgko::baselines {


struct Framework {
    std::string name;
    /// Kernel names of the two SpMV launches, "<name>_csr_spmv" and
    /// "<name>_coo_spmv"; string literals, as Executor::run requires.
    const char* csr_spmv_op{"baseline_csr_spmv"};
    const char* coo_spmv_op{"baseline_coo_spmv"};
    /// Interpreter + dispatch cost per framework-level call [ns].
    double per_call_ns{};
    sim::spmv_strategy csr_strategy{sim::spmv_strategy::serial};
    sim::spmv_strategy coo_strategy{sim::spmv_strategy::coo_flat_atomic};
    bool has_iterative_solvers{};
    /// GMRES policy (paper §6.2.1): host-side Hessenberg least squares,
    /// residual checks only at restart boundaries.
    bool gmres_host_lsq{};
};

inline Framework scipy()
{
    Framework f;
    f.name = "scipy";
    f.csr_spmv_op = "scipy_csr_spmv";
    f.coo_spmv_op = "scipy_coo_spmv";
    f.per_call_ns = sim::env_override("MGKO_SIM_SCIPY_CALL_NS", 2500.0);
    f.csr_strategy = sim::spmv_strategy::serial;
    f.coo_strategy = sim::spmv_strategy::serial;
    f.has_iterative_solvers = true;
    f.gmres_host_lsq = true;
    return f;
}

inline Framework cupy()
{
    Framework f;
    f.name = "cupy";
    f.csr_spmv_op = "cupy_csr_spmv";
    f.coo_spmv_op = "cupy_coo_spmv";
    f.per_call_ns = sim::env_override("MGKO_SIM_CUPY_CALL_NS", 8000.0);
    f.csr_strategy = sim::spmv_strategy::scalar_row;
    f.coo_strategy = sim::spmv_strategy::coo_flat_atomic;
    f.has_iterative_solvers = true;
    f.gmres_host_lsq = true;
    return f;
}

inline Framework torch()
{
    Framework f;
    f.name = "torch";
    f.csr_spmv_op = "torch_csr_spmv";
    f.coo_spmv_op = "torch_coo_spmv";
    f.per_call_ns = sim::env_override("MGKO_SIM_TORCH_CALL_NS", 6000.0);
    f.csr_strategy = sim::spmv_strategy::coo_flat_atomic;  // sparse COO core
    f.coo_strategy = sim::spmv_strategy::coo_flat_atomic;
    return f;
}

inline Framework tensorflow()
{
    Framework f;
    f.name = "tensorflow";
    f.csr_spmv_op = "tensorflow_csr_spmv";
    f.coo_spmv_op = "tensorflow_coo_spmv";
    f.per_call_ns = sim::env_override("MGKO_SIM_TF_CALL_NS", 12000.0);
    f.csr_strategy = sim::spmv_strategy::coo_gather_scatter;
    f.coo_strategy = sim::spmv_strategy::coo_gather_scatter;
    return f;
}


namespace detail {

/// Serial ground-truth computation used by every baseline kernel (their
/// numerical result is identical; only the modeled cost differs).
template <typename V, typename I>
void csr_spmv_compute(const Csr<V, I>* a, const Dense<V>* b, Dense<V>* x)
{
    const auto* values = a->get_const_values();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto vec_cols = b->get_size().cols;
    for (size_type row = 0; row < a->get_size().rows; ++row) {
        for (size_type c = 0; c < vec_cols; ++c) {
            using acc_t = accumulate_t<V>;
            acc_t acc{};
            for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
                acc += static_cast<acc_t>(values[k]) *
                       static_cast<acc_t>(
                           b->get_const_values()
                               [static_cast<size_type>(col_idxs[k]) *
                                    b->get_stride() +
                                c]);
            }
            x->get_values()[row * x->get_stride() + c] = V{acc};
        }
    }
}

template <typename V, typename I>
void coo_spmv_compute(const Coo<V, I>* a, const Dense<V>* b, Dense<V>* x)
{
    x->fill(zero<V>());
    const auto* values = a->get_const_values();
    const auto* row_idxs = a->get_const_row_idxs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto vec_cols = b->get_size().cols;
    for (size_type k = 0; k < a->get_num_stored_elements(); ++k) {
        for (size_type c = 0; c < vec_cols; ++c) {
            x->get_values()[static_cast<size_type>(row_idxs[k]) *
                                x->get_stride() +
                            c] +=
                values[k] * b->get_const_values()
                                [static_cast<size_type>(col_idxs[k]) *
                                     b->get_stride() +
                                 c];
        }
    }
}

}  // namespace detail


/// x = A b with the framework's CSR kernel strategy.
template <typename V, typename I>
void spmv(const Framework& fw, const Csr<V, I>* a, const Dense<V>* b,
          Dense<V>* x)
{
    auto exec = a->get_executor();
    exec->clock().tick(fw.per_call_ns);
    exec->run(fw.csr_spmv_op, [&](const Executor* e) {
        detail::csr_spmv_compute(a, b, x);
        kernels::tick(e, a->spmv_profile(fw.csr_strategy, e->model(),
                                         b->get_size().cols, false));
    });
}


/// x = A b with the framework's COO kernel strategy.
template <typename V, typename I>
void spmv(const Framework& fw, const Coo<V, I>* a, const Dense<V>* b,
          Dense<V>* x)
{
    auto exec = a->get_executor();
    exec->clock().tick(fw.per_call_ns);
    exec->run(fw.coo_spmv_op, [&](const Executor* e) {
        detail::coo_spmv_compute(a, b, x);
        kernels::tick(e, a->spmv_profile(fw.coo_strategy, e->model(),
                                         b->get_size().cols, false));
    });
}


struct solve_stats {
    size_type iterations{};
    double residual_norm{};
    bool converged{};
};


namespace detail {

/// Framework-level vector-op helper: each operation is one interpreter
/// call followed by one engine kernel (the cost structure of NumPy/CuPy
/// expression evaluation).
template <typename V>
class PyOps {
public:
    PyOps(const Framework& fw, std::shared_ptr<const Executor> exec)
        : fw_{&fw}, exec_{std::move(exec)}
    {}

    void call() const { exec_->clock().tick(fw_->per_call_ns); }

    double dot(const Dense<V>* a, const Dense<V>* b) const
    {
        call();
        return a->dot_scalar(b);
    }
    double norm(const Dense<V>* a) const
    {
        call();
        return a->norm2_scalar();
    }
    /// x += alpha * y
    void axpy(Dense<V>* x, double alpha, const Dense<V>* y) const
    {
        call();
        auto a = Dense<V>::create(exec_, dim2{1, 1});
        a->get_values()[0] = static_cast<V>(alpha);
        x->add_scaled(a.get(), y);
    }
    /// x = y + beta * x  (two framework ops: scale then add)
    void xpby(Dense<V>* x, const Dense<V>* y, double beta) const
    {
        call();
        auto b = Dense<V>::create(exec_, dim2{1, 1});
        b->get_values()[0] = static_cast<V>(beta);
        x->scale(b.get());
        axpy(x, 1.0, y);
    }
    void copy(Dense<V>* dst, const Dense<V>* src) const
    {
        call();
        dst->copy_from(src);
    }
    std::unique_ptr<Dense<V>> vector(size_type n) const
    {
        return Dense<V>::create(exec_, dim2{n, 1});
    }

    std::shared_ptr<const Executor> exec() const { return exec_; }

private:
    const Framework* fw_;
    std::shared_ptr<const Executor> exec_;
};

}  // namespace detail


/// Unpreconditioned CG, structured like scipy/cupy's Python-level loop.
template <typename V, typename I>
solve_stats cg(const Framework& fw, const Csr<V, I>* a, const Dense<V>* b,
               Dense<V>* x, size_type max_iters, double tol)
{
    detail::PyOps<V> ops{fw, a->get_executor()};
    const auto n = a->get_size().rows;
    auto r = ops.vector(n);
    auto p = ops.vector(n);
    auto q = ops.vector(n);
    // r = b - A x
    spmv(fw, a, x, q.get());
    ops.copy(r.get(), b);
    ops.axpy(r.get(), -1.0, q.get());
    ops.copy(p.get(), r.get());
    double rho = ops.dot(r.get(), r.get());
    const double b_norm = ops.norm(b);
    const double threshold = tol * b_norm;

    solve_stats stats;
    for (size_type iter = 0; iter < max_iters; ++iter) {
        spmv(fw, a, p.get(), q.get());
        const double pq = ops.dot(p.get(), q.get());
        if (pq == 0.0 || !std::isfinite(pq)) {
            break;
        }
        const double alpha = rho / pq;
        ops.axpy(x, alpha, p.get());
        ops.axpy(r.get(), -alpha, q.get());
        const double rho_new = ops.dot(r.get(), r.get());
        stats.iterations = iter + 1;
        stats.residual_norm = std::sqrt(std::max(rho_new, 0.0));
        if (stats.residual_norm <= threshold) {
            stats.converged = true;
            break;
        }
        ops.xpby(p.get(), r.get(), rho_new / rho);
        rho = rho_new;
    }
    return stats;
}


/// Unpreconditioned CGS (Saad's algorithm with explicit temporaries — the
/// Python formulation allocates and touches more intermediates than the
/// fused engine loop, which is why its per-iteration overhead is larger).
template <typename V, typename I>
solve_stats cgs(const Framework& fw, const Csr<V, I>* a, const Dense<V>* b,
                Dense<V>* x, size_type max_iters, double tol)
{
    detail::PyOps<V> ops{fw, a->get_executor()};
    const auto n = a->get_size().rows;
    auto r = ops.vector(n);
    auto r_tilde = ops.vector(n);
    auto u = ops.vector(n);
    auto p = ops.vector(n);
    auto q = ops.vector(n);
    auto v = ops.vector(n);
    auto t = ops.vector(n);
    auto tmp = ops.vector(n);

    spmv(fw, a, x, v.get());
    ops.copy(r.get(), b);
    ops.axpy(r.get(), -1.0, v.get());
    ops.copy(r_tilde.get(), r.get());
    const double threshold = tol * ops.norm(b);

    double rho_prev = 1.0;
    bool first = true;
    solve_stats stats;
    for (size_type iter = 0; iter < max_iters; ++iter) {
        const double rho = ops.dot(r_tilde.get(), r.get());
        if (rho == 0.0 || !std::isfinite(rho)) {
            break;
        }
        if (first) {
            ops.copy(u.get(), r.get());
            ops.copy(p.get(), u.get());
            first = false;
        } else {
            const double beta = rho / rho_prev;
            // u = r + beta q
            ops.copy(u.get(), r.get());
            ops.axpy(u.get(), beta, q.get());
            // p = u + beta (q + beta p)
            ops.copy(tmp.get(), q.get());
            ops.axpy(tmp.get(), beta, p.get());
            ops.copy(p.get(), u.get());
            ops.axpy(p.get(), beta, tmp.get());
        }
        spmv(fw, a, p.get(), v.get());
        const double sigma = ops.dot(r_tilde.get(), v.get());
        if (sigma == 0.0 || !std::isfinite(sigma)) {
            break;
        }
        const double alpha = rho / sigma;
        // q = u - alpha v
        ops.copy(q.get(), u.get());
        ops.axpy(q.get(), -alpha, v.get());
        // t = u + q ; x += alpha t ; r -= alpha A t
        ops.copy(t.get(), u.get());
        ops.axpy(t.get(), 1.0, q.get());
        ops.axpy(x, alpha, t.get());
        spmv(fw, a, t.get(), v.get());
        ops.axpy(r.get(), -alpha, v.get());
        rho_prev = rho;
        stats.iterations = iter + 1;
        stats.residual_norm = ops.norm(r.get());
        if (stats.residual_norm <= threshold) {
            stats.converged = true;
            break;
        }
    }
    return stats;
}


/// Restarted GMRES, CuPy/SciPy style: orthonormal-projection MGS (two
/// block GEMVs per inner step), the Hessenberg least-squares problem is
/// solved on the HOST, and the residual is only checked when a restart
/// cycle completes — the contrasting policy of paper §6.2.1.
template <typename V, typename I>
solve_stats gmres(const Framework& fw, const Csr<V, I>* a, const Dense<V>* b,
                  Dense<V>* x, size_type max_iters, double tol,
                  size_type restart = 30)
{
    detail::PyOps<V> ops{fw, a->get_executor()};
    auto exec = a->get_executor();
    const auto n = a->get_size().rows;
    const auto m = restart;
    auto r = ops.vector(n);
    auto w = ops.vector(n);
    auto basis = Dense<V>::create(exec, dim2{n, m + 1});
    std::vector<double> hessenberg(static_cast<std::size_t>((m + 1) * m), 0.0);
    auto h_at = [&](size_type i, size_type j) -> double& {
        return hessenberg[static_cast<std::size_t>(i * m + j)];
    };

    const double threshold = tol * ops.norm(b);
    solve_stats stats;
    size_type total = 0;
    while (total < max_iters) {
        // r = b - A x
        spmv(fw, a, x, w.get());
        ops.copy(r.get(), b);
        ops.axpy(r.get(), -1.0, w.get());
        const double beta0 = ops.norm(r.get());
        stats.residual_norm = beta0;
        if (beta0 <= threshold) {
            stats.converged = true;
            break;
        }
        {
            auto v0 = basis->column_view(0);
            ops.copy(v0.get(), r.get());
            ops.call();
            auto inv = Dense<V>::create(exec, dim2{1, 1});
            inv->get_values()[0] = static_cast<V>(1.0 / beta0);
            v0->scale(inv.get());
        }
        std::vector<double> g(static_cast<std::size_t>(m + 1), 0.0);
        g[0] = beta0;

        size_type j_end = 0;
        for (size_type j = 0; j < m && total < max_iters; ++j, ++total) {
            {
                auto vj = basis->column_view(j);
                spmv(fw, a, vj.get(), w.get());
            }
            // Orthonormal projection: h = Vᵀ w; w -= V h (two GEMVs).
            auto vblock = Dense<V>::create_view(exec, dim2{n, j + 1},
                                                basis->get_values(), m + 1);
            auto hcol = Dense<V>::create(exec, dim2{j + 1, 1});
            ops.call();
            vblock->transpose_apply(w.get(), hcol.get());
            ops.call();
            {
                auto one_s = Dense<V>::create(exec, dim2{1, 1});
                one_s->get_values()[0] = one<V>();
                auto neg_one = Dense<V>::create(exec, dim2{1, 1});
                neg_one->get_values()[0] = -one<V>();
                vblock->apply(neg_one.get(), hcol.get(), one_s.get(),
                              w.get());
            }
            for (size_type i = 0; i <= j; ++i) {
                h_at(i, j) = to_float(hcol->at(i, 0));
            }
            const double h_next = ops.norm(w.get());
            h_at(j + 1, j) = h_next;
            j_end = j + 1;
            if (h_next <= 1e-14) {
                total += 1;
                break;
            }
            auto vnext = basis->column_view(j + 1);
            ops.copy(vnext.get(), w.get());
            ops.call();
            auto inv = Dense<V>::create(exec, dim2{1, 1});
            inv->get_values()[0] = static_cast<V>(1.0 / h_next);
            vnext->scale(inv.get());
        }

        // Device -> host copy of the Hessenberg block, host LSQ solve.
        exec->charge_copy(exec->get_master().get(),
                          static_cast<size_type>((m + 1) * m * 8));
        std::vector<double> y(static_cast<std::size_t>(j_end), 0.0);
        {
            // Givens least squares on the host (free in the model).
            auto h = hessenberg;
            auto rhs = g;
            for (size_type jj = 0; jj < j_end; ++jj) {
                const double denom =
                    std::hypot(h[static_cast<std::size_t>(jj * m + jj)],
                               h[static_cast<std::size_t>((jj + 1) * m + jj)]);
                if (denom == 0.0) {
                    continue;
                }
                const double c =
                    h[static_cast<std::size_t>(jj * m + jj)] / denom;
                const double s =
                    h[static_cast<std::size_t>((jj + 1) * m + jj)] / denom;
                for (size_type l = jj; l < j_end; ++l) {
                    const double top = h[static_cast<std::size_t>(jj * m + l)];
                    const double bottom =
                        h[static_cast<std::size_t>((jj + 1) * m + l)];
                    h[static_cast<std::size_t>(jj * m + l)] =
                        c * top + s * bottom;
                    h[static_cast<std::size_t>((jj + 1) * m + l)] =
                        -s * top + c * bottom;
                }
                const double gt = rhs[static_cast<std::size_t>(jj)];
                const double gb = rhs[static_cast<std::size_t>(jj + 1)];
                rhs[static_cast<std::size_t>(jj)] = c * gt + s * gb;
                rhs[static_cast<std::size_t>(jj + 1)] = -s * gt + c * gb;
            }
            for (size_type i = j_end; i-- > 0;) {
                double sum = rhs[static_cast<std::size_t>(i)];
                for (size_type l = i + 1; l < j_end; ++l) {
                    sum -= h[static_cast<std::size_t>(i * m + l)] *
                           y[static_cast<std::size_t>(l)];
                }
                const double diag = h[static_cast<std::size_t>(i * m + i)];
                y[static_cast<std::size_t>(i)] = diag == 0.0 ? 0.0 : sum / diag;
            }
        }
        // y back to the device, x += V y (one GEMV).
        exec->charge_copy(exec->get_master().get(),
                          static_cast<size_type>(j_end * 8));
        auto y_dev = Dense<V>::create(exec, dim2{j_end, 1});
        for (size_type i = 0; i < j_end; ++i) {
            y_dev->get_values()[i] =
                static_cast<V>(y[static_cast<std::size_t>(i)]);
        }
        auto vblock = Dense<V>::create_view(exec, dim2{n, j_end},
                                            basis->get_values(), m + 1);
        ops.call();
        {
            auto one_s = Dense<V>::create(exec, dim2{1, 1});
            one_s->get_values()[0] = one<V>();
            vblock->apply(one_s.get(), y_dev.get(), one_s.get(), x);
        }
        stats.iterations = total;
        // Residual check happens only here, at the restart boundary.
    }
    stats.iterations = total;
    return stats;
}


}  // namespace mgko::baselines
