#include "solver/gmres.hpp"

#include <cmath>
#include <vector>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"
#include "solver/detail.hpp"

namespace mgko::solver {

namespace {

/// Charges the cost of one device-side Hessenberg/Givens update: Ginkgo
/// performs the rotation, the residual-estimate update, and the check as
/// small device kernels (one extra launch + a tiny stream), which is the
/// per-iteration overhead the paper contrasts with CuPy's restart-only
/// policy (§6.2.1).
void tick_small_device_op(const Executor* exec, size_type elems)
{
    exec->run("gmres_hessenberg_update", [&](const Executor* e) {
        mgko::kernels::tick(
            e, sim::profile_stream(static_cast<double>(elems) * 8.0, 0.0));
    });
}

/// Ginkgo solves the triangular Hessenberg system on the device, which
/// serializes into `steps` dependent small kernels — the trait the paper
/// identifies as a disadvantage against CuPy's host-side solve.
void tick_device_triangular(const Executor* exec, size_type steps)
{
    for (size_type i = 0; i < steps; ++i) {
        tick_small_device_op(exec, i + 1);
    }
}

// Device-side workspace slots; the Krylov basis and the Gram-Schmidt /
// update-step scratch are sized by (n, krylov_dim) and persist across
// apply() calls.  Per-inner-iteration sub-vectors (hcol for columns
// 0..j, the restart correction y) are row-block *views* into the
// full-size slots, so the inner loop never allocates.
enum gmres_slots : std::size_t {
    ws_r,
    ws_w,
    ws_w_hat,
    ws_basis,
    ws_hcol,
    ws_hcol2,
    ws_y,
    ws_reduce,
    ws_one,
    ws_neg_one,
    ws_coeff,
};

// Host-side workspace slots (Hessenberg/Givens state).
enum gmres_host_slots : std::size_t {
    ws_h_hessenberg,
    ws_h_givens_c,
    ws_h_givens_s,
    ws_h_g,
    ws_h_y,
};

}  // namespace


template <typename ValueType>
void Gmres<ValueType>::apply_impl(const LinOp* b, LinOp* x) const
{
    using detail::set_scalar;
    auto apply_span = this->make_span("solver.gmres.apply");
    auto exec = this->get_executor();
    auto dense_b = as_dense<ValueType>(b);
    auto dense_x = as_dense<ValueType>(x);
    this->validate_single_column(dense_b);
    this->logger_->reset();

    const auto n = this->get_size().rows;
    const auto m = this->params_.krylov_dim;
    MGKO_ENSURE(m >= 1, "krylov_dim must be >= 1");

    auto& ws = this->workspace_;
    auto* r = ws.vec(ws_r, dim2{n, 1});
    auto* w = ws.vec(ws_w, dim2{n, 1});
    auto* w_hat = ws.vec(ws_w_hat, dim2{n, 1});
    // Krylov basis: n x (m+1), one column per basis vector.
    auto* basis = ws.vec(ws_basis, dim2{n, m + 1});
    // Full-height Gram-Schmidt coefficient columns; iteration j uses the
    // leading (j+1)-row view.
    auto* hcol_full = ws.vec(ws_hcol, dim2{m + 1, 1});
    auto* hcol2_full = ws.vec(ws_hcol2, dim2{m + 1, 1});
    auto* y_full = ws.vec(ws_y, dim2{m, 1});
    auto* reduce = ws.vec(ws_reduce, dim2{1, 1});
    auto* one_s = ws.scalar(ws_one, 1.0);
    auto* neg_one_s = ws.scalar(ws_neg_one, -1.0);
    auto* coeff_s = ws.scalar(ws_coeff, 0.0);

    // Hessenberg matrix and Givens state; physically these live on the
    // device in Ginkgo — here they are host-backed and their device cost is
    // charged via tick_small_device_op.  Only entries written this cycle
    // are ever read, so the persistent buffers need no re-zeroing.
    auto& hessenberg =
        ws.host(ws_h_hessenberg, static_cast<std::size_t>((m + 1) * m));
    auto h_at = [&](size_type i, size_type j) -> double& {
        return hessenberg[static_cast<std::size_t>(i * m + j)];
    };
    auto& givens_c = ws.host(ws_h_givens_c, static_cast<std::size_t>(m));
    auto& givens_s = ws.host(ws_h_givens_s, static_cast<std::size_t>(m));
    auto& g = ws.host(ws_h_g, static_cast<std::size_t>(m + 1));

    const double b_norm = detail::norm2(dense_b, reduce);
    double r_norm = detail::compute_residual(this->system_.get(), dense_b,
                                             dense_x, r, one_s, neg_one_s,
                                             reduce);
    auto criterion = this->bind_criterion(b_norm, r_norm);
    this->log_iteration(0, r_norm);

    size_type total_iters = 0;
    bool breakdown_converged = false;
    bool stopped = criterion->is_satisfied(total_iters, r_norm);
    while (!stopped) {
        // --- start a restart cycle --------------------------------------
        auto cycle_span = this->make_span("solver.gmres.cycle");
        // Left-preconditioned initial direction: v0 = M r / ||M r||.
        this->precond_->apply(r, w_hat);
        const double beta0 = detail::norm2(w_hat, reduce);
        if (beta0 == 0.0 || !std::isfinite(beta0)) {
            this->log_stop(total_iters, beta0 == 0.0,
                                    beta0 == 0.0 ? "exact solution reached"
                                                 : "breakdown: non-finite "
                                                   "residual");
            return;
        }
        {
            auto v0 = basis->column_view(0);
            v0->copy_from(w_hat);
            set_scalar(coeff_s, 1.0 / beta0);
            v0->scale(coeff_s);
        }
        std::fill(g.begin(), g.end(), 0.0);
        g[0] = beta0;
        double res_estimate = beta0;

        size_type j_end = 0;
        for (size_type j = 0; j < m; ++j) {
            auto iteration_span = this->make_span("solver.gmres.iteration");
            // w = M A v_j
            {
                auto vj = basis->column_view(j);
                this->system_->apply(vj.get(), w_hat);
            }
            this->precond_->apply(w_hat, w);
            // Block Gram-Schmidt against columns 0..j with a second
            // re-orthogonalization pass (CGS2) — Ginkgo re-orthogonalizes
            // for robustness, doubling the dense projection work relative
            // to CuPy's single-pass projection.
            auto vblock = Dense<ValueType>::create_view(
                exec, dim2{n, j + 1}, basis->get_values(), m + 1);
            auto hcol = hcol_full->row_block_view(0, j + 1);
            vblock->transpose_apply(w, hcol.get());
            vblock->apply(neg_one_s, hcol.get(), one_s, w);
            auto hcol2 = hcol2_full->row_block_view(0, j + 1);
            vblock->transpose_apply(w, hcol2.get());
            vblock->apply(neg_one_s, hcol2.get(), one_s, w);
            for (size_type i = 0; i <= j; ++i) {
                h_at(i, j) =
                    to_float(hcol->at(i, 0)) + to_float(hcol2->at(i, 0));
            }
            const double h_next = detail::norm2(w, reduce);
            h_at(j + 1, j) = h_next;

            const bool happy_breakdown =
                h_next <= 1e-14 * std::abs(h_at(j, j) + 1e-300);
            if (!happy_breakdown) {
                auto vnext = basis->column_view(j + 1);
                vnext->copy_from(w);
                set_scalar(coeff_s, 1.0 / h_next);
                vnext->scale(coeff_s);
            }

            // Givens update of column j (device-side in Ginkgo).
            for (size_type i = 0; i < j; ++i) {
                const double tmp =
                    givens_c[i] * h_at(i, j) + givens_s[i] * h_at(i + 1, j);
                h_at(i + 1, j) = -givens_s[i] * h_at(i, j) +
                                 givens_c[i] * h_at(i + 1, j);
                h_at(i, j) = tmp;
            }
            const double denom = std::hypot(h_at(j, j), h_at(j + 1, j));
            givens_c[j] = denom == 0.0 ? 1.0 : h_at(j, j) / denom;
            givens_s[j] = denom == 0.0 ? 0.0 : h_at(j + 1, j) / denom;
            h_at(j, j) = denom;
            h_at(j + 1, j) = 0.0;
            g[j + 1] = -givens_s[j] * g[j];
            g[j] = givens_c[j] * g[j];
            res_estimate = std::abs(g[j + 1]);
            // Givens rotation + residual-estimate update: two small device
            // kernels in Ginkgo's implementation.
            tick_small_device_op(exec.get(), j + 2);
            tick_small_device_op(exec.get(), 2);
            if (check_every_update_) {
                // The per-update convergence check reads the residual
                // estimate back to the host and stalls the pipeline until
                // the host reacts: a device-to-host round trip (two
                // interconnect latencies) plus a stream synchronization per
                // inner iteration.  This is the "(restart - 1) additional
                // checks" cost the paper contrasts with CuPy's restart-only
                // policy (§6.2.1).
                exec->charge_copy(exec->get_master().get(),
                                  static_cast<size_type>(sizeof(double)));
                exec->clock().tick(exec->model().transfer_latency_ns);
                exec->synchronize();
            }

            ++total_iters;
            j_end = j + 1;
            this->log_iteration(total_iters, res_estimate);
            if (happy_breakdown) {
                stopped = true;
                breakdown_converged = true;
                break;
            }
            // The paper's point: Ginkgo checks after every update; CuPy
            // only at restart boundaries.
            if (check_every_update_ &&
                criterion->is_satisfied(total_iters, res_estimate)) {
                stopped = true;
                break;
            }
        }

        // --- solve the triangular system R y = g (device) ---------------
        auto& y = ws.host(ws_h_y, static_cast<std::size_t>(j_end));
        for (size_type i = j_end; i-- > 0;) {
            double sum = g[i];
            for (size_type l = i + 1; l < j_end; ++l) {
                sum -= h_at(i, l) * y[static_cast<std::size_t>(l)];
            }
            const double diag = h_at(i, i);
            y[static_cast<std::size_t>(i)] =
                diag == 0.0 ? 0.0 : sum / diag;
        }
        tick_device_triangular(exec.get(), j_end);

        // x += V(:, 0..j_end-1) * y  (single GEMV).
        auto y_dev = y_full->row_block_view(0, j_end);
        for (size_type i = 0; i < j_end; ++i) {
            y_dev->get_values()[i * y_dev->get_stride()] =
                static_cast<ValueType>(y[static_cast<std::size_t>(i)]);
        }
        auto vblock = Dense<ValueType>::create_view(
            exec, dim2{n, j_end}, basis->get_values(), m + 1);
        vblock->apply(one_s, y_dev.get(), one_s, dense_x);

        // True residual for the restart decision.  The inner loop logged
        // the Givens estimate for this iteration; replace it with the true
        // norm so restart-boundary (and final) history entries follow the
        // same convention as the other solvers.
        r_norm = detail::compute_residual(this->system_.get(), dense_b,
                                          dense_x, r, one_s, neg_one_s,
                                          reduce);
        this->update_last_residual(r_norm);
        if (!stopped) {
            stopped = criterion->is_satisfied(total_iters, r_norm);
        }
    }
    if (breakdown_converged) {
        this->log_stop(total_iters, true,
                                "happy breakdown: exact Krylov solution");
    } else {
        this->log_stop(total_iters,
                                criterion->indicates_convergence(),
                                criterion->reason());
    }
}


#define MGKO_DECLARE_GMRES(ValueType) template class Gmres<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_GMRES);


}  // namespace mgko::solver
