#include "pyside/rayleigh_ritz.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "core/exception.hpp"
#include "log/event_logger.hpp"

namespace mgko::pyside {

namespace {

/// Gram-Schmidt orthonormalization of the columns of an n x k tensor,
/// expressed through binding-layer tensor ops only: G = XᵀX, host Cholesky,
/// X <- X R^{-1}.
bind::Tensor orthonormalize(const bind::Device& dev, const bind::Tensor& x)
{
    const auto n = x.shape().rows;
    const auto k = x.shape().cols;
    auto gram = x.t_matmul(x);              // k x k
    auto g = gram.to_host();                // row-major k*k

    // Host Cholesky G = Rᵀ R (R upper).
    std::vector<double> r(static_cast<std::size_t>(k * k), 0.0);
    auto at = [&](std::vector<double>& m, size_type i, size_type j) -> double& {
        return m[static_cast<std::size_t>(i * k + j)];
    };
    for (size_type i = 0; i < k; ++i) {
        for (size_type j = i; j < k; ++j) {
            double sum = g[static_cast<std::size_t>(i * k + j)];
            for (size_type l = 0; l < i; ++l) {
                sum -= at(r, l, i) * at(r, l, j);
            }
            if (i == j) {
                if (sum <= 0.0) {
                    throw NumericalError(__FILE__, __LINE__,
                                         "rank-deficient subspace in "
                                         "Rayleigh-Ritz orthonormalization");
                }
                at(r, i, i) = std::sqrt(sum);
            } else {
                at(r, i, j) = sum / at(r, i, i);
            }
        }
    }
    // Invert R (upper triangular) on the host.
    std::vector<double> rinv(static_cast<std::size_t>(k * k), 0.0);
    for (size_type j = 0; j < k; ++j) {
        at(rinv, j, j) = 1.0 / at(r, j, j);
        for (size_type i = j; i-- > 0;) {
            double sum = 0.0;
            for (size_type l = i + 1; l <= j; ++l) {
                sum += at(r, i, l) * at(rinv, l, j);
            }
            at(rinv, i, j) = -sum / at(r, i, i);
        }
    }
    auto rinv_tensor =
        bind::as_tensor(dev, rinv, dim2{k, k}, x.dtype_name());
    auto q = x.matmul(rinv_tensor);  // n x k, orthonormal columns
    (void)n;
    return q;
}

}  // namespace


void symmetric_eig_host(std::vector<double>& a, size_type k,
                        std::vector<double>& eigenvalues,
                        std::vector<double>& vectors)
{
    MGKO_ENSURE(static_cast<size_type>(a.size()) == k * k,
                "matrix size mismatch in symmetric_eig_host");
    auto at = [&](std::vector<double>& m, size_type i, size_type j) -> double& {
        return m[static_cast<std::size_t>(i * k + j)];
    };
    vectors.assign(static_cast<std::size_t>(k * k), 0.0);
    for (size_type i = 0; i < k; ++i) {
        at(vectors, i, i) = 1.0;
    }
    // Cyclic Jacobi rotations until off-diagonal mass is negligible.
    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (size_type i = 0; i < k; ++i) {
            for (size_type j = i + 1; j < k; ++j) {
                off += at(a, i, j) * at(a, i, j);
            }
        }
        if (off < 1e-24) {
            break;
        }
        for (size_type p = 0; p < k; ++p) {
            for (size_type q = p + 1; q < k; ++q) {
                const double apq = at(a, p, q);
                if (std::abs(apq) < 1e-18) {
                    continue;
                }
                const double theta = (at(a, q, q) - at(a, p, p)) / (2 * apq);
                const double t = (theta >= 0 ? 1.0 : -1.0) /
                                 (std::abs(theta) +
                                  std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (size_type i = 0; i < k; ++i) {
                    const double aip = at(a, i, p);
                    const double aiq = at(a, i, q);
                    at(a, i, p) = c * aip - s * aiq;
                    at(a, i, q) = s * aip + c * aiq;
                }
                for (size_type i = 0; i < k; ++i) {
                    const double api = at(a, p, i);
                    const double aqi = at(a, q, i);
                    at(a, p, i) = c * api - s * aqi;
                    at(a, q, i) = s * api + c * aqi;
                }
                for (size_type i = 0; i < k; ++i) {
                    const double vip = at(vectors, i, p);
                    const double viq = at(vectors, i, q);
                    at(vectors, i, p) = c * vip - s * viq;
                    at(vectors, i, q) = s * vip + c * viq;
                }
            }
        }
    }
    eigenvalues.resize(static_cast<std::size_t>(k));
    for (size_type i = 0; i < k; ++i) {
        eigenvalues[static_cast<std::size_t>(i)] = at(a, i, i);
    }
    // Sort ascending, permuting eigenvector columns alongside.
    std::vector<size_type> order(static_cast<std::size_t>(k));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_type x, size_type y) {
        return eigenvalues[static_cast<std::size_t>(x)] <
               eigenvalues[static_cast<std::size_t>(y)];
    });
    std::vector<double> sorted_vals(static_cast<std::size_t>(k));
    std::vector<double> sorted_vecs(static_cast<std::size_t>(k * k));
    for (size_type j = 0; j < k; ++j) {
        const auto src = order[static_cast<std::size_t>(j)];
        sorted_vals[static_cast<std::size_t>(j)] =
            eigenvalues[static_cast<std::size_t>(src)];
        for (size_type i = 0; i < k; ++i) {
            sorted_vecs[static_cast<std::size_t>(i * k + j)] =
                at(vectors, i, src);
        }
    }
    eigenvalues = std::move(sorted_vals);
    vectors = std::move(sorted_vecs);
}


eig_result rayleigh_ritz(const bind::Device& dev, const bind::Matrix& a,
                         size_type k, size_type max_iterations,
                         double tolerance, std::uint64_t seed)
{
    const auto n = a.shape().rows;
    MGKO_ENSURE(a.shape().rows == a.shape().cols,
                "Rayleigh-Ritz requires a square operator");
    MGKO_ENSURE(k >= 1 && k <= n, "invalid subspace dimension");
    // Phase spans on the device's executor: the start block once, then
    // four per iteration, which together cover the call.
    const auto* exec = dev.executor().get();

    bind::Tensor x;
    {
        log::ScopedSpan span{nullptr, exec, "pyside.start"};
        std::mt19937_64 engine{seed};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        std::vector<double> host(static_cast<std::size_t>(n * k));
        for (auto& v : host) {
            v = dist(engine);
        }
        x = bind::as_tensor(dev, host, dim2{n, k}, "double");
    }

    eig_result result;
    result.eigenvalues.assign(static_cast<std::size_t>(k), 0.0);
    for (size_type iter = 1; iter <= max_iterations; ++iter) {
        bind::Tensor q;
        {
            log::ScopedSpan span{nullptr, exec, "pyside.orthonormalize"};
            q = orthonormalize(dev, x);
        }
        std::vector<double> values, vectors_desc;
        {
            log::ScopedSpan span{nullptr, exec, "pyside.project"};
            // Projected operator T = Qᵀ (A Q).
            auto aq = a.spmv(q);
            auto t = q.t_matmul(aq);
            auto t_host = t.to_host();
            // Symmetrize against round-off before the host eigensolve.
            for (size_type i = 0; i < k; ++i) {
                for (size_type j = i + 1; j < k; ++j) {
                    const auto avg =
                        0.5 * (t_host[static_cast<std::size_t>(i * k + j)] +
                               t_host[static_cast<std::size_t>(j * k + i)]);
                    t_host[static_cast<std::size_t>(i * k + j)] = avg;
                    t_host[static_cast<std::size_t>(j * k + i)] = avg;
                }
            }
            std::vector<double> vectors;
            symmetric_eig_host(t_host, k, values, vectors);
            // Descending by magnitude: subspace iteration converges to the
            // dominant spectrum.
            std::reverse(values.begin(), values.end());
            vectors_desc.resize(vectors.size());
            for (size_type i = 0; i < k; ++i) {
                for (size_type j = 0; j < k; ++j) {
                    vectors_desc[static_cast<std::size_t>(i * k + j)] =
                        vectors[static_cast<std::size_t>(i * k + (k - 1 - j))];
                }
            }
        }
        bind::Tensor ritz;
        {
            log::ScopedSpan span{nullptr, exec, "pyside.ritz"};
            auto c = bind::as_tensor(dev, vectors_desc, dim2{k, k}, "double");
            ritz = q.matmul(c);  // n x k Ritz vectors
        }

        // Residual check, max_j ||A v_j - lambda_j v_j||, in tensor ops:
        // R = V diag(lambda) - A V, then the diagonal of RᵀR.  For finite
        // blocks each residual is bitwise the host loop's over (Av, v): the
        // gemm adds only exact zeros to v_ij * lambda_j, the subtraction
        // gives -(Av - lambda v) exactly, and gemv_t adds the squares r_lj²
        // in ascending l.
        bind::Tensor a_ritz;
        double max_res = 0.0;
        {
            log::ScopedSpan span{nullptr, exec, "pyside.residual"};
            a_ritz = a.spmv(ritz);
            std::vector<double> lambda(static_cast<std::size_t>(k * k), 0.0);
            for (size_type j = 0; j < k; ++j) {
                lambda[static_cast<std::size_t>(j * k + j)] =
                    values[static_cast<std::size_t>(j)];
            }
            auto r = ritz.matmul(
                bind::as_tensor(dev, lambda, dim2{k, k}, "double"));
            r.add_scaled(-1.0, a_ritz);
            const auto gram = r.t_matmul(r).to_host();  // k x k
            // A NaN residual is kept, never skipped as std::max would: the
            // zero terms of the gemm carry one non-finite column into every
            // column, and a skipped NaN would read as converged.
            for (size_type j = 0; j < k; ++j) {
                const double res =
                    std::sqrt(gram[static_cast<std::size_t>(j * k + j)]);
                if (std::isnan(res) || res > max_res) {
                    max_res = res;
                }
            }
        }
        result.eigenvalues = values;
        result.eigenvectors = ritz;
        result.iterations = iter;
        result.max_residual = max_res;
        if (max_res < tolerance) {
            break;
        }
        // Next subspace: A * (current Ritz vectors).
        x = a_ritz;
    }
    return result;
}


power_result power_iteration(const bind::Device& dev, const bind::Matrix& a,
                             size_type max_iterations, double tolerance,
                             std::uint64_t seed)
{
    const auto n = a.shape().rows;
    std::mt19937_64 engine{seed};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    std::vector<double> host(static_cast<std::size_t>(n));
    for (auto& v : host) {
        v = dist(engine);
    }
    auto x = bind::as_tensor(dev, host, dim2{n, 1}, "double");
    x.scale(1.0 / x.norm());

    power_result result;
    double lambda_prev = 0.0;
    for (size_type iter = 1; iter <= max_iterations; ++iter) {
        auto y = a.spmv(x);
        const double lambda = x.dot(y);
        const double y_norm = y.norm();
        if (y_norm == 0.0) {
            break;
        }
        y.scale(1.0 / y_norm);
        x = y;
        result.eigenvalue = lambda;
        result.iterations = iter;
        if (std::abs(lambda - lambda_prev) <
            tolerance * std::max(1.0, std::abs(lambda))) {
            break;
        }
        lambda_prev = lambda;
    }
    result.eigenvector = x;
    return result;
}


}  // namespace mgko::pyside
