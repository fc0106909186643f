// Algorithms implemented "in pure Python" (paper §3.4): composed only from
// operations the binding layer exposes — no direct access to the engine.
//
// The paper's proof-of-concept is the Rayleigh-Ritz method, "not natively
// supported by Ginkgo yet", built from repeated sparse matrix-vector
// products and dense operations available as operators.  We implement it as
// subspace iteration with a Rayleigh-Ritz projection, plus a plain power
// iteration; the small dense symmetric eigenproblem is solved host-side by
// the classic Jacobi rotation algorithm (the numpy.linalg.eigh stand-in).
#pragma once

#include <cstdint>
#include <vector>

#include "bindings/api.hpp"

namespace mgko::pyside {


struct eig_result {
    /// Ritz values, descending by magnitude.
    std::vector<double> eigenvalues;
    /// n x k Ritz vectors (columns match eigenvalues).
    bind::Tensor eigenvectors;
    size_type iterations{};
    /// max_i ||A v_i - lambda_i v_i|| at exit; NaN when any residual is
    /// NaN (a non-finite operator or block), which never meets the
    /// tolerance.
    double max_residual{};
};

/// Rayleigh-Ritz subspace iteration for the k dominant eigenpairs of a
/// symmetric operator.  `tolerance` bounds the eigen-residual; iteration
/// stops early once reached.
eig_result rayleigh_ritz(const bind::Device& dev, const bind::Matrix& a,
                         size_type k, size_type max_iterations = 100,
                         double tolerance = 1e-8, std::uint64_t seed = 42);


struct power_result {
    double eigenvalue{};
    bind::Tensor eigenvector;
    size_type iterations{};
};

/// Power iteration for the dominant eigenpair.
power_result power_iteration(const bind::Device& dev, const bind::Matrix& a,
                             size_type max_iterations = 1000,
                             double tolerance = 1e-10,
                             std::uint64_t seed = 42);


/// Host-side symmetric eigensolver (Jacobi rotations) for the small
/// projected problem.  `a` is k x k row-major and is overwritten; returns
/// eigenvalues ascending with matching eigenvector columns in `vectors`.
void symmetric_eig_host(std::vector<double>& a, size_type k,
                        std::vector<double>& eigenvalues,
                        std::vector<double>& vectors);


}  // namespace mgko::pyside
