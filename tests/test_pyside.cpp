// "Python-side" algorithms: Rayleigh-Ritz and power iteration built purely
// on the binding API, validated against analytically known spectra.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "log/flight_recorder.hpp"
#include "matgen/matgen.hpp"
#include "pyside/rayleigh_ritz.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


/// 1D Laplacian eigenvalues: lambda_j = 2 - 2 cos(j*pi/(n+1)), j=1..n.
double laplacian_eigenvalue(size_type n, size_type j)
{
    return 2.0 - 2.0 * std::cos(static_cast<double>(j) * M_PI /
                                static_cast<double>(n + 1));
}


TEST(SymmetricEigHost, SolvesDiagonalMatrix)
{
    std::vector<double> a = {3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0};
    std::vector<double> values, vectors;
    pyside::symmetric_eig_host(a, 3, values, vectors);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_NEAR(values[0], 1.0, 1e-12);
    EXPECT_NEAR(values[1], 2.0, 1e-12);
    EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(SymmetricEigHost, SolvesKnown2x2)
{
    // [[2,1],[1,2]] has eigenvalues 1 and 3.
    std::vector<double> a = {2.0, 1.0, 1.0, 2.0};
    std::vector<double> values, vectors;
    pyside::symmetric_eig_host(a, 2, values, vectors);
    EXPECT_NEAR(values[0], 1.0, 1e-12);
    EXPECT_NEAR(values[1], 3.0, 1e-12);
    // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::abs(vectors[0 * 2 + 1]), 1.0 / std::sqrt(2.0), 1e-10);
    EXPECT_NEAR(std::abs(vectors[1 * 2 + 1]), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(SymmetricEigHost, EigenvectorsDiagonalizeTheMatrix)
{
    // Random symmetric 5x5; check A v = lambda v columnwise.
    const size_type k = 5;
    std::vector<double> a(static_cast<std::size_t>(k * k));
    std::mt19937_64 engine{3};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    for (size_type i = 0; i < k; ++i) {
        for (size_type j = i; j < k; ++j) {
            const double v = dist(engine);
            a[static_cast<std::size_t>(i * k + j)] = v;
            a[static_cast<std::size_t>(j * k + i)] = v;
        }
    }
    const auto a_copy = a;
    std::vector<double> values, vectors;
    pyside::symmetric_eig_host(a, k, values, vectors);
    for (size_type j = 0; j < k; ++j) {
        for (size_type i = 0; i < k; ++i) {
            double av = 0.0;
            for (size_type l = 0; l < k; ++l) {
                av += a_copy[static_cast<std::size_t>(i * k + l)] *
                      vectors[static_cast<std::size_t>(l * k + j)];
            }
            EXPECT_NEAR(av,
                        values[static_cast<std::size_t>(j)] *
                            vectors[static_cast<std::size_t>(i * k + j)],
                        1e-9);
        }
    }
}

TEST(PowerIteration, FindsDominantEigenvalueOfDiagonal)
{
    auto dev = bind::device("reference");
    auto mtx = bind::matrix_from_data(
        dev, matrix_data<double, int64>::diag({1.0, 5.0, 3.0, -2.0}),
        "double", "Csr");
    auto result = pyside::power_iteration(dev, mtx, 2000, 1e-12);
    EXPECT_NEAR(result.eigenvalue, 5.0, 1e-8);
    EXPECT_NEAR(std::abs(result.eigenvector.item(1)), 1.0, 1e-5);
}

TEST(PowerIteration, MatchesLaplacianExtremeEigenvalue)
{
    auto dev = bind::device("omp");
    const size_type n = 40;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    auto result = pyside::power_iteration(dev, mtx, 20000, 1e-13);
    EXPECT_NEAR(result.eigenvalue, laplacian_eigenvalue(n, n), 1e-6);
}

TEST(RayleighRitz, RecoversDominantSpectrumOfDiagonal)
{
    auto dev = bind::device("reference");
    auto mtx = bind::matrix_from_data(
        dev,
        matrix_data<double, int64>::diag(
            {10.0, 1.0, 7.0, 2.0, 5.0, 0.5, 3.0, 0.1}),
        "double", "Csr");
    auto result = pyside::rayleigh_ritz(dev, mtx, 3, 200, 1e-10);
    ASSERT_EQ(result.eigenvalues.size(), 3u);
    EXPECT_NEAR(result.eigenvalues[0], 10.0, 1e-7);
    EXPECT_NEAR(result.eigenvalues[1], 7.0, 1e-7);
    EXPECT_NEAR(result.eigenvalues[2], 5.0, 1e-6);
    EXPECT_LT(result.max_residual, 1e-6);
}

TEST(RayleighRitz, MatchesAnalyticLaplacianEigenvalues)
{
    auto dev = bind::device("cuda");
    const size_type n = 64;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    // Clustered top spectrum: subspace iteration needs a generous budget.
    auto result = pyside::rayleigh_ritz(dev, mtx, 4, 12000, 1e-9);
    // Largest eigenvalues of the 1D Laplacian.
    for (size_type j = 0; j < 4; ++j) {
        EXPECT_NEAR(result.eigenvalues[static_cast<std::size_t>(j)],
                    laplacian_eigenvalue(n, n - j), 1e-6)
            << "eigenvalue " << j;
    }
    // Ritz vectors are orthonormal.
    auto v = result.eigenvectors;
    auto gram = v.t_matmul(v).to_host();
    for (size_type i = 0; i < 4; ++i) {
        for (size_type j = 0; j < 4; ++j) {
            EXPECT_NEAR(gram[static_cast<std::size_t>(i * 4 + j)],
                        i == j ? 1.0 : 0.0, 1e-8);
        }
    }
}

TEST(RayleighRitz, EigenResidualIsSmall)
{
    // The Laplacian's top eigenvalues are clustered, so plain subspace
    // iteration converges slowly — give it the budget it needs.
    auto dev = bind::device("omp");
    const size_type n = 50;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    auto result = pyside::rayleigh_ritz(dev, mtx, 2, 8000, 1e-8);
    EXPECT_LT(result.max_residual, 1e-7);
    EXPECT_GT(result.iterations, 1);
}

/// max_j ||A v_j - lambda_j v_j|| from host copies of A V and V, one sum
/// per column over the rows in ascending order.
double host_max_residual(const bind::Matrix& a,
                         const pyside::eig_result& result)
{
    const auto k = static_cast<size_type>(result.eigenvalues.size());
    const auto n = result.eigenvectors.shape().rows;
    const auto av = a.spmv(result.eigenvectors).to_host();
    const auto v = result.eigenvectors.to_host();
    std::vector<double> res(static_cast<std::size_t>(k), 0.0);
    for (size_type i = 0; i < n; ++i) {
        for (size_type j = 0; j < k; ++j) {
            const auto e = static_cast<std::size_t>(i * k + j);
            const double d =
                av[e] - result.eigenvalues[static_cast<std::size_t>(j)] * v[e];
            res[static_cast<std::size_t>(j)] += d * d;
        }
    }
    double max_res = 0.0;
    for (const double r : res) {
        max_res = std::max(max_res, std::sqrt(r));
    }
    return max_res;
}

TEST(RayleighRitz, MaxResidualEqualsHostLoopBitwise)
{
    for (auto exec : std::vector<std::shared_ptr<Executor>>{
             OmpExecutor::create(4), ReferenceExecutor::create()}) {
        const bind::Device dev{exec};
        for (const auto& [name, data] :
             {std::pair{"lap2d_32x40", matgen::stencil_2d_5pt(32, 40)},
              std::pair{"planar_1500", matgen::planar_graph(1500, 3)}}) {
            auto a = bind::matrix_from_data(dev, data, "double", "Csr");
            for (const size_type iterations : {1, 7}) {
                const auto result =
                    pyside::rayleigh_ritz(dev, a, 8, iterations, 0.0, 5);
                ASSERT_EQ(result.iterations, iterations);
                const double expected = host_max_residual(a, result);
                EXPECT_EQ(std::memcmp(&expected, &result.max_residual,
                                      sizeof(double)),
                          0)
                    << exec->name() << " " << name << " after " << iterations
                    << " iterations: " << result.max_residual << " against "
                    << expected;
            }
        }
    }
}

TEST(RayleighRitz, NanOperatorReportsNanResidualAndNeverConverges)
{
    auto dev = bind::device("reference");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    auto mtx = bind::matrix_from_data(
        dev, matrix_data<double, int64>::diag({4.0, nan, 2.0, 1.0, 3.0}),
        "double", "Csr");
    const auto result = pyside::rayleigh_ritz(dev, mtx, 2, 6, 1e-3);
    EXPECT_TRUE(std::isnan(result.max_residual));
    EXPECT_EQ(result.iterations, 6);
}

TEST(RayleighRitz, PhaseSpansAreWellNestedAndCoverEveryIteration)
{
    auto dev = bind::device("omp");
    auto mtx = bind::matrix_from_data(dev, matgen::stencil_2d_5pt(16, 16),
                                      "double", "Csr");
    auto rec = log::FlightRecorder::create(std::size_t{1} << 14);
    dev.executor()->add_logger(rec);
    const auto result = pyside::rayleigh_ritz(dev, mtx, 4, 5, 0.0);
    dev.executor()->remove_logger(rec.get());
    ASSERT_EQ(rec->dropped(), 0u);
    ASSERT_EQ(result.iterations, 5);

    using kind = log::FlightRecorder::event_kind;
    std::vector<std::string> stack;
    std::map<std::string, int> pairs;
    for (const auto& r : rec->snapshot()) {
        if (r.kind == kind::span_begin) {
            stack.emplace_back(r.tag);
        } else if (r.kind == kind::span_end) {
            ASSERT_FALSE(stack.empty()) << "end of '" << r.tag << "' first";
            ASSERT_EQ(stack.back(), r.tag) << "closed out of order";
            stack.pop_back();
            pairs[r.tag] += 1;
        }
    }
    EXPECT_TRUE(stack.empty());
    // One start span, then four phases per iteration, none nested.
    EXPECT_EQ(pairs, (std::map<std::string, int>{{"pyside.start", 1},
                                                 {"pyside.orthonormalize", 5},
                                                 {"pyside.project", 5},
                                                 {"pyside.ritz", 5},
                                                 {"pyside.residual", 5}}));
}

TEST(RayleighRitz, RejectsInvalidArguments)
{
    auto dev = bind::device("reference");
    auto mtx = bind::matrix_from_data(
        dev, matrix_data<double, int64>::diag({1.0, 2.0}), "double", "Csr");
    EXPECT_THROW(pyside::rayleigh_ritz(dev, mtx, 0), BadParameter);
    EXPECT_THROW(pyside::rayleigh_ritz(dev, mtx, 3), BadParameter);
}

}  // namespace
