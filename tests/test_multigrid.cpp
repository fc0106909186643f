// AMG subsystem tests: hierarchy construction, strength-of-connection
// semicoarsening, V-cycle convergence, preconditioner composability,
// zero-allocation steady state, config-layer keys, matgen stencils, and the
// spgemm regressions the Galerkin products rely on.  Everything runs on the
// ReferenceExecutor so the binary stays sanitizer-friendly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/exception.hpp"
#include "log/flight_recorder.hpp"
#include "log/metrics.hpp"
#include "matgen/matgen.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/spgemm.hpp"
#include "multigrid/amg_solver.hpp"
#include "preconditioner/ilu.hpp"
#include "preconditioner/jacobi.hpp"
#include "solver/bicgstab.hpp"
#include "solver/cg.hpp"
#include "solver/cgs.hpp"
#include "solver/fcg.hpp"
#include "solver/gmres.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace mgko {
namespace {

using Vec = Dense<double>;
using Mtx = Csr<double, int32>;
using config::Json;


std::shared_ptr<Mtx> make_matrix(std::shared_ptr<const Executor> exec,
                                 const matgen::data64& data)
{
    return Mtx::create_from_data(exec, data.cast<double, int32>());
}

std::shared_ptr<Mtx> poisson_2d(std::shared_ptr<const Executor> exec,
                                size_type nx, size_type ny)
{
    return make_matrix(std::move(exec), matgen::stencil_2d_5pt(nx, ny));
}

/// True residual norm ||b - A x||_2, computed host-side.
double true_residual_norm(const Mtx* a, const Vec* b, const Vec* x)
{
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();
    double sum = 0.0;
    for (size_type row = 0; row < n; ++row) {
        double r = b->at(row, 0);
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            r -= values[k] * x->at(static_cast<size_type>(col_idxs[k]), 0);
        }
        sum += r * r;
    }
    return std::sqrt(sum);
}

/// Dense reference product of two staging matrices.
std::vector<std::vector<double>> dense_product(const matgen::data64& a,
                                               const matgen::data64& b)
{
    std::vector<std::vector<double>> bd(
        static_cast<std::size_t>(b.size.rows),
        std::vector<double>(static_cast<std::size_t>(b.size.cols), 0.0));
    for (const auto& e : b.entries) {
        bd[static_cast<std::size_t>(e.row)][static_cast<std::size_t>(e.col)] +=
            e.value;
    }
    std::vector<std::vector<double>> result(
        static_cast<std::size_t>(a.size.rows),
        std::vector<double>(static_cast<std::size_t>(b.size.cols), 0.0));
    for (const auto& e : a.entries) {
        for (size_type col = 0; col < b.size.cols; ++col) {
            result[static_cast<std::size_t>(e.row)][col] +=
                e.value * bd[static_cast<std::size_t>(e.col)][col];
        }
    }
    return result;
}

void expect_matches_dense(const Mtx* m,
                          const std::vector<std::vector<double>>& expected)
{
    ASSERT_EQ(m->get_size().rows, expected.size());
    std::vector<std::vector<double>> got(
        expected.size(),
        std::vector<double>(expected.empty() ? 0 : expected[0].size(), 0.0));
    const auto* row_ptrs = m->get_const_row_ptrs();
    const auto* col_idxs = m->get_const_col_idxs();
    const auto* values = m->get_const_values();
    for (size_type row = 0; row < m->get_size().rows; ++row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            got[row][static_cast<std::size_t>(col_idxs[k])] += values[k];
        }
    }
    for (std::size_t r = 0; r < expected.size(); ++r) {
        for (std::size_t c = 0; c < expected[r].size(); ++c) {
            EXPECT_NEAR(got[r][c], expected[r][c], 1e-12)
                << "mismatch at (" << r << ", " << c << ")";
        }
    }
}


/// A private recorder large enough that the single-threaded runs below
/// never wrap its ring.
std::shared_ptr<log::FlightRecorder> whole_run_recorder()
{
    return log::FlightRecorder::create(std::size_t{1} << 16);
}

/// (is_begin, span name) of `rec`'s span events in emission order.
std::vector<std::pair<bool, std::string>> spans_of(
    const log::FlightRecorder& rec)
{
    using kind = log::FlightRecorder::event_kind;
    std::vector<std::pair<bool, std::string>> spans;
    for (const auto& r : rec.snapshot()) {
        if (r.kind == kind::span_begin || r.kind == kind::span_end) {
            spans.emplace_back(r.kind == kind::span_begin, r.tag);
        }
    }
    return spans;
}


// --- matgen satellites ------------------------------------------------------

TEST(MatgenAniso, StencilEntriesRowSumsAndSymmetry)
{
    const size_type nx = 7, ny = 5;
    const double eps = 0.1;
    auto data = matgen::stencil_2d_aniso(nx, ny, eps);
    ASSERT_EQ(data.size.rows, nx * ny);
    ASSERT_EQ(data.size.cols, nx * ny);

    std::map<std::pair<int64, int64>, double> entries;
    std::vector<double> row_sum(nx * ny, 0.0);
    for (const auto& e : data.entries) {
        entries[{e.row, e.col}] += e.value;
        row_sum[static_cast<std::size_t>(e.row)] += e.value;
    }
    // Symmetry: every entry has its mirror.
    for (const auto& [key, value] : entries) {
        auto mirror = entries.find({key.second, key.first});
        ASSERT_NE(mirror, entries.end());
        EXPECT_DOUBLE_EQ(mirror->second, value);
    }
    auto idx = [&](size_type i, size_type j) {
        return static_cast<int64>(i * ny + j);
    };
    for (size_type i = 0; i < nx; ++i) {
        for (size_type j = 0; j < ny; ++j) {
            EXPECT_DOUBLE_EQ((entries[{idx(i, j), idx(i, j)}]), 2.0 + 2.0 * eps);
            const bool interior =
                i > 0 && i + 1 < nx && j > 0 && j + 1 < ny;
            if (interior) {
                // Interior row sums vanish (constant vectors in the near
                // null space — what AMG's piecewise-constant P captures).
                EXPECT_NEAR(row_sum[static_cast<std::size_t>(idx(i, j))], 0.0,
                            1e-14);
                EXPECT_DOUBLE_EQ((entries[{idx(i, j), idx(i - 1, j)}]), -1.0);
                EXPECT_DOUBLE_EQ((entries[{idx(i, j), idx(i, j - 1)}]), -eps);
            } else {
                EXPECT_GT(row_sum[static_cast<std::size_t>(idx(i, j))], 0.0);
            }
        }
    }
}

TEST(Matgen27Point, StencilSizeRowSumsAndSymmetry)
{
    const size_type nx = 4, ny = 3, nz = 5;
    auto data = matgen::stencil_3d_27pt(nx, ny, nz);
    ASSERT_EQ(data.size.rows, nx * ny * nz);

    std::map<std::pair<int64, int64>, double> entries;
    std::vector<int> row_nnz(nx * ny * nz, 0);
    std::vector<double> row_sum(nx * ny * nz, 0.0);
    for (const auto& e : data.entries) {
        entries[{e.row, e.col}] += e.value;
        row_nnz[static_cast<std::size_t>(e.row)] += 1;
        row_sum[static_cast<std::size_t>(e.row)] += e.value;
    }
    for (const auto& [key, value] : entries) {
        auto mirror = entries.find({key.second, key.first});
        ASSERT_NE(mirror, entries.end());
        EXPECT_DOUBLE_EQ(mirror->second, value);
    }
    auto idx = [&](size_type i, size_type j, size_type k) {
        return static_cast<std::size_t>((i * ny + j) * nz + k);
    };
    // Interior rows: the full 27-point stencil with zero row sum; corner
    // rows: a 2x2x2 neighbourhood (8 entries) and positive row sum.
    const auto interior = idx(1, 1, 1);
    EXPECT_EQ(row_nnz[interior], 27);
    EXPECT_NEAR(row_sum[interior], 0.0, 1e-14);
    EXPECT_DOUBLE_EQ(
        (entries[{static_cast<int64>(interior), static_cast<int64>(interior)}]),
        26.0);
    const auto corner = idx(0, 0, 0);
    EXPECT_EQ(row_nnz[corner], 8);
    EXPECT_GT(row_sum[corner], 0.0);
}


// --- spgemm satellites ------------------------------------------------------

TEST(SpgemmAmg, HandlesEmptyRows)
{
    auto exec = ReferenceExecutor::create();
    matgen::data64 a_data{dim2{4, 4}};
    a_data.add(0, 1, 2.0);
    a_data.add(2, 0, -1.0);
    a_data.add(2, 3, 3.0);  // rows 1 and 3 stay empty
    matgen::data64 b_data{dim2{4, 4}};
    b_data.add(0, 0, 5.0);
    b_data.add(1, 2, 4.0);
    b_data.add(3, 1, -2.0);  // rows 2 and 3 of the product stay sparse

    auto a = make_matrix(exec, a_data);
    auto b = make_matrix(exec, b_data);
    auto c = spgemm(a.get(), b.get());
    ASSERT_EQ(c->get_size(), (dim2{4, 4}));
    expect_matches_dense(c.get(), dense_product(a_data, b_data));
    // Empty input rows produce empty output rows, not garbage.
    const auto* row_ptrs = c->get_const_row_ptrs();
    EXPECT_EQ(row_ptrs[1], row_ptrs[2]);
    EXPECT_EQ(row_ptrs[3], row_ptrs[4]);
}

TEST(SpgemmAmg, RectangularGalerkinTripleProduct)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 6, nc = 2;
    // Piecewise-constant P over aggregates {0,1,2} and {3,4,5}.
    matgen::data64 p_data{dim2{n, nc}};
    for (size_type i = 0; i < n; ++i) {
        p_data.add(static_cast<int64>(i), static_cast<int64>(i / 3), 1.0);
    }
    auto a_data = test::laplacian_1d<double, int64>(n);
    a_data.size = dim2{n, n};
    auto a = make_matrix(exec, a_data);
    auto p = make_matrix(exec, p_data);

    auto r = p->transpose();
    ASSERT_EQ(r->get_size(), (dim2{nc, n}));
    auto ap = spgemm(a.get(), p.get());
    ASSERT_EQ(ap->get_size(), (dim2{n, nc}));
    auto rap = spgemm(r.get(), ap.get());
    ASSERT_EQ(rap->get_size(), (dim2{nc, nc}));

    // R A P sums A over 3x3 blocks: diagonal 2*3 - 2*2 = 2, coupling -1.
    expect_matches_dense(rap.get(), {{2.0, -1.0}, {-1.0, 2.0}});

    // Non-conformant operand order is rejected, not silently accepted.
    EXPECT_THROW(spgemm(p.get(), a.get()), DimensionMismatch);
}

TEST(SpgemmAmg, OutputIsSortedAndDuplicateFree)
{
    auto exec = ReferenceExecutor::create();
    auto a = Mtx::create_from_data(exec, test::random_sparse(40, 6, 11));
    auto b = Mtx::create_from_data(exec, test::random_sparse(40, 6, 22));
    auto c = spgemm(a.get(), b.get());
    const auto* row_ptrs = c->get_const_row_ptrs();
    const auto* col_idxs = c->get_const_col_idxs();
    for (size_type row = 0; row < c->get_size().rows; ++row) {
        for (auto k = row_ptrs[row] + 1; k < row_ptrs[row + 1]; ++k) {
            ASSERT_LT(col_idxs[k - 1], col_idxs[k])
                << "row " << row << " is unsorted or has duplicates";
        }
    }
}

TEST(SpgemmAmg, TransposeBasedRestrictionMatchesAggregateSizes)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 7, nc = 3;
    matgen::data64 p_data{dim2{n, nc}};
    const int64 agg[] = {0, 0, 1, 1, 1, 2, 2};
    for (size_type i = 0; i < n; ++i) {
        p_data.add(static_cast<int64>(i), agg[i], 1.0);
    }
    auto p = make_matrix(exec, p_data);
    auto r = p->transpose();
    // P^T P is diagonal with the aggregate cardinalities.
    auto gram = spgemm(r.get(), p.get());
    expect_matches_dense(gram.get(),
                         {{2.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 2.0}});
}

TEST(SpgemmAmg, ReportsWorkThroughOperationEvents)
{
    auto exec = ReferenceExecutor::create();
    auto a = Mtx::create_from_data(exec, test::random_sparse(30, 5, 33));
    auto b = Mtx::create_from_data(exec, test::random_sparse(30, 5, 44));
    auto metrics = log::MetricsLogger::create();
    exec->add_logger(metrics);
    auto c = spgemm(a.get(), b.get());
    exec->remove_logger(metrics.get());

    const auto& reg = metrics->registry();
    ASSERT_EQ(reg.counter_value("mgko_events_total", "op.spgemm"), 1.0);
    // flops = 2 * (number of scalar products), computable from the inputs.
    double products = 0.0;
    const auto* a_ptrs = a->get_const_row_ptrs();
    const auto* a_cols = a->get_const_col_idxs();
    const auto* b_ptrs = b->get_const_row_ptrs();
    for (size_type row = 0; row < a->get_size().rows; ++row) {
        for (auto k = a_ptrs[row]; k < a_ptrs[row + 1]; ++k) {
            const auto inner = static_cast<size_type>(a_cols[k]);
            products += static_cast<double>(b_ptrs[inner + 1] - b_ptrs[inner]);
        }
    }
    EXPECT_DOUBLE_EQ(reg.counter_value("mgko_flops_total", "op.spgemm"),
                     2.0 * products);
    EXPECT_GT(reg.counter_value("mgko_work_bytes_total", "op.spgemm"), 0.0);
}


// --- hierarchy construction -------------------------------------------------

TEST(AmgHierarchy, CoarsensPoissonToDirectSolvableLevel)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 48, 48);
    multigrid::amg_parameters params;
    multigrid::Hierarchy<double, int32> h{exec, params, a};

    ASSERT_GE(h.num_levels(), 3u);
    for (size_type k = 0; k + 1 < h.num_levels(); ++k) {
        const auto rows = h.get_level(k).op->get_size().rows;
        const auto coarse_rows = h.get_level(k + 1).op->get_size().rows;
        EXPECT_LT(coarse_rows, rows) << "level " << k << " did not coarsen";
        // Transfer operators chain: P_k is rows_k x rows_{k+1}, R = P^T.
        ASSERT_NE(h.get_level(k).prolong, nullptr);
        EXPECT_EQ(h.get_level(k).prolong->get_size(),
                  (dim2{rows, coarse_rows}));
        EXPECT_EQ(h.get_level(k).restrict_op->get_size(),
                  (dim2{coarse_rows, rows}));
    }
    const auto coarsest_rows =
        h.get_level(h.num_levels() - 1).op->get_size().rows;
    EXPECT_TRUE(coarsest_rows <= params.min_coarse_rows ||
                h.num_levels() == params.max_levels);
    // Smoothed aggregation on a 5-point stencil stays cheap: the classic
    // operator-complexity measure must remain well below 3.
    EXPECT_GT(h.operator_complexity(), 1.0);
    EXPECT_LT(h.operator_complexity(), 3.0);
}

TEST(AmgHierarchy, StrengthFilterSemicoarsensAnisotropicProblem)
{
    auto exec = ReferenceExecutor::create();
    const size_type nx = 24, ny = 10;
    // x-coupling -1, y-coupling -0.01: with theta = 0.08 only the
    // x-direction links are strong, so aggregates must be x-line segments.
    auto a = make_matrix(exec, matgen::stencil_2d_aniso(nx, ny, 0.01));
    multigrid::amg_parameters params;
    params.max_levels = 2;
    params.smoothed_prolongation = false;  // keep the tentative P readable
    multigrid::Hierarchy<double, int32> h{exec, params, a};
    ASSERT_EQ(h.num_levels(), 2u);

    const auto* p = h.get_level(0).prolong.get();
    const auto* row_ptrs = p->get_const_row_ptrs();
    const auto* col_idxs = p->get_const_col_idxs();
    const auto num_agg = p->get_size().cols;
    // Aggregation along strong lines only coarsens the x direction, so the
    // coarse grid keeps at least one point per 5 fine points per line (and
    // genuinely coarsens).
    EXPECT_GE(num_agg, nx * ny / 5);
    EXPECT_LT(num_agg, nx * ny);
    std::vector<int64> agg_line(num_agg, -1);
    for (size_type row = 0; row < nx * ny; ++row) {
        ASSERT_EQ(row_ptrs[row + 1] - row_ptrs[row], 1)
            << "tentative P must be piecewise constant";
        const auto aggregate = static_cast<size_type>(col_idxs[row_ptrs[row]]);
        const auto line = static_cast<int64>(row % ny);  // the y index
        if (agg_line[aggregate] < 0) {
            agg_line[aggregate] = line;
        }
        EXPECT_EQ(agg_line[aggregate], line)
            << "aggregate " << aggregate << " crossed a weak y-link at row "
            << row;
    }
}


/// The prolongation smoother built serially as triplets: M assembled as
/// matrix_data (the diagonal first in each row) and read through
/// Csr::create_from_data's copy-and-sort path, with the row scans in stored
/// order.  The oracle the row-parallel CSR build must equal bitwise.
template <typename V, typename I>
std::unique_ptr<Csr<V, I>> serial_triplet_smoother(const Csr<V, I>* a,
                                                   double theta)
{
    const auto n = a->get_size().rows;
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();
    std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
    for (size_type row = 0; row < n; ++row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            if (static_cast<size_type>(col_idxs[k]) == row) {
                diag[row] = to_float(values[k]);
            }
        }
    }
    auto strong = [&](size_type row, size_type col, double v) {
        return std::abs(v) >=
               theta * std::sqrt(std::abs(diag[row] * diag[col]));
    };
    std::vector<double> filtered_diag(diag);
    double rho = 0.0;
    for (size_type row = 0; row < n; ++row) {
        double strong_abs = 0.0;
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            const double v = to_float(values[k]);
            if (col == row) {
                continue;
            }
            if (strong(row, col, v)) {
                strong_abs += std::abs(v);
            } else {
                filtered_diag[row] += v;
            }
        }
        const double d = std::abs(filtered_diag[row]);
        if (d > 0.0) {
            rho = std::max(rho, (d + strong_abs) / d);
        }
    }
    const double omega = rho > 0.0 ? 4.0 / (3.0 * rho) : 2.0 / 3.0;
    matrix_data<V, I> m{dim2{n, n}};
    for (size_type row = 0; row < n; ++row) {
        double df = filtered_diag[row];
        if (df == 0.0) {
            df = diag[row] != 0.0 ? diag[row] : 1.0;
        }
        m.add(static_cast<I>(row), static_cast<I>(row),
              static_cast<V>(1.0 - omega));
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto col = static_cast<size_type>(col_idxs[k]);
            const double v = to_float(values[k]);
            if (col != row && strong(row, col, v)) {
                m.add(static_cast<I>(row), static_cast<I>(col),
                      static_cast<V>(-omega * v / df));
            }
        }
    }
    return Csr<V, I>::create_from_data(a->get_executor(), m);
}

/// `data` on `exec`, each row stored in descending column order when
/// `reversed` (a hand-built layout no reader produces).
template <typename V, typename I>
std::shared_ptr<Csr<V, I>> level_operator(std::shared_ptr<const Executor> exec,
                                          const matgen::data64& data,
                                          bool reversed)
{
    std::shared_ptr<Csr<V, I>> a{
        Csr<V, I>::create_from_data(exec, data.cast<V, I>())};
    if (reversed) {
        const auto* ptrs = a->get_const_row_ptrs();
        for (size_type row = 0; row < a->get_size().rows; ++row) {
            std::reverse(a->get_col_idxs() + ptrs[row],
                         a->get_col_idxs() + ptrs[row + 1]);
            std::reverse(a->get_values() + ptrs[row],
                         a->get_values() + ptrs[row + 1]);
        }
    }
    return a;
}

/// A 5-point 16 x 16 stencil with every 7th diagonal negated, every 11th
/// zeroed and the coupling (40, 41) set to NaN.
matgen::data64 signed_zero_and_nan_stencil()
{
    auto data = matgen::stencil_2d_5pt(16, 16);
    for (auto& e : data.entries) {
        if (e.row == e.col && e.row % 7 == 3) {
            e.value = -e.value;
        }
        if (e.row == e.col && e.row % 11 == 5) {
            e.value = 0.0;
        }
        if (e.row == 40 && e.col == 41) {
            e.value = std::numeric_limits<double>::quiet_NaN();
        }
    }
    return data;
}

template <typename V, typename I>
void expect_same_hierarchy(const multigrid::Hierarchy<V, I>& got,
                           const multigrid::Hierarchy<V, I>& expected)
{
    ASSERT_EQ(got.num_levels(), expected.num_levels());
    for (size_type k = 0; k < expected.num_levels(); ++k) {
        SCOPED_TRACE("level " + std::to_string(k));
        const auto& g = got.get_level(k);
        const auto& e = expected.get_level(k);
        test::expect_same_csr(g.op.get(), e.op.get());
        ASSERT_EQ(g.prolong == nullptr, e.prolong == nullptr);
        if (e.prolong) {
            test::expect_same_csr(g.prolong.get(), e.prolong.get());
            test::expect_same_csr(g.restrict_op.get(), e.restrict_op.get());
        }
        const auto rows = e.op->get_size().rows;
        EXPECT_EQ(std::memcmp(g.inv_diag->get_const_values(),
                              e.inv_diag->get_const_values(),
                              static_cast<std::size_t>(rows) * sizeof(V)),
                  0);
    }
}

TEST(AmgHierarchy, EveryBackendBuildsTheReferenceLevelsBitwise)
{
    struct problem {
        const char* name;
        matgen::data64 data;
        double theta;
    };
    const problem problems[] = {
        {"7-point 12^3", matgen::stencil_3d_7pt(12, 12, 12), 0.02},
        {"27-point 12^3", matgen::stencil_3d_27pt(12, 12, 12), 0.02},
        {"anisotropic 40^2", matgen::stencil_2d_aniso(40, 40, 0.01), 0.08}};
    for (const auto& p : problems) {
        for (const bool smoothed : {true, false}) {
            SCOPED_TRACE(std::string{p.name} +
                         (smoothed ? ", smoothed P" : ", tentative P"));
            multigrid::amg_parameters params;
            params.theta = p.theta;
            params.min_coarse_rows = 8;
            params.smoothed_prolongation = smoothed;
            auto ref = ReferenceExecutor::create();
            const multigrid::Hierarchy<double, int32> expected{
                ref, params, make_matrix(ref, p.data)};
            ASSERT_GE(expected.num_levels(), 3u);
            for (std::shared_ptr<const Executor> exec :
                 {std::shared_ptr<const Executor>{OmpExecutor::create(4)},
                  std::shared_ptr<const Executor>{CudaExecutor::create()},
                  std::shared_ptr<const Executor>{HipExecutor::create()}}) {
                const multigrid::Hierarchy<double, int32> got{
                    exec, params, make_matrix(exec, p.data)};
                expect_same_hierarchy(got, expected);
            }
        }
    }
}

TEST(AmgHierarchy, LevelsEqualTheSerialTripletBuild)
{
    // Every level k of a smoothed hierarchy is P_k = M_k T_k with M_k the
    // serial triplet smoother and T_k the tentative P a one-step tentative
    // hierarchy on A_k aggregates, and A_{k+1} = P_k^T (A_k P_k), each
    // product the serial Gustavson loop.  Covers a fine operator whose rows
    // are stored in reverse column order.
    struct problem {
        const char* name;
        matgen::data64 data;
        double theta;
        bool reversed;
    };
    const problem problems[] = {
        {"7-point 10^3 reversed", matgen::stencil_3d_7pt(10, 10, 10), 0.02,
         true},
        {"anisotropic 32^2", matgen::stencil_2d_aniso(32, 32, 0.01), 0.08,
         false},
        {"27-point 12^3 reversed", matgen::stencil_3d_27pt(12, 12, 12), 0.02,
         true},
        // theta 0.25 puts the stencil's couplings exactly on the strength
        // bound; some diagonals are negative or zero and one coupling is
        // NaN, which stays weak.
        {"5-point 16^2 signed and zero diagonals, a NaN",
         signed_zero_and_nan_stencil(), 0.25, false}};
    for (std::shared_ptr<const Executor> exec :
         {std::shared_ptr<const Executor>{ReferenceExecutor::create()},
          std::shared_ptr<const Executor>{OmpExecutor::create(4)}}) {
        for (const auto& p : problems) {
            SCOPED_TRACE(p.name);
            multigrid::amg_parameters params;
            params.theta = p.theta;
            params.min_coarse_rows = 8;
            const multigrid::Hierarchy<double, int32> h{
                exec, params,
                level_operator<double, int32>(exec, p.data, p.reversed)};
            ASSERT_GE(h.num_levels(), 3u);
            auto tentative_params = params;
            tentative_params.smoothed_prolongation = false;
            tentative_params.max_levels = 2;
            for (size_type k = 0; k + 1 < h.num_levels(); ++k) {
                SCOPED_TRACE("level " + std::to_string(k));
                const auto& level = h.get_level(k);
                const multigrid::Hierarchy<double, int32> t{
                    exec, tentative_params, level.op};
                ASSERT_EQ(t.num_levels(), 2u);
                const auto m =
                    serial_triplet_smoother(level.op.get(), p.theta);
                const auto prolong = test::serial_gustavson(
                    m.get(), t.get_level(0).prolong.get());
                test::expect_same_csr(level.prolong.get(), prolong.get());
                const auto restrict_op = prolong->transpose();
                test::expect_same_csr(level.restrict_op.get(),
                                      restrict_op.get());
                const auto ap =
                    test::serial_gustavson(level.op.get(), prolong.get());
                test::expect_same_csr(
                    h.get_level(k + 1).op.get(),
                    test::serial_gustavson(restrict_op.get(), ap.get())
                        .get());
            }
        }
    }
}

TEST(AmgHierarchy, RefusesAFineRowThatRepeatsAColumn)
{
    auto exec = ReferenceExecutor::create();
    auto data = matgen::stencil_2d_5pt(12, 12).cast<double, int32>();
    data.sort_row_major();
    // Row 7 stores its coupling to column 8 as two strong halves.
    const int32 row = 7;
    auto a = Mtx::create(exec, data.size, data.num_stored() + 1);
    auto* ptrs = a->get_row_ptrs();
    auto* cols = a->get_col_idxs();
    auto* vals = a->get_values();
    size_type out = 0;
    for (const auto& e : data.entries) {
        const bool split = e.row == row && e.col == row + 1;
        cols[out] = e.col;
        vals[out++] = split ? e.value / 2 : e.value;
        if (split) {
            cols[out] = e.col;
            vals[out++] = e.value / 2;
        }
        ptrs[e.row + 1] = static_cast<int32>(out);
    }
    std::shared_ptr<const Mtx> fine{std::move(a)};
    multigrid::amg_parameters params;
    try {
        multigrid::Hierarchy<double, int32> h{exec, params, fine};
        FAIL() << "a row storing a column twice was accepted";
    } catch (const BadParameter& e) {
        EXPECT_NE(std::string{e.what()}.find("row 7 "), std::string::npos)
            << e.what();
    }
    // The tentative P never reads the row's columns as one set, so that
    // hierarchy still builds.
    params.smoothed_prolongation = false;
    EXPECT_NO_THROW((multigrid::Hierarchy<double, int32>{exec, params, fine}));
}


// --- standalone V-cycle solver ----------------------------------------------

TEST(AmgSolver, VCycleConvergesWithBothSmoothers)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 32, 32);
    auto b = test::random_vector<double>(exec, a->get_size().rows, 5);
    for (const auto smoother : {multigrid::smoother_type::jacobi,
                                multigrid::smoother_type::gauss_seidel}) {
        auto solver = multigrid::AmgSolver<double, int32>::build()
                          .with_criteria(stop::iteration(100))
                          .with_criteria(stop::residual_norm(1e-10))
                          .with_smoother(smoother)
                          .on(exec)
                          ->generate(a);
        auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
        solver->apply(b.get(), x.get());

        auto* amg =
            dynamic_cast<multigrid::AmgSolver<double, int32>*>(solver.get());
        ASSERT_NE(amg, nullptr);
        auto logger = amg->get_logger();
        EXPECT_TRUE(logger->has_converged())
            << "smoother " << multigrid::to_string(smoother);
        EXPECT_LT(logger->num_iterations(), 100u);
        EXPECT_EQ(logger->residual_history().size(),
                  logger->num_iterations() + 1);
        const double b_norm = true_residual_norm(
            a.get(), b.get(),
            Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0).get());
        EXPECT_LE(true_residual_norm(a.get(), b.get(), x.get()),
                  1e-9 * b_norm);
        EXPECT_GE(amg->get_hierarchy().num_levels(), 3u);
    }
}

TEST(AmgSolver, SecondApplyPerformsZeroExecutorAllocations)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 24, 24);
    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    auto solver = multigrid::AmgSolver<double, int32>::build()
                      .with_criteria(stop::iteration(60))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    solver->apply(b.get(), x.get());  // warm-up: populates every workspace

    x->fill(0.0);
    const auto system_allocs = exec->num_allocations();
    solver->apply(b.get(), x.get());
    EXPECT_EQ(exec->num_allocations(), system_allocs)
        << "steady-state V-cycle apply() hit the system allocator";
}

TEST(AmgPreconditioner, SecondApplyPerformsZeroExecutorAllocations)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 24, 24);
    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    auto precond = multigrid::AmgPreconditioner<double, int32>::build()
                       .on(exec)
                       ->generate(a);
    precond->apply(b.get(), x.get());  // warm-up

    const auto system_allocs = exec->num_allocations();
    precond->apply(b.get(), x.get());
    EXPECT_EQ(exec->num_allocations(), system_allocs)
        << "steady-state preconditioner apply() hit the system allocator";
}


// --- zero initial guess ------------------------------------------------------

/// AmgPreconditioner::apply starts from x = 0 and skips the work on it.  On
/// a 4-thread OmpExecutor its result must be bitwise that of zeroing x and
/// running Hierarchy::cycle, whatever x held on entry.  The cases cover the
/// Jacobi path that writes x directly, the schemes that zero x first
/// (Gauss-Seidel, no pre-sweep), repeated cycles, and a single level too
/// large for the direct solver, which relaxes instead.
TEST(AmgZeroGuess, PreconditionerMatchesFillThenCycleBitwise)
{
    struct zero_guess_case {
        const char* name;
        multigrid::smoother_type smoother;
        size_type pre_sweeps;
        size_type cycles;
        size_type max_levels;
        size_type grid;
    };
    constexpr auto jacobi = multigrid::smoother_type::jacobi;
    constexpr auto gauss_seidel = multigrid::smoother_type::gauss_seidel;
    const zero_guess_case cases[] = {
        {"jacobi", jacobi, 1, 1, 12, 48},
        {"jacobi, 2 pre-sweeps, 2 cycles", jacobi, 2, 2, 12, 48},
        {"jacobi, no pre-sweep", jacobi, 0, 1, 12, 48},
        {"gauss_seidel", gauss_seidel, 1, 1, 12, 48},
        {"jacobi, one relaxed level", jacobi, 1, 1, 1, 130},
    };
    auto exec = OmpExecutor::create(4);
    for (const auto& c : cases) {
        SCOPED_TRACE(c.name);
        auto a = poisson_2d(exec, c.grid, c.grid);
        const auto n = a->get_size().rows;
        auto builder = multigrid::AmgPreconditioner<double, int32>::build()
                           .with_smoother(c.smoother)
                           .with_cycles(c.cycles)
                           .with_max_levels(c.max_levels);
        builder.pre_sweeps = c.pre_sweeps;
        auto precond = builder.on(exec)->generate(a);
        const auto& hierarchy =
            dynamic_cast<const multigrid::AmgPreconditioner<double, int32>&>(
                *precond)
                .get_hierarchy();
        auto b = test::random_vector<double>(exec, n, 11);

        auto expected = Vec::create(exec, dim2{n, 1});
        expected->fill(0.0);
        for (size_type k = 0; k < c.cycles; ++k) {
            hierarchy.cycle(b.get(), expected.get());
        }
        for (const double initial :
             {0.0, 7.0, std::numeric_limits<double>::quiet_NaN()}) {
            auto x = Vec::create_filled(exec, dim2{n, 1}, initial);
            precond->apply(b.get(), x.get());
            for (size_type i = 0; i < n; ++i) {
                ASSERT_TRUE(std::isfinite(x->at(i, 0))) << "row " << i;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(x->at(i, 0)),
                          std::bit_cast<std::uint64_t>(expected->at(i, 0)))
                    << "row " << i << ", x = " << initial << " on entry";
            }
        }
    }
}


// --- preconditioner composability -------------------------------------------

size_type preconditioned_cg_iterations(
    std::shared_ptr<const Executor> exec, std::shared_ptr<Mtx> a,
    std::shared_ptr<const LinOpFactory> precond)
{
    auto builder = solver::Cg<double>::build()
                       .with_criteria(stop::iteration(2000))
                       .with_criteria(stop::residual_norm(1e-10));
    if (precond) {
        builder.with_preconditioner(std::move(precond));
    }
    auto solver = builder.on(exec)->generate(a);
    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    solver->apply(b.get(), x.get());
    auto* cg = dynamic_cast<solver::Cg<double>*>(solver.get());
    EXPECT_TRUE(cg->get_logger()->has_converged());
    return cg->get_logger()->num_iterations();
}

TEST(AmgPreconditioner, CutsCgIterationsToQuarterOfJacobi)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 48, 48);
    const auto jacobi_iters = preconditioned_cg_iterations(
        exec, a, preconditioner::Jacobi<double, int32>::build().on(exec));
    const auto amg_iters = preconditioned_cg_iterations(
        exec, a, multigrid::AmgPreconditioner<double, int32>::build().on(exec));
    // The acceptance bar of the AMG milestone: <= 25% of Jacobi-CG.
    EXPECT_LE(amg_iters * 4, jacobi_iters)
        << "AMG-CG took " << amg_iters << " vs Jacobi-CG " << jacobi_iters;
}

TEST(AmgPreconditioner, ComposesWithEveryKrylovSolver)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 20, 20);
    const auto n = a->get_size().rows;
    auto b = test::random_vector<double>(exec, n, 17);

    using make_solver_fn = std::unique_ptr<LinOp> (*)(
        std::shared_ptr<const Executor>, std::shared_ptr<Mtx>,
        std::shared_ptr<const LinOpFactory>);
    const std::pair<const char*, make_solver_fn> solvers[] = {
        {"cg",
         [](std::shared_ptr<const Executor> e, std::shared_ptr<Mtx> m,
            std::shared_ptr<const LinOpFactory> p) -> std::unique_ptr<LinOp> {
             return solver::Cg<double>::build()
                 .with_criteria(stop::iteration(500))
                 .with_criteria(stop::residual_norm(1e-8))
                 .with_preconditioner(std::move(p))
                 .on(std::move(e))
                 ->generate(std::move(m));
         }},
        {"fcg",
         [](std::shared_ptr<const Executor> e, std::shared_ptr<Mtx> m,
            std::shared_ptr<const LinOpFactory> p) -> std::unique_ptr<LinOp> {
             return solver::Fcg<double>::build()
                 .with_criteria(stop::iteration(500))
                 .with_criteria(stop::residual_norm(1e-8))
                 .with_preconditioner(std::move(p))
                 .on(std::move(e))
                 ->generate(std::move(m));
         }},
        {"cgs",
         [](std::shared_ptr<const Executor> e, std::shared_ptr<Mtx> m,
            std::shared_ptr<const LinOpFactory> p) -> std::unique_ptr<LinOp> {
             return solver::Cgs<double>::build()
                 .with_criteria(stop::iteration(500))
                 .with_criteria(stop::residual_norm(1e-8))
                 .with_preconditioner(std::move(p))
                 .on(std::move(e))
                 ->generate(std::move(m));
         }},
        {"bicgstab",
         [](std::shared_ptr<const Executor> e, std::shared_ptr<Mtx> m,
            std::shared_ptr<const LinOpFactory> p) -> std::unique_ptr<LinOp> {
             return solver::Bicgstab<double>::build()
                 .with_criteria(stop::iteration(500))
                 .with_criteria(stop::residual_norm(1e-8))
                 .with_preconditioner(std::move(p))
                 .on(std::move(e))
                 ->generate(std::move(m));
         }},
        {"gmres",
         [](std::shared_ptr<const Executor> e, std::shared_ptr<Mtx> m,
            std::shared_ptr<const LinOpFactory> p) -> std::unique_ptr<LinOp> {
             return solver::Gmres<double>::build()
                 .with_criteria(stop::iteration(500))
                 .with_criteria(stop::residual_norm(1e-8))
                 .with_preconditioner(std::move(p))
                 .on(std::move(e))
                 ->generate(std::move(m));
         }},
    };
    const std::pair<const char*,
                    std::shared_ptr<const LinOpFactory> (*)(
                        std::shared_ptr<const Executor>)>
        preconds[] = {
            {"jacobi",
             [](std::shared_ptr<const Executor> e)
                 -> std::shared_ptr<const LinOpFactory> {
                 return preconditioner::Jacobi<double, int32>::build().on(
                     std::move(e));
             }},
            {"ilu",
             [](std::shared_ptr<const Executor> e)
                 -> std::shared_ptr<const LinOpFactory> {
                 return preconditioner::Ilu<double, int32>::build_on(
                     std::move(e));
             }},
            {"amg",
             [](std::shared_ptr<const Executor> e)
                 -> std::shared_ptr<const LinOpFactory> {
                 return multigrid::AmgPreconditioner<double, int32>::build()
                     .on(std::move(e));
             }},
        };

    for (const auto& [solver_name, make_solver] : solvers) {
        for (const auto& [precond_name, make_precond] : preconds) {
            SCOPED_TRACE(std::string{solver_name} + " + " + precond_name);
            auto solver = make_solver(exec, a, make_precond(exec));
            auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
            solver->apply(b.get(), x.get());
            auto* iterative =
                dynamic_cast<solver::IterativeSolver<double>*>(solver.get());
            ASSERT_NE(iterative, nullptr);
            auto logger = iterative->get_logger();
            EXPECT_TRUE(logger->has_converged());
            // The logging contract every solver upholds regardless of the
            // preconditioner plugged in.
            EXPECT_EQ(logger->residual_history().size(),
                      logger->num_iterations() + 1);
            EXPECT_LT(true_residual_norm(a.get(), b.get(), x.get()), 1e-6);
        }
    }
}


// --- config layer -----------------------------------------------------------

TEST(AmgConfig, SolverTypeAmgSolves)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 24, 24);
    auto config = Json::parse(R"({
        "type": "amg",
        "theta": 0.08,
        "max_levels": 8,
        "min_coarse_rows": 32,
        "smoother": "gauss_seidel",
        "pre_sweeps": 1,
        "post_sweeps": 1,
        "max_iters": 80,
        "reduction_factor": 1e-10
    })");
    auto solver = config::config_solver(config, exec, a);
    auto* amg =
        dynamic_cast<multigrid::AmgSolver<double, int32>*>(solver.get());
    ASSERT_NE(amg, nullptr);
    EXPECT_DOUBLE_EQ(amg->get_amg_parameters().theta, 0.08);
    EXPECT_EQ(amg->get_amg_parameters().smoother,
              multigrid::smoother_type::gauss_seidel);
    EXPECT_EQ(amg->get_amg_parameters().min_coarse_rows, 32u);

    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    solver->apply(b.get(), x.get());
    EXPECT_TRUE(amg->get_logger()->has_converged());
}

TEST(AmgConfig, PreconditionerTypeAmgSolves)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 24, 24);
    auto config = Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 100,
        "reduction_factor": 1e-10,
        "preconditioner": {"type": "amg", "theta": 0.08, "cycles": 1,
                           "smoother": "jacobi"}
    })");
    auto solver = config::config_solver(config, exec, a);
    auto* cg = dynamic_cast<solver::Cg<double>*>(solver.get());
    ASSERT_NE(cg, nullptr);
    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    solver->apply(b.get(), x.get());
    EXPECT_TRUE(cg->get_logger()->has_converged());
    EXPECT_LT(cg->get_logger()->num_iterations(), 30u);
}

TEST(AmgConfig, RejectsUnknownKeysListingValidOnes)
{
    auto exec = ReferenceExecutor::create();
    // Typo'd AMG key: rejected, and the message names both the offender
    // and the accepted spelling.
    auto typo = Json::parse(
        R"({"type": "amg", "thetta": 0.1, "max_iters": 10})");
    try {
        config::parse_factory(typo, exec);
        FAIL() << "expected BadParameter for key 'thetta'";
    } catch (const BadParameter& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("thetta"), std::string::npos) << message;
        EXPECT_NE(message.find("theta"), std::string::npos) << message;
        EXPECT_NE(message.find("valid keys"), std::string::npos) << message;
    }
    // AMG-only keys do not leak into other solvers.
    auto cg_with_theta = Json::parse(
        R"({"type": "solver::Cg", "theta": 0.1, "max_iters": 10})");
    EXPECT_THROW(config::parse_factory(cg_with_theta, exec), BadParameter);
    // Typo inside a preconditioner block is caught too.
    auto precond_typo = Json::parse(R"({
        "type": "solver::Cg", "max_iters": 10,
        "preconditioner": {"type": "amg", "cycless": 2}
    })");
    EXPECT_THROW(config::parse_factory(precond_typo, exec), BadParameter);
    // Valid solver-specific keys keep working.
    auto gmres = Json::parse(
        R"({"type": "solver::Gmres", "krylov_dim": 20, "max_iters": 10})");
    EXPECT_NO_THROW(config::parse_factory(gmres, exec));
}

TEST(AmgConfig, DispatchesAcrossValueAndIndexTypes)
{
    auto exec = ReferenceExecutor::create();
    auto data = matgen::stencil_2d_5pt(16, 16).cast<float, int64>();
    auto a = Csr<float, int64>::create_from_data(exec, data);
    auto config = Json::parse(R"({
        "type": "amg",
        "value_type": "float32",
        "index_type": "int64",
        "max_iters": 60,
        "reduction_factor": 1e-4
    })");
    auto solver = config::config_solver(config, exec, std::move(a));
    auto* amg =
        dynamic_cast<multigrid::AmgSolver<float, int64>*>(solver.get());
    ASSERT_NE(amg, nullptr) << "config must dispatch to the float32/int64 "
                               "instantiation";
    auto b = Dense<float>::create_filled(exec, dim2{16 * 16, 1}, 1.0f);
    auto x = Dense<float>::create_filled(exec, dim2{16 * 16, 1}, 0.0f);
    solver->apply(b.get(), x.get());
    EXPECT_TRUE(amg->get_logger()->has_converged());
}


// --- observability ----------------------------------------------------------

TEST(AmgObservability, SetupEmitsSpanAndAttributedKernels)
{
    auto exec = ReferenceExecutor::create();
    auto rec = whole_run_recorder();
    exec->add_logger(rec);
    auto a = poisson_2d(exec, 32, 32);
    multigrid::Hierarchy<double, int32> h{exec, multigrid::amg_parameters{},
                                          a};
    exec->remove_logger(rec.get());
    ASSERT_EQ(rec->dropped(), 0u);

    // Setup runs under a single "amg.setup" span...
    int setup_begin = 0, setup_end = 0;
    for (const auto& [is_begin, name] : spans_of(*rec)) {
        if (name == "amg.setup") {
            (is_begin ? setup_begin : setup_end) += 1;
        }
    }
    EXPECT_EQ(setup_begin, 1);
    EXPECT_EQ(setup_end, 1);
    // ...and charges its aggregation and Galerkin kernels to the recorder.
    std::map<std::string, int> op_count;
    std::map<std::string, double> op_flops;
    for (const auto& r : test::records_of(
             *rec, log::FlightRecorder::event_kind::operation)) {
        op_count[r.tag] += 1;
        op_flops[r.tag] += r.b;
    }
    EXPECT_GE(op_count["amg_aggregate"], static_cast<int>(h.num_levels()) - 1);
    EXPECT_GT(op_count["spgemm"], 0);
    EXPECT_GT(op_flops["amg_aggregate"], 0.0);
    EXPECT_GT(op_flops["spgemm"], 0.0);
}

TEST(AmgObservability, GenerateSolverNestsTheReadAndTheSetup)
{
    // config.generate wraps the whole of generate_solver; the system read
    // and then the AMG setup open directly inside it, one after the other.
    using kind = log::FlightRecorder::event_kind;
    auto exec = OmpExecutor::create(4);
    auto rec = whole_run_recorder();
    exec->add_logger(rec);
    auto config = Json::parse(R"({
        "type": "solver::Cg", "max_iters": 50,
        "preconditioner": {"type": "preconditioner::Amg"}})");
    auto solver = config::generate_solver(config, exec,
                                          matgen::stencil_2d_5pt(24, 24));
    exec->remove_logger(rec.get());
    ASSERT_EQ(rec->dropped(), 0u);

    std::vector<std::string> stack;
    std::vector<std::string> inside_generate;
    std::map<std::string, int> pairs;
    for (const auto& r : rec->snapshot()) {
        const std::string tag = r.tag;
        if (r.kind == kind::span_begin) {
            if (tag == "config.generate") {
                EXPECT_TRUE(stack.empty());
            } else {
                ASSERT_FALSE(stack.empty()) << tag << " outside generate";
            }
            if (stack.size() == 1) {
                inside_generate.push_back(tag);
            }
            stack.push_back(tag);
        } else if (r.kind == kind::span_end) {
            ASSERT_FALSE(stack.empty()) << "unmatched end of " << tag;
            ASSERT_EQ(stack.back(), tag) << "closed out of order";
            stack.pop_back();
            pairs[tag] += 1;
        } else if (r.kind == kind::operation) {
            EXPECT_FALSE(stack.empty()) << tag << " outside generate";
        }
    }
    EXPECT_TRUE(stack.empty());
    EXPECT_EQ(pairs["config.generate"], 1);
    EXPECT_EQ(pairs["config.generate.read"], 1);
    EXPECT_EQ(pairs["amg.setup"], 1);
    EXPECT_EQ(inside_generate,
              (std::vector<std::string>{"config.generate.read", "amg.setup"}));
}

TEST(AmgObservability, SetupPhaseSpansAreWellNestedInsideSetup)
{
    using kind = log::FlightRecorder::event_kind;
    struct problem {
        const char* name;
        matgen::data64 data;
        double theta;
    };
    // A 2-D Poisson problem that coarsens to min_coarse_rows, and a 27-point
    // one whose first aggregation stalls at the default theta.
    const problem problems[] = {
        {"5-point 32^2", matgen::stencil_2d_5pt(32, 32), 0.08},
        {"27-point 8^3", matgen::stencil_3d_27pt(8, 8, 8), 0.08}};
    const std::string phases[] = {
        "amg.setup.aggregate", "amg.setup.prolongation",
        "amg.setup.galerkin", "amg.setup.coarse_solver"};
    for (const auto& p : problems) {
        SCOPED_TRACE(p.name);
        auto exec = ReferenceExecutor::create();
        auto a = make_matrix(exec, p.data);
        auto rec = whole_run_recorder();
        exec->add_logger(rec);
        multigrid::amg_parameters params;
        params.theta = p.theta;
        multigrid::Hierarchy<double, int32> h{exec, params, a};
        exec->remove_logger(rec.get());
        ASSERT_EQ(rec->dropped(), 0u);

        // Replay spans and kernels in emission order: every phase opens
        // directly inside amg.setup and closes before the next one opens,
        // aggregation runs in its phase and every product in prolongation
        // or galerkin.
        std::vector<std::string> stack;
        std::map<std::string, int> pairs;
        for (const auto& r : rec->snapshot()) {
            const std::string tag = r.tag;
            if (r.kind == kind::span_begin) {
                if (tag.rfind("amg.setup.", 0) == 0) {
                    ASSERT_FALSE(stack.empty());
                    EXPECT_EQ(stack.back(), "amg.setup") << tag;
                }
                stack.push_back(tag);
            } else if (r.kind == kind::span_end) {
                ASSERT_FALSE(stack.empty()) << "unmatched end of " << tag;
                ASSERT_EQ(stack.back(), tag) << "closed out of order";
                stack.pop_back();
                pairs[tag] += 1;
            } else if (r.kind == kind::operation) {
                ASSERT_FALSE(stack.empty()) << tag << " outside amg.setup";
                if (tag == "amg_aggregate") {
                    EXPECT_EQ(stack.back(), "amg.setup.aggregate");
                } else if (tag == "spgemm") {
                    EXPECT_TRUE(stack.back() == "amg.setup.prolongation" ||
                                stack.back() == "amg.setup.galerkin")
                        << stack.back();
                }
            }
        }
        EXPECT_TRUE(stack.empty());
        EXPECT_EQ(pairs["amg.setup"], 1);
        const auto coarsened = static_cast<int>(h.num_levels()) - 1;
        const bool stalled = h.num_levels() == 1;
        EXPECT_EQ(stalled, std::string{p.name} == "27-point 8^3");
        EXPECT_EQ(pairs[phases[0]], coarsened + (stalled ? 1 : 0));
        EXPECT_EQ(pairs[phases[1]], coarsened);
        EXPECT_EQ(pairs[phases[2]], coarsened);
        EXPECT_EQ(pairs[phases[3]], 1);
    }
}

TEST(AmgObservability, CycleSpansAreWellNestedPerLevel)
{
    auto exec = ReferenceExecutor::create();
    auto a = poisson_2d(exec, 32, 32);
    auto solver = multigrid::AmgSolver<double, int32>::build()
                      .with_criteria(stop::iteration(3))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto* amg =
        dynamic_cast<multigrid::AmgSolver<double, int32>*>(solver.get());
    ASSERT_NE(amg, nullptr);
    const auto num_levels = amg->get_hierarchy().num_levels();
    ASSERT_GE(num_levels, 2u);

    auto rec = whole_run_recorder();
    exec->add_logger(rec);
    auto b = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 1.0);
    auto x = Vec::create_filled(exec, dim2{a->get_size().rows, 1}, 0.0);
    solver->apply(b.get(), x.get());
    exec->remove_logger(rec.get());
    ASSERT_EQ(rec->dropped(), 0u);

    // Replay the span stream against a stack: every end must close the
    // innermost open span, and the stream must end balanced.
    std::vector<std::string> stack;
    std::map<std::string, int> seen;
    size_type max_cycle_depth = 0;
    for (const auto& [is_begin, name] : spans_of(*rec)) {
        if (is_begin) {
            stack.push_back(name);
            seen[name] += 1;
            if (name.rfind("amg.cycle.level", 0) == 0) {
                size_type depth = 0;
                for (const auto& open : stack) {
                    depth += open.rfind("amg.cycle.level", 0) == 0 ? 1 : 0;
                }
                max_cycle_depth = std::max(max_cycle_depth, depth);
            }
        } else {
            ASSERT_FALSE(stack.empty())
                << "span end '" << name << "' without a matching begin";
            ASSERT_EQ(stack.back(), name)
                << "span '" << name << "' closed out of order";
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span '" << stack.back() << "'";
    // Every level's span fired, and the V shape nests level k inside k-1.
    for (size_type k = 0; k < num_levels; ++k) {
        EXPECT_GT(seen["amg.cycle.level" + std::to_string(k)], 0)
            << "level " << k << " span missing";
    }
    EXPECT_EQ(max_cycle_depth, num_levels);
    EXPECT_GT(seen["solver.amg.apply"], 0);
    EXPECT_GT(seen["solver.amg.iteration"], 0);
}


}  // namespace
}  // namespace mgko
