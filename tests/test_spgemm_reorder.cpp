// SpGEMM (sparse matrix-matrix product) and the reorder:: transforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "bindings/api.hpp"
#include "log/work_model.hpp"
#include "matgen/matgen.hpp"
#include "matrix/dense.hpp"
#include "matrix/spgemm.hpp"
#include "reorder/reorder.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


TEST(Spgemm, MatchesDenseProductOnRandomMatrices)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 40;
    auto a = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(n, 4, 3));
    auto b = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(n, 4, 7));
    auto c = spgemm(a.get(), b.get());

    auto ad = Dense<double>::create(exec, dim2{n, n});
    auto bd = Dense<double>::create(exec, dim2{n, n});
    a->convert_to(ad.get());
    b->convert_to(bd.get());
    auto expected = Dense<double>::create(exec, dim2{n, n});
    ad->apply(bd.get(), expected.get());
    auto cd = Dense<double>::create(exec, dim2{n, n});
    c->convert_to(cd.get());
    for (size_type i = 0; i < n; ++i) {
        for (size_type j = 0; j < n; ++j) {
            EXPECT_NEAR(cd->at(i, j), expected->at(i, j), 1e-11)
                << i << "," << j;
        }
    }
}

TEST(Spgemm, IdentityIsNeutral)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 25;
    auto a = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(n, 3, 5));
    auto id = Csr<double, int32>::create_from_data(
        exec, matrix_data<double, int32>::diag(
                  std::vector<double>(static_cast<std::size_t>(n), 1.0)));
    auto left = spgemm(id.get(), a.get());
    auto right = spgemm(a.get(), id.get());
    EXPECT_EQ(left->to_data().entries, a->to_data().entries);
    EXPECT_EQ(right->to_data().entries, a->to_data().entries);
}

TEST(Spgemm, RectangularShapesAndValidation)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> a_data{dim2{2, 3}};
    a_data.add(0, 0, 1.0);
    a_data.add(0, 2, 2.0);
    a_data.add(1, 1, 3.0);
    matrix_data<double, int32> b_data{dim2{3, 2}};
    b_data.add(0, 1, 4.0);
    b_data.add(1, 0, 5.0);
    b_data.add(2, 1, 6.0);
    auto a = Csr<double, int32>::create_from_data(exec, a_data);
    auto b = Csr<double, int32>::create_from_data(exec, b_data);
    auto c = spgemm(a.get(), b.get());
    EXPECT_EQ(c->get_size(), (dim2{2, 2}));
    auto cd = Dense<double>::create(exec, dim2{2, 2});
    c->convert_to(cd.get());
    EXPECT_DOUBLE_EQ(cd->at(0, 1), 1.0 * 4.0 + 2.0 * 6.0);
    EXPECT_DOUBLE_EQ(cd->at(1, 0), 3.0 * 5.0);
    // Mismatched inner dimensions throw.
    EXPECT_THROW(spgemm(a.get(), a.get()), DimensionMismatch);
}

TEST(Spgemm, SquaringTheLaplacianWidensTheStencil)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 30;
    auto a = Csr<double, int32>::create_from_data(
        exec, test::laplacian_1d<double, int32>(n));
    auto a2 = spgemm(a.get(), a.get());
    // Tridiagonal squared is pentadiagonal: interior rows have 5 entries.
    EXPECT_EQ(reorder::bandwidth(a2.get()), 2);
    EXPECT_GT(a2->get_num_stored_elements(),
              a->get_num_stored_elements());
}


TEST(Permutation, SymmetricPermuteRelabelsIndices)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{3, 3}};
    data.add(0, 0, 1.0);
    data.add(0, 2, 2.0);
    data.add(2, 1, 3.0);
    auto a = Csr<double, int32>::create_from_data(exec, data);
    // perm[new] = old: reverse order.
    auto p = permute_symmetric(a.get(), std::vector<int32>{2, 1, 0});
    auto pd = p->to_data();
    // (0,0,1) -> (2,2); (0,2,2) -> (2,0); (2,1,3) -> (0,1)
    auto dense = Dense<double>::create(exec, dim2{3, 3});
    p->convert_to(dense.get());
    EXPECT_DOUBLE_EQ(dense->at(2, 2), 1.0);
    EXPECT_DOUBLE_EQ(dense->at(2, 0), 2.0);
    EXPECT_DOUBLE_EQ(dense->at(0, 1), 3.0);
    EXPECT_THROW(permute_symmetric(a.get(), std::vector<int32>{0, 1}),
                 BadParameter);
}

TEST(Permutation, PreservesSpectrumActionOnVectors)
{
    // (P A Pᵀ) (P x) == P (A x): permuting system and vector commutes.
    auto exec = ReferenceExecutor::create();
    const size_type n = 24;
    auto a = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(n, 4, 11));
    std::vector<int32> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 engine{5};
    std::shuffle(perm.begin(), perm.end(), engine);
    auto pa = permute_symmetric(a.get(), perm);

    auto x = test::random_vector<double>(exec, n, 9);
    auto ax = Dense<double>::create(exec, dim2{n, 1});
    a->apply(x.get(), ax.get());

    auto px = Dense<double>::create(exec, dim2{n, 1});
    for (size_type i = 0; i < n; ++i) {
        px->at(i, 0) = x->at(
            static_cast<size_type>(perm[static_cast<std::size_t>(i)]), 0);
    }
    auto papx = Dense<double>::create(exec, dim2{n, 1});
    pa->apply(px.get(), papx.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(
            papx->at(i, 0),
            ax->at(static_cast<size_type>(perm[static_cast<std::size_t>(i)]),
                   0),
            1e-12);
    }
}


TEST(Rcm, ReducesBandwidthOfShuffledBandedMatrix)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 200;
    // Start from a banded matrix, destroy the ordering, then recover it.
    auto banded = Csr<double, int32>::create_from_data(
        exec, matgen::banded(n, 3).cast<double, int32>());
    std::vector<int32> shuffle_perm(static_cast<std::size_t>(n));
    std::iota(shuffle_perm.begin(), shuffle_perm.end(), 0);
    std::mt19937_64 engine{17};
    std::shuffle(shuffle_perm.begin(), shuffle_perm.end(), engine);
    auto shuffled = permute_symmetric(banded.get(), shuffle_perm);
    const auto before = reorder::bandwidth(shuffled.get());

    auto rcm = reorder::rcm_ordering(shuffled.get());
    auto restored = permute_symmetric(shuffled.get(), rcm);
    const auto after = reorder::bandwidth(restored.get());
    EXPECT_LT(after, before / 4);
}

TEST(Rcm, OrderingIsAPermutation)
{
    auto exec = ReferenceExecutor::create();
    auto a = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(60, 4, 23));
    auto order = reorder::rcm_ordering(a.get());
    std::vector<bool> seen(60, false);
    for (const auto v : order) {
        ASSERT_GE(v, 0);
        ASSERT_LT(v, 60);
        EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
        seen[static_cast<std::size_t>(v)] = true;
    }
    EXPECT_EQ(order.size(), 60u);
}

TEST(Spgemm, ThroughBindingLayerMatmul)
{
    auto dev = bind::device("cuda");
    const size_type n = 30;
    const auto data = test::random_sparse<double, int64>(n, 3, 41)
                          .cast<double, int64>();
    auto a = bind::matrix_from_data(dev, data, "double", "Csr");
    auto c = a.matmul(a);
    EXPECT_EQ(c.shape(), (dim2{n, n}));
    EXPECT_GE(c.nnz(), a.nnz());
    // (A @ A) x == A (A x)
    auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    auto lhs = c.spmv(x);
    auto rhs = a.spmv(a.spmv(x));
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(lhs.item(i), rhs.item(i),
                    1e-10 * (1.0 + std::abs(rhs.item(i))));
    }
    // Format guard: COO operands are rejected with a clear message.
    auto coo = a.to_format("Coo");
    EXPECT_THROW(coo.matmul(a), BadParameter);
}

TEST(Rcm, HandlesDisconnectedComponents)
{
    auto exec = ReferenceExecutor::create();
    // Two disjoint 2-cliques + an isolated vertex.
    matrix_data<double, int32> data{dim2{5, 5}};
    data.add(0, 1, 1.0);
    data.add(1, 0, 1.0);
    data.add(2, 3, 1.0);
    data.add(3, 2, 1.0);
    for (int i = 0; i < 5; ++i) {
        data.add(i, i, 2.0);
    }
    auto a = Csr<double, int32>::create_from_data(exec, data);
    auto order = reorder::rcm_ordering(a.get());
    EXPECT_EQ(order.size(), 5u);
}

TEST(Reorder, DegreeOrderingSortsRowsByDescendingLength)
{
    auto exec = ReferenceExecutor::create();
    // Row lengths: 1, 3, 2, 1 — stable sort keeps row 0 before row 3.
    matrix_data<double, int32> data{dim2{4, 4}};
    data.add(0, 0, 1.0);
    data.add(1, 0, 1.0);
    data.add(1, 1, 1.0);
    data.add(1, 3, 1.0);
    data.add(2, 1, 1.0);
    data.add(2, 2, 1.0);
    data.add(3, 3, 1.0);
    auto a = Csr<double, int32>::create_from_data(exec, data);
    auto order = reorder::degree_ordering(a.get());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 0);
    EXPECT_EQ(order[3], 3);
}

TEST(Reorder, PermutationRowTransformsRoundTrip)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 17;
    auto a = Csr<double, int32>::create_from_data(
        exec, test::random_sparse<double, int32>(n, 3, 21));
    reorder::Permutation<int32> perm{reorder::rcm_ordering(a.get())};

    auto v = Dense<double>::create(exec, dim2{n, 2});
    for (size_type i = 0; i < n; ++i) {
        v->at(i, 0) = static_cast<double>(i);
        v->at(i, 1) = static_cast<double>(2 * i + 1);
    }
    auto forward = Dense<double>::create(exec, dim2{n, 2});
    auto back = Dense<double>::create(exec, dim2{n, 2});
    perm.permute_rows(v.get(), forward.get());
    perm.inverse_permute_rows(forward.get(), back.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_EQ(back->at(i, 0), v->at(i, 0));
        EXPECT_EQ(back->at(i, 1), v->at(i, 1));
        // Forward places the old row perm[i] at new position i.
        EXPECT_EQ(forward->at(i, 0),
                  static_cast<double>(perm.get_order()[i]));
    }
}

TEST(Reorder, ReorderedLinOpSolvesInOriginalIndexSpace)
{
    auto exec = ReferenceExecutor::create();
    const size_type n = 100;
    std::shared_ptr<Csr<double, int32>> a =
        Csr<double, int32>::create_from_data(
            exec, matgen::stencil_2d_5pt(10, 10).cast<double, int32>());
    auto b = Dense<double>::create(exec, dim2{n, 1});
    for (size_type i = 0; i < n; ++i) {
        b->at(i) = 1.0 + 0.01 * static_cast<double>(i);
    }

    auto make_cg = [&](std::shared_ptr<const LinOp> system) {
        return solver::Cg<double>::build()
            .with_criteria(stop::iteration(500))
            .with_criteria(stop::residual_norm(1e-12))
            .on(exec)
            ->generate(std::move(system));
    };
    auto x_plain = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    make_cg(a)->apply(b.get(), x_plain.get());

    auto perm = reorder::make_permutation(reorder::strategy::rcm, a.get());
    std::shared_ptr<Csr<double, int32>> permuted = perm.permute(a.get());
    auto reordered = reorder::ReorderedLinOp<double, int32>::create(
        std::shared_ptr<LinOp>{make_cg(permuted)}, std::move(perm));

    auto x_reordered = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    reordered->apply(b.get(), x_reordered.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(x_reordered->at(i), x_plain->at(i), 1e-8) << "row " << i;
    }
}

TEST(Reorder, StrategyParsingAcceptsKnownNamesAndRejectsOthers)
{
    EXPECT_EQ(reorder::strategy_from_string("rcm"),
              reorder::strategy::rcm);
    EXPECT_EQ(reorder::strategy_from_string("RCM"),
              reorder::strategy::rcm);
    EXPECT_EQ(reorder::strategy_from_string("degree"),
              reorder::strategy::degree);
    EXPECT_EQ(reorder::strategy_from_string("none"),
              reorder::strategy::none);
    EXPECT_THROW(reorder::strategy_from_string("amd"), BadParameter);
}

// --- spgemm against the serial Gustavson loop ---------------------------------

/// Random rows x cols operand: ~`per_row` entries per row in [-1, 1], every
/// fifth row empty, some stored zeros.  With `reversed`, every row is
/// stored in descending column order.
template <typename V, typename I>
std::unique_ptr<Csr<V, I>> random_operand(std::shared_ptr<const Executor> exec,
                                          size_type rows, size_type cols,
                                          size_type per_row,
                                          std::uint64_t seed, bool reversed)
{
    std::mt19937_64 engine{seed};
    std::uniform_real_distribution<double> value{-1.0, 1.0};
    matrix_data<V, I> data{dim2{rows, cols}};
    for (size_type r = 0; cols > 0 && r < rows; ++r) {
        if (r % 5 == 3) {
            continue;
        }
        std::uniform_int_distribution<size_type> col{0, cols - 1};
        for (size_type k = 0; k < per_row; ++k) {
            const double v = k % 7 == 6 ? 0.0 : value(engine);
            data.add(static_cast<I>(r), static_cast<I>(col(engine)),
                     static_cast<V>(v));
        }
    }
    auto m = Csr<V, I>::create_from_data(exec, data);
    if (reversed) {
        auto* ptrs = m->get_row_ptrs();
        for (size_type r = 0; r < rows; ++r) {
            std::reverse(m->get_col_idxs() + ptrs[r],
                         m->get_col_idxs() + ptrs[r + 1]);
            std::reverse(m->get_values() + ptrs[r],
                         m->get_values() + ptrs[r + 1]);
        }
    }
    return m;
}

std::vector<std::shared_ptr<Executor>> spgemm_executors()
{
    return {ReferenceExecutor::create(), OmpExecutor::create(1),
            OmpExecutor::create(4), CudaExecutor::create(),
            HipExecutor::create()};
}

template <typename Tuple>
class SpgemmTyped : public ::testing::Test {
public:
    using value_type = typename std::tuple_element<0, Tuple>::type;
    using index_type = typename std::tuple_element<1, Tuple>::type;
};

using SpgemmTypes =
    ::testing::Types<std::tuple<half, int32>, std::tuple<half, int64>,
                     std::tuple<float, int32>, std::tuple<float, int64>,
                     std::tuple<double, int32>, std::tuple<double, int64>>;
TYPED_TEST_SUITE(SpgemmTyped, SpgemmTypes);

TYPED_TEST(SpgemmTyped, EqualsSerialGustavsonBitwiseOnEveryExecutor)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    struct shape {
        size_type m, k, n, per_row;
    };
    // Square, rectangular both ways, and 0-row / 0-inner / 0-column shapes.
    const shape shapes[] = {{60, 60, 60, 9}, {37, 23, 71, 6},
                            {90, 140, 12, 12}, {0, 5, 7, 3},
                            {6, 0, 4, 3},     {5, 7, 0, 3}};
    for (const auto& exec : spgemm_executors()) {
        std::uint64_t seed = 1;
        for (const auto& s : shapes) {
            for (const bool reversed : {false, true}) {
                auto a = random_operand<V, I>(exec, s.m, s.k, s.per_row,
                                              seed++, reversed);
                auto b = random_operand<V, I>(exec, s.k, s.n, s.per_row,
                                              seed++, false);
                SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n) +
                             (reversed ? " reversed" : ""));
                auto c = spgemm(a.get(), b.get());
                ASSERT_EQ(c->get_size(), (dim2{s.m, s.n}));
                test::expect_same_csr(
                    c.get(), test::serial_gustavson(a.get(), b.get()).get());
            }
        }
    }
}

TYPED_TEST(SpgemmTyped, ProductsThatCancelStayStoredAsZeros)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    // Row 0 of a * b is 0.5 * (b row 0 - b row 1) = 0 at columns 1 and 3,
    // and 0.5 at column 2; row 1 of a is empty.
    matrix_data<V, I> a_data{dim2{2, 2}};
    a_data.add(0, 0, static_cast<V>(0.5));
    a_data.add(0, 1, static_cast<V>(-0.5));
    matrix_data<V, I> b_data{dim2{2, 4}};
    b_data.add(0, 1, static_cast<V>(0.25));
    b_data.add(0, 3, static_cast<V>(-1.0));
    b_data.add(1, 1, static_cast<V>(0.25));
    b_data.add(1, 2, static_cast<V>(-1.0));
    b_data.add(1, 3, static_cast<V>(-1.0));
    for (const auto& exec : spgemm_executors()) {
        auto a = Csr<V, I>::create_from_data(exec, a_data);
        auto b = Csr<V, I>::create_from_data(exec, b_data);
        auto c = spgemm(a.get(), b.get());
        ASSERT_EQ(c->get_num_stored_elements(), 3);
        test::expect_same_csr(c.get(),
                              test::serial_gustavson(a.get(), b.get()).get());
        EXPECT_EQ(to_float(c->get_const_values()[0]), 0.0);
        EXPECT_EQ(to_float(c->get_const_values()[1]), 0.5);
        EXPECT_EQ(to_float(c->get_const_values()[2]), 0.0);
    }
}

TEST(Spgemm, OneLaunchAndTheModeledTickPerCall)
{
    for (const auto& exec : spgemm_executors()) {
        auto a = random_operand<double, int32>(exec, 80, 50, 7, 5, true);
        auto b = random_operand<double, int32>(exec, 50, 90, 7, 6, false);
        double products = 0.0;
        const auto* a_ptrs = a->get_const_row_ptrs();
        const auto* a_cols = a->get_const_col_idxs();
        const auto* b_ptrs = b->get_const_row_ptrs();
        for (size_type k = 0; k < a->get_num_stored_elements(); ++k) {
            products += b_ptrs[a_cols[k] + 1] - b_ptrs[a_cols[k]];
        }
        ASSERT_GT(a_ptrs[80], 0);

        const auto launches = exec->num_kernel_launches();
        const auto ns = exec->clock().now_ns();
        auto c = spgemm(a.get(), b.get());
        EXPECT_EQ(exec->num_kernel_launches() - launches, 1);

        // The clock advances by the launch latency plus the kernel's
        // stream profile over the operands' and the product's entries.
        const auto work = log::spgemm_work(
            a->get_num_stored_elements(), b->get_num_stored_elements(),
            c->get_num_stored_elements(), products, sizeof(double),
            sizeof(int32));
        const auto& model = exec->model();
        const auto kernel_ns =
            sim::profile_stream(work.bytes, work.flops, 0.5).time_ns(model);
        const auto expected =
            static_cast<std::int64_t>(kernel_ns) +
            static_cast<std::int64_t>(model.launch_latency_ns);
        EXPECT_EQ(exec->clock().now_ns() - ns, expected);
    }
}

TEST(Csr, CreateWithRowCountsRefusesCountsBeyondTheIndexRange)
{
    auto exec = ReferenceExecutor::create();
    auto m = Csr<double, int32>::create_with_row_counts(exec, dim2{3, 4},
                                                        {2, 0, 3});
    EXPECT_EQ(m->get_num_stored_elements(), 5);
    const auto* ptrs = m->get_const_row_ptrs();
    EXPECT_EQ(std::vector<int32>(ptrs, ptrs + 4),
              (std::vector<int32>{0, 2, 2, 5}));

    // One entry past int32's range is refused before the arrays exist.
    const auto max32 = static_cast<size_type>(
        std::numeric_limits<int32>::max());
    const auto before = exec->num_allocations();
    try {
        Csr<double, int32>::create_with_row_counts(exec, dim2{2, 4},
                                                   {max32, 1});
        FAIL() << "an entry count beyond int32 was accepted";
    } catch (const BadParameter& e) {
        EXPECT_NE(std::string{e.what()}.find("2147483648"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(exec->num_allocations(), before);
    EXPECT_THROW((Csr<float, int32>::create_with_row_counts(
                     exec, dim2{3, 4}, {max32 / 2, max32 / 2, 2})),
                 BadParameter);
}

}  // namespace
