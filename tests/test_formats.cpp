// Correctness tests for the matrix formats (Dense, Csr, Coo, Ell):
// construction, SpMV against a dense reference, conversions, transposes —
// swept across all executors and value/index type combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mtx_io.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/ell.hpp"
#include "matrix/hybrid.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


// --- Dense ----------------------------------------------------------------

class DenseOps : public ::testing::TestWithParam<int> {
protected:
    std::shared_ptr<Executor> exec_ =
        test::all_executors()[static_cast<std::size_t>(GetParam())];
};

TEST_P(DenseOps, FillScaleAddScaled)
{
    auto x = Dense<double>::create_filled(exec_, dim2{5, 1}, 2.0);
    auto y = Dense<double>::create_filled(exec_, dim2{5, 1}, 3.0);
    auto alpha = Dense<double>::create_scalar(exec_, 0.5);
    x->add_scaled(alpha.get(), y.get());  // 2 + 0.5*3 = 3.5
    for (size_type i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(x->at(i, 0), 3.5);
    }
    x->scale(alpha.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 1.75);
    x->sub_scaled(alpha.get(), y.get());  // 1.75 - 1.5 = 0.25
    EXPECT_DOUBLE_EQ(x->at(4, 0), 0.25);
}

TEST_P(DenseOps, DotAndNorm)
{
    auto x = Dense<double>::create_filled(exec_, dim2{4, 1}, 2.0);
    auto y = Dense<double>::create_filled(exec_, dim2{4, 1}, -1.5);
    EXPECT_DOUBLE_EQ(x->dot_scalar(y.get()), -12.0);
    EXPECT_DOUBLE_EQ(x->norm2_scalar(), 4.0);
}

TEST_P(DenseOps, GemmMatchesHandComputation)
{
    // [1 2; 3 4] * [5; 6] = [17; 39]
    auto a = Dense<double>::create(exec_, dim2{2, 2});
    a->at(0, 0) = 1;
    a->at(0, 1) = 2;
    a->at(1, 0) = 3;
    a->at(1, 1) = 4;
    auto b = Dense<double>::create(exec_, dim2{2, 1});
    b->at(0, 0) = 5;
    b->at(1, 0) = 6;
    auto x = Dense<double>::create(exec_, dim2{2, 1});
    a->apply(b.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 17.0);
    EXPECT_DOUBLE_EQ(x->at(1, 0), 39.0);

    // advanced: x = 2*A*b + (-1)*x = [34-17; 78-39]
    auto alpha = Dense<double>::create_scalar(exec_, 2.0);
    auto beta = Dense<double>::create_scalar(exec_, -1.0);
    a->apply(alpha.get(), b.get(), beta.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 17.0);
    EXPECT_DOUBLE_EQ(x->at(1, 0), 39.0);
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, DenseOps, ::testing::Range(0, 4),
                         [](const auto& info) {
                             return test::all_executor_names()
                                 [static_cast<std::size_t>(info.param)];
                         });


TEST(Dense, ColumnAndRowBlockViewsShareMemory)
{
    auto exec = ReferenceExecutor::create();
    auto m = Dense<double>::create(exec, dim2{3, 2});
    for (size_type r = 0; r < 3; ++r) {
        for (size_type c = 0; c < 2; ++c) {
            m->at(r, c) = static_cast<double>(10 * r + c);
        }
    }
    auto col1 = m->column_view(1);
    EXPECT_EQ(col1->get_size(), (dim2{3, 1}));
    EXPECT_DOUBLE_EQ(col1->at(2, 0), 21.0);
    col1->at(0, 0) = -1.0;
    EXPECT_DOUBLE_EQ(m->at(0, 1), -1.0);

    auto rows12 = m->row_block_view(1, 3);
    EXPECT_EQ(rows12->get_size(), (dim2{2, 2}));
    EXPECT_DOUBLE_EQ(rows12->at(0, 0), 10.0);
}

TEST(Dense, TransposeAndClone)
{
    auto exec = ReferenceExecutor::create();
    auto m = Dense<float>::create(exec, dim2{2, 3});
    m->fill(0.0f);
    m->at(0, 2) = 5.0f;
    auto t = m->transpose();
    EXPECT_EQ(t->get_size(), (dim2{3, 2}));
    EXPECT_EQ(t->at(2, 0), 5.0f);

    auto dev = CudaExecutor::create();
    auto on_dev = m->clone_to(dev);
    EXPECT_EQ(on_dev->get_executor().get(), dev.get());
    EXPECT_EQ(on_dev->at(0, 2), 5.0f);
}

TEST(Dense, ViewWrapsExternalBuffer)
{
    auto exec = ReferenceExecutor::create();
    double buffer[6] = {1, 2, 3, 4, 5, 6};
    auto view = Dense<double>::create_view(exec, dim2{2, 3}, buffer);
    EXPECT_DOUBLE_EQ(view->at(1, 2), 6.0);
    view->at(0, 0) = 9.0;
    EXPECT_DOUBLE_EQ(buffer[0], 9.0);
}

// fill/scale/add_scaled/sub_scaled run one flat loop over contiguous
// operands with a 1x1 alpha; strided views and per-column alpha must keep
// walking rows and columns.
class DenseLoopShapes : public ::testing::TestWithParam<int> {
protected:
    std::shared_ptr<Executor> exec_ = OmpExecutor::create(GetParam());

    /// rows x 3 block with m(r, c) = r + 100 c.
    std::unique_ptr<Dense<double>> numbered(size_type rows)
    {
        auto m = Dense<double>::create(exec_, dim2{rows, 3});
        for (size_type r = 0; r < rows; ++r) {
            for (size_type c = 0; c < 3; ++c) {
                m->at(r, c) = static_cast<double>(r + 100 * c);
            }
        }
        return m;
    }
};

TEST_P(DenseLoopShapes, ColumnViewUpdatesLeaveOtherColumnsUntouched)
{
    const size_type n = 1000;
    auto m = numbered(n);
    auto other = numbered(n);
    auto contiguous = Dense<double>::create_filled(exec_, dim2{n, 1}, 4.0);
    auto half = Dense<double>::create_scalar(exec_, 0.5);
    auto two = Dense<double>::create_scalar(exec_, 2.0);
    auto col = m->column_view(1);

    col->fill(3.0);
    col->scale(two.get());                          // 6
    col->add_scaled(half.get(), contiguous.get());  // 6 + 2 = 8
    // 8 - 2 * other(r, 2), with both operands strided
    col->sub_scaled(two.get(), other->column_view(2).get());
    for (size_type r = 0; r < n; ++r) {
        EXPECT_EQ(m->at(r, 0), static_cast<double>(r)) << r;
        EXPECT_EQ(m->at(r, 1), 8.0 - 2.0 * static_cast<double>(r + 200))
            << r;
        EXPECT_EQ(m->at(r, 2), static_cast<double>(r + 200)) << r;
    }
}

TEST_P(DenseLoopShapes, PerColumnAlphaScalesEachColumnByItsOwnFactor)
{
    const size_type n = 1000;
    auto m = numbered(n);
    auto b = numbered(n);
    auto alpha = Dense<double>::create(exec_, dim2{1, 3});
    alpha->at(0, 0) = 2.0;
    alpha->at(0, 1) = -1.0;
    alpha->at(0, 2) = 0.5;

    m->scale(alpha.get());                // m = a_c v
    m->add_scaled(alpha.get(), b.get());  // m = 2 a_c v
    m->sub_scaled(alpha.get(), b.get());  // m = a_c v
    m->add_scaled(alpha.get(), b.get());  // m = 2 a_c v
    for (size_type r = 0; r < n; ++r) {
        for (size_type c = 0; c < 3; ++c) {
            EXPECT_EQ(m->at(r, c), 2.0 * alpha->at(0, c) *
                                       static_cast<double>(r + 100 * c))
                << r << ", " << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(OneAndFourThreads, DenseLoopShapes,
                         ::testing::Values(1, 4));

TEST(Dense, ApplyValidatesDimensions)
{
    auto exec = ReferenceExecutor::create();
    auto a = Dense<double>::create(exec, dim2{2, 3});
    auto b = Dense<double>::create(exec, dim2{2, 1});  // wrong: needs 3 rows
    auto x = Dense<double>::create(exec, dim2{2, 1});
    EXPECT_THROW(a->apply(b.get(), x.get()), DimensionMismatch);
    auto b_ok = Dense<double>::create(exec, dim2{3, 1});
    auto x_bad = Dense<double>::create(exec, dim2{3, 1});
    EXPECT_THROW(a->apply(b_ok.get(), x_bad.get()), DimensionMismatch);
}


// --- Sparse formats: typed sweep over (value, index) ------------------------

template <typename Tuple>
class SparseFormats : public ::testing::Test {
public:
    using value_type = typename std::tuple_element<0, Tuple>::type;
    using index_type = typename std::tuple_element<1, Tuple>::type;
};

using ValueIndexCombos =
    ::testing::Types<std::tuple<half, int32>, std::tuple<half, int64>,
                     std::tuple<float, int32>, std::tuple<float, int64>,
                     std::tuple<double, int32>, std::tuple<double, int64>>;
TYPED_TEST_SUITE(SparseFormats, ValueIndexCombos);

TYPED_TEST(SparseFormats, CsrSpmvMatchesDenseReferenceOnAllExecutors)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    const size_type n = 64;
    const auto data = test::random_sparse<V, I>(n, 6);
    std::vector<double> xs(static_cast<std::size_t>(n));
    for (size_type i = 0; i < n; ++i) {
        xs[static_cast<std::size_t>(i)] = 0.01 * static_cast<double>(i % 17);
    }
    const auto expected = test::reference_spmv(data, xs);

    for (auto exec : test::all_executors()) {
        auto mat = Csr<V, I>::create_from_data(exec, data);
        auto b = Dense<V>::create(exec, dim2{n, 1});
        for (size_type i = 0; i < n; ++i) {
            b->at(i, 0) = static_cast<V>(xs[static_cast<std::size_t>(i)]);
        }
        auto x = Dense<V>::create(exec, dim2{n, 1});
        mat->apply(b.get(), x.get());
        for (size_type i = 0; i < n; ++i) {
            EXPECT_NEAR(to_float(x->at(i, 0)),
                        expected[static_cast<std::size_t>(i)],
                        test::tolerance<V>() *
                            (1.0 + std::abs(expected[static_cast<std::size_t>(
                                       i)])))
                << "row " << i << " on " << exec->name();
        }
    }
}

TYPED_TEST(SparseFormats, CooSpmvMatchesCsr)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    const size_type n = 80;
    const auto data = test::random_sparse<V, I>(n, 5, 99);
    for (auto exec : test::all_executors()) {
        auto csr = Csr<V, I>::create_from_data(exec, data);
        auto coo = Coo<V, I>::create_from_data(exec, data);
        auto b = test::random_vector<V>(exec, n);
        auto x1 = Dense<V>::create(exec, dim2{n, 1});
        auto x2 = Dense<V>::create(exec, dim2{n, 1});
        csr->apply(b.get(), x1.get());
        coo->apply(b.get(), x2.get());
        for (size_type i = 0; i < n; ++i) {
            EXPECT_NEAR(to_float(x1->at(i, 0)), to_float(x2->at(i, 0)),
                        test::tolerance<V>() * 4)
                << "row " << i << " on " << exec->name();
        }
    }
}

TYPED_TEST(SparseFormats, EllSpmvMatchesCsr)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    const size_type n = 48;
    const auto data = test::random_sparse<V, I>(n, 4, 55);
    for (auto exec : test::all_executors()) {
        auto csr = Csr<V, I>::create_from_data(exec, data);
        auto ell = Ell<V, I>::create_from_data(exec, data);
        auto b = test::random_vector<V>(exec, n);
        auto x1 = Dense<V>::create(exec, dim2{n, 1});
        auto x2 = Dense<V>::create(exec, dim2{n, 1});
        csr->apply(b.get(), x1.get());
        ell->apply(b.get(), x2.get());
        for (size_type i = 0; i < n; ++i) {
            EXPECT_NEAR(to_float(x1->at(i, 0)), to_float(x2->at(i, 0)),
                        test::tolerance<V>() * 4)
                << "row " << i << " on " << exec->name();
        }
    }
}

TYPED_TEST(SparseFormats, ConversionsRoundTrip)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    auto exec = ReferenceExecutor::create();
    auto data = test::random_sparse<V, I>(30, 4, 7);

    auto csr = Csr<V, I>::create_from_data(exec, data);
    auto coo = Coo<V, I>::create(exec);
    csr->convert_to(coo.get());
    auto csr2 = Csr<V, I>::create(exec);
    coo->convert_to(csr2.get());
    EXPECT_EQ(csr2->to_data().entries, csr->to_data().entries);

    auto ell = Ell<V, I>::create(exec);
    csr->convert_to(ell.get());
    auto csr3 = Csr<V, I>::create(exec);
    ell->convert_to(csr3.get());
    EXPECT_EQ(csr3->to_data().entries, csr->to_data().entries);
}


// --- Csr specifics ----------------------------------------------------------

TEST(Csr, ReadSortsAndMergesDuplicates)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{2, 2}};
    data.add(1, 0, 3.0);
    data.add(0, 1, 1.0);
    data.add(1, 0, 4.0);  // duplicate -> 7.0
    data.add(0, 0, 2.0);
    auto mat = Csr<double, int32>::create_from_data(exec, data);
    EXPECT_EQ(mat->get_num_stored_elements(), 3);
    EXPECT_TRUE(mat->is_sorted_by_column_index());
    const auto* rp = mat->get_const_row_ptrs();
    EXPECT_EQ(rp[0], 0);
    EXPECT_EQ(rp[1], 2);
    EXPECT_EQ(rp[2], 3);
    EXPECT_DOUBLE_EQ(mat->get_const_values()[2], 7.0);
}

/// The arrays Csr::read produced before its row-major fast path: a copy of
/// the entries, sort_row_major, sum_duplicates, then a fill.
template <typename V, typename I>
void expect_read_equals_copy_sort_and_sum(const matrix_data<V, I>& data)
{
    auto sorted = data;
    sorted.sort_row_major();
    sorted.sum_duplicates();
    std::vector<I> row_ptrs(static_cast<std::size_t>(data.size.rows) + 1, 0);
    std::vector<I> col_idxs;
    std::vector<V> values;
    for (const auto& e : sorted.entries) {
        ++row_ptrs[static_cast<std::size_t>(e.row) + 1];
        col_idxs.push_back(e.col);
        values.push_back(e.value);
    }
    for (std::size_t r = 1; r < row_ptrs.size(); ++r) {
        row_ptrs[r] += row_ptrs[r - 1];
    }

    auto mat = Csr<V, I>::create_from_data(ReferenceExecutor::create(), data);
    ASSERT_EQ(mat->get_size(), data.size);
    ASSERT_EQ(mat->get_num_stored_elements(),
              static_cast<size_type>(values.size()));
    EXPECT_EQ(std::memcmp(mat->get_const_row_ptrs(), row_ptrs.data(),
                          row_ptrs.size() * sizeof(I)),
              0);
    if (!values.empty()) {
        EXPECT_EQ(std::memcmp(mat->get_const_col_idxs(), col_idxs.data(),
                              col_idxs.size() * sizeof(I)),
                  0);
        EXPECT_EQ(std::memcmp(mat->get_const_values(), values.data(),
                              values.size() * sizeof(V)),
                  0);
    }
}

TYPED_TEST(SparseFormats, CsrReadEqualsCopySortAndSumForEveryOrder)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    // Strictly row-major, with empty rows, a stored zero and a -0.
    matrix_data<V, I> row_major{dim2{6, 5}};
    std::mt19937_64 engine{17};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    for (int r : {0, 2, 3, 5}) {
        for (int c : {0, 1, 3, 4}) {
            row_major.add(static_cast<I>(r), static_cast<I>(c),
                          static_cast<V>(dist(engine)));
        }
    }
    row_major.entries[1].value = static_cast<V>(0.0);
    row_major.entries[2].value = static_cast<V>(-0.0);
    {
        SCOPED_TRACE("row-major");
        expect_read_equals_copy_sort_and_sum(row_major);
    }
    {
        SCOPED_TRACE("empty");
        expect_read_equals_copy_sort_and_sum(matrix_data<V, I>{dim2{3, 2}});
    }
    {
        SCOPED_TRACE("reversed");
        auto reversed = row_major;
        std::reverse(reversed.entries.begin(), reversed.entries.end());
        expect_read_equals_copy_sort_and_sum(reversed);
    }
    {
        SCOPED_TRACE("shuffled");
        auto shuffled = row_major;
        std::shuffle(shuffled.entries.begin(), shuffled.entries.end(),
                     engine);
        expect_read_equals_copy_sort_and_sum(shuffled);
    }
    {
        // Row-major except for repeated (row, col) pairs, next to each
        // other and across the end of a row: still summed, not stored twice.
        SCOPED_TRACE("adjacent duplicates");
        auto duplicated = row_major;
        duplicated.entries.insert(duplicated.entries.begin() + 3,
                                  duplicated.entries[3]);
        duplicated.entries.insert(duplicated.entries.begin() + 9,
                                  duplicated.entries[8]);
        expect_read_equals_copy_sort_and_sum(duplicated);
        auto mat = Csr<V, I>::create_from_data(ReferenceExecutor::create(),
                                               duplicated);
        EXPECT_EQ(mat->get_num_stored_elements(), row_major.num_stored());
        EXPECT_TRUE(mat->is_sorted_by_column_index());
    }
}

/// Every executor configuration that splits the reader's and the
/// transpose's work differently: reference, OpenMP on 1 to 4 threads and
/// the simulated devices.
std::vector<std::pair<std::string, std::shared_ptr<const Executor>>>
split_executors()
{
    std::vector<std::pair<std::string, std::shared_ptr<const Executor>>>
        result{{"reference", ReferenceExecutor::create()}};
    for (int threads = 1; threads <= 4; ++threads) {
        result.emplace_back("omp " + std::to_string(threads),
                            OmpExecutor::create(threads));
    }
    result.emplace_back("cuda", CudaExecutor::create());
    result.emplace_back("hip", HipExecutor::create());
    return result;
}

/// Interchange triplets in strict row-major order: empty leading, inner
/// and trailing rows, a stored zero, -0, NaN and values that round in
/// half precision.
matrix_data<double, int64> interchange_row_major()
{
    matrix_data<double, int64> data{dim2{9, 6}};
    std::mt19937_64 engine{29};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    for (int64 r : {2, 3, 5, 6}) {
        for (int64 c : {0, 1, 3, 5}) {
            data.add(r, c, dist(engine));
        }
    }
    data.entries[1].value = 0.0;
    data.entries[2].value = -0.0;
    data.entries[5].value = std::numeric_limits<double>::quiet_NaN();
    data.entries[6].value = 1.0 + 0x1p-11;  // a tie in half
    data.entries[7].value = 65519.0;        // rounds to half's largest
    data.entries[8].value = 1e-6;           // half subnormal
    data.entries[9].value = 0.1;
    return data;
}

TYPED_TEST(SparseFormats, CsrReadsInterchangeTripletsAsTheirNarrowedCopy)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    using data64 = matrix_data<double, int64>;
    const auto row_major = interchange_row_major();
    std::mt19937_64 engine{31};
    auto reversed = row_major;
    std::reverse(reversed.entries.begin(), reversed.entries.end());
    auto shuffled = row_major;
    std::shuffle(shuffled.entries.begin(), shuffled.entries.end(), engine);
    auto duplicated = row_major;
    duplicated.entries.insert(duplicated.entries.begin() + 3,
                              duplicated.entries[3]);
    duplicated.entries.insert(duplicated.entries.begin() + 9,
                              duplicated.entries[8]);
    const std::pair<const char*, data64> inputs[] = {
        {"row-major", row_major},
        {"0 x 0", data64{dim2{0, 0}}},
        {"4 x 0", data64{dim2{4, 0}}},
        {"no entries", data64{dim2{5, 3}}},
        {"reversed", reversed},
        {"shuffled", shuffled},
        {"adjacent duplicates", duplicated}};
    for (const auto& [name, data] : inputs) {
        SCOPED_TRACE(name);
        const auto narrowed = data.template cast<V, I>();
        expect_read_equals_copy_sort_and_sum(narrowed);
        for (const auto& [exec_name, exec] : split_executors()) {
            SCOPED_TRACE(exec_name);
            const auto expected = Csr<V, I>::create_from_data(exec, narrowed);
            test::expect_same_csr(
                Csr<V, I>::create_from_data(exec, data).get(),
                expected.get());
            // Read into arrays that hold another matrix: every row pointer
            // is written, none is left over.
            auto reused = Csr<V, I>::create_from_data(
                exec, test::random_sparse<V, I>(12, 4, 3));
            reused->read(data);
            test::expect_same_csr(reused.get(), expected.get());
        }
    }
}

TEST(Csr, RejectsOutOfBoundsEntries)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{2, 2}};
    data.add(2, 0, 1.0);
    EXPECT_THROW((Csr<double, int32>::create_from_data(exec, data)),
                 OutOfBounds);
}

TEST(Csr, ReaderReportsTheFirstOutOfBoundsEntry)
{
    // 1000 row-major entries with a bad column and a bad row far apart, so
    // that on four threads they fall in different threads' blocks; either
    // one is reported when it comes first.
    for (const bool column_first : {true, false}) {
        SCOPED_TRACE(column_first ? "column first" : "row first");
        matrix_data<double, int64> data{dim2{100, 10}};
        for (int64 r = 0; r < 100; ++r) {
            for (int64 c = 0; c < 10; ++c) {
                data.add(r, c, 1.0);
            }
        }
        data.entries[column_first ? 100 : 900].col = 17;
        data.entries[column_first ? 900 : 100].row = 123;
        const std::string expected =
            column_first ? "index 17 out of bounds [0, 10)"
                         : "index 123 out of bounds [0, 100)";
        for (const auto& [exec_name, exec] : split_executors()) {
            SCOPED_TRACE(exec_name);
            try {
                Csr<float, int32>::create_from_data(exec, data);
                FAIL() << "out-of-bounds entries were read";
            } catch (const OutOfBounds& e) {
                EXPECT_NE(std::string{e.what()}.find(expected),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Csr, ReaderRefusesSizesTheIndexTypeCannotHoldBeforeAllocating)
{
    constexpr int64 huge = int64{1} << 40;
    const std::pair<dim2, std::string> shapes[] = {
        {dim2{huge, huge}, "1099511627776 rows"},
        {dim2{3, huge}, "1099511627776 columns"}};
    for (const auto& [exec_name, exec] : split_executors()) {
        SCOPED_TRACE(exec_name);
        for (const auto& [size, named] : shapes) {
            matrix_data<double, int64> data{size};
            data.add(0, 0, 1.0);
            const auto allocations = exec->num_allocations();
            try {
                Csr<double, int32>::create_from_data(exec, data);
                FAIL() << named << " were read into int32 indices";
            } catch (const BadParameter& e) {
                EXPECT_NE(std::string{e.what()}.find(named),
                          std::string::npos)
                    << e.what();
            }
            EXPECT_EQ(exec->num_allocations(), allocations);
            // Typed triplets take the same check.
            EXPECT_THROW((Csr<double, int32>::create_from_data(
                             exec, data.cast<double, int32>())),
                         BadParameter);
            EXPECT_EQ(exec->num_allocations(), allocations);
        }
    }
}

TEST(Csr, TransposeIsInvolution)
{
    auto exec = ReferenceExecutor::create();
    const auto data = test::random_sparse<double, int32>(25, 3, 3);
    auto mat = Csr<double, int32>::create_from_data(exec, data);
    auto tt = mat->transpose()->transpose();
    EXPECT_EQ(tt->to_data().entries, mat->to_data().entries);
}

TEST(Csr, TransposeMatchesManual)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{2, 3}};
    data.add(0, 2, 5.0);
    data.add(1, 0, 2.0);
    auto t = Csr<double, int32>::create_from_data(exec, data)->transpose();
    EXPECT_EQ(t->get_size(), (dim2{3, 2}));
    auto td = t->to_data();
    ASSERT_EQ(td.entries.size(), 2u);
    EXPECT_EQ(td.entries[0].row, 0);
    EXPECT_EQ(td.entries[0].col, 1);
    EXPECT_DOUBLE_EQ(td.entries[0].value, 2.0);
    EXPECT_EQ(td.entries[1].row, 2);
    EXPECT_DOUBLE_EQ(td.entries[1].value, 5.0);
}

/// The transpose as a serial counting sort by column, rows visited in
/// order: the arrays every executor's transpose must produce.
template <typename V, typename I>
std::unique_ptr<Csr<V, I>> serial_counting_sort_transpose(const Csr<V, I>* a)
{
    const auto rows = a->get_size().rows;
    const auto cols = a->get_size().cols;
    const auto nnz = a->get_num_stored_elements();
    const auto* row_ptrs = a->get_const_row_ptrs();
    const auto* col_idxs = a->get_const_col_idxs();
    const auto* values = a->get_const_values();
    auto t = Csr<V, I>::create(ReferenceExecutor::create(), dim2{cols, rows},
                               nnz);
    auto* t_ptrs = t->get_row_ptrs();
    for (size_type k = 0; k < nnz; ++k) {
        ++t_ptrs[col_idxs[k] + 1];
    }
    for (size_type col = 0; col < cols; ++col) {
        t_ptrs[col + 1] += t_ptrs[col];
    }
    std::vector<I> next(t_ptrs, t_ptrs + cols);
    for (size_type row = 0; row < rows; ++row) {
        for (auto k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            const auto pos = next[static_cast<std::size_t>(col_idxs[k])]++;
            t->get_col_idxs()[pos] = static_cast<I>(row);
            t->get_values()[pos] = values[k];
        }
    }
    return t;
}

template <typename V, typename I>
void expect_transpose_equals_serial_counting_sort()
{
    auto shaped = [](dim2 size, size_type per_row, std::uint64_t seed) {
        matrix_data<V, I> data{size};
        std::mt19937_64 engine{seed};
        std::uniform_int_distribution<size_type> col{
            0, std::max<size_type>(size.cols, 1) - 1};
        std::uniform_real_distribution<double> value{-1.0, 1.0};
        for (size_type r = 0; r < size.rows && size.cols > 0; ++r) {
            for (size_type k = 0; k < per_row; ++k) {
                data.add(static_cast<I>(r), static_cast<I>(col(engine)),
                         static_cast<V>(value(engine)));
            }
        }
        return data;
    };
    auto holes = shaped(dim2{60, 50}, 4, 5);
    holes.entries.erase(
        std::remove_if(holes.entries.begin(), holes.entries.end(),
                       [](const auto& e) {
                           return e.row % 7 == 0 || e.col % 5 == 0;
                       }),
        holes.entries.end());
    const std::pair<const char*, matrix_data<V, I>> inputs[] = {
        {"0 x 0", matrix_data<V, I>{dim2{0, 0}}},
        {"0 x 5", matrix_data<V, I>{dim2{0, 5}}},
        {"5 x 0", matrix_data<V, I>{dim2{5, 0}}},
        {"empty rows and columns", holes},
        {"wider than its nnz", shaped(dim2{3, 1000}, 4, 6)},
        {"400 x 30", shaped(dim2{400, 30}, 6, 7)}};
    for (const auto& [name, data] : inputs) {
        for (const bool reversed : {false, true}) {
            SCOPED_TRACE(std::string{name} +
                         (reversed ? ", rows stored in reverse" : ""));
            for (const auto& [exec_name, exec] : split_executors()) {
                SCOPED_TRACE(exec_name);
                auto a = Csr<V, I>::create_from_data(exec, data);
                if (reversed) {
                    const auto* ptrs = a->get_const_row_ptrs();
                    for (size_type r = 0; r < a->get_size().rows; ++r) {
                        std::reverse(a->get_col_idxs() + ptrs[r],
                                     a->get_col_idxs() + ptrs[r + 1]);
                        std::reverse(a->get_values() + ptrs[r],
                                     a->get_values() + ptrs[r + 1]);
                    }
                }
                const auto before = exec->clock().now_ns();
                const auto t = a->transpose();
                const double ns =
                    sim::profile_stream(
                        static_cast<double>(a->get_num_stored_elements()) *
                            (sizeof(V) + sizeof(I)) * 3.0,
                        0.0, 0.4)
                        .time_ns(exec->model());
                EXPECT_EQ(exec->clock().now_ns() - before,
                          ns > 0.0 ? static_cast<std::int64_t>(ns) : 0);
                test::expect_same_csr(
                    t.get(), serial_counting_sort_transpose(a.get()).get());
            }
        }
    }
}

TEST(Csr, TransposeEqualsASerialCountingSortOnEveryExecutor)
{
    {
        SCOPED_TRACE("double, int32");
        expect_transpose_equals_serial_counting_sort<double, int32>();
    }
    {
        SCOPED_TRACE("half, int64");
        expect_transpose_equals_serial_counting_sort<half, int64>();
    }
}

TEST(Csr, ExtractDiagonalHandlesMissingEntries)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{3, 3}};
    data.add(0, 0, 4.0);
    data.add(1, 2, 1.0);  // no (1,1) entry
    data.add(2, 2, -2.0);
    auto diag = Csr<double, int32>::create_from_data(exec, data)
                    ->extract_diagonal();
    EXPECT_DOUBLE_EQ(diag->at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(diag->at(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(diag->at(2, 0), -2.0);
}

TEST(Csr, AdvancedApplyComputesAlphaAxPlusBetaY)
{
    auto exec = OmpExecutor::create(3);
    const size_type n = 40;
    const auto data = test::laplacian_1d<double, int32>(n);
    auto mat = Csr<double, int32>::create_from_data(exec, data);
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 10.0);
    auto alpha = Dense<double>::create_scalar(exec, 2.0);
    auto beta = Dense<double>::create_scalar(exec, 0.5);
    mat->apply(alpha.get(), b.get(), beta.get(), x.get());
    // interior rows: A*1 = 0, so x = 0.5 * 10 = 5; boundary rows: A*1 = 1,
    // so x = 2*1 + 5 = 7.
    EXPECT_DOUBLE_EQ(x->at(0, 0), 7.0);
    EXPECT_DOUBLE_EQ(x->at(n / 2, 0), 5.0);
    EXPECT_DOUBLE_EQ(x->at(n - 1, 0), 7.0);
}

TEST(Csr, MultiColumnApply)
{
    auto exec = CudaExecutor::create();
    const size_type n = 32;
    const auto data = test::random_sparse<double, int32>(n, 5, 11);
    auto mat = Csr<double, int32>::create_from_data(exec, data);
    auto b = Dense<double>::create(exec, dim2{n, 3});
    for (size_type r = 0; r < n; ++r) {
        for (size_type c = 0; c < 3; ++c) {
            b->at(r, c) = static_cast<double>(r % 5) - static_cast<double>(c);
        }
    }
    auto x = Dense<double>::create(exec, dim2{n, 3});
    mat->apply(b.get(), x.get());
    // Each column must equal the single-column product.
    for (size_type c = 0; c < 3; ++c) {
        auto bc = Dense<double>::create(exec, dim2{n, 1});
        for (size_type r = 0; r < n; ++r) {
            bc->at(r, 0) = b->at(r, c);
        }
        auto xc = Dense<double>::create(exec, dim2{n, 1});
        mat->apply(bc.get(), xc.get());
        for (size_type r = 0; r < n; ++r) {
            EXPECT_NEAR(x->at(r, c), xc->at(r, 0), 1e-12);
        }
    }
}

TEST(Csr, StrategySelectionDoesNotChangeResults)
{
    auto exec = OmpExecutor::create(4);
    const size_type n = 100;
    const auto data = test::random_sparse<double, int32>(n, 7, 21);
    auto b = test::random_vector<double>(exec, n);

    auto balanced = Csr<double, int32>::create_from_data(exec, data);
    balanced->set_strategy(Csr<double, int32>::strategy::load_balanced);
    auto classical = Csr<double, int32>::create_from_data(exec, data);
    classical->set_strategy(Csr<double, int32>::strategy::classical);

    auto x1 = Dense<double>::create(exec, dim2{n, 1});
    auto x2 = Dense<double>::create(exec, dim2{n, 1});
    balanced->apply(b.get(), x1.get());
    classical->apply(b.get(), x2.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(x1->at(i, 0), x2->at(i, 0), 1e-13);
    }
}

// --- Single right-hand-side SpMV: bitwise against the reference -----------

/// Element-wise bitwise equality (signed zeros and NaN payloads included).
template <typename V>
::testing::AssertionResult same_bits(const Dense<V>* expected,
                                     const Dense<V>* actual)
{
    for (size_type r = 0; r < expected->get_size().rows; ++r) {
        for (size_type c = 0; c < expected->get_size().cols; ++c) {
            const V e = expected->at(r, c);
            const V a = actual->at(r, c);
            if (std::memcmp(&e, &a, sizeof(V)) != 0) {
                return ::testing::AssertionFailure()
                       << "differs at (" << r << ", " << c << "): expected "
                       << to_float(e) << ", got " << to_float(a);
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/// Row 2 holds every column; of the other rows only every eighth has an
/// entry.  The long row starts in the first quarter of the nonzeros and
/// ends past three quarters, so threads 1 and 2 of a 4-way nnz-balanced
/// split own no rows.
template <typename V, typename I>
matrix_data<V, I> one_long_row(size_type n)
{
    std::mt19937_64 engine{99};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    matrix_data<V, I> data{dim2{n}};
    for (size_type r = 0; r < n; ++r) {
        if (r == 2) {
            for (size_type c = 0; c < n; ++c) {
                data.add(static_cast<I>(r), static_cast<I>(c),
                         static_cast<V>(dist(engine)));
            }
        } else if (r % 8 == 0) {
            data.add(static_cast<I>(r), static_cast<I>((r * 7 + 1) % n),
                     static_cast<V>(dist(engine)));
        }
    }
    return data;
}

/// The matrix on every non-reference row split: OpenMP on 1 and 4 threads
/// under both strategies, the CUDA executor's nnz-balanced split and the
/// HIP executor's 64-row wavefront chunks.
template <typename V, typename I>
std::vector<std::pair<std::string, std::unique_ptr<Csr<V, I>>>>
csr_on_every_split(const matrix_data<V, I>& data)
{
    std::vector<std::pair<std::string, std::unique_ptr<Csr<V, I>>>> result;
    for (const int threads : {1, 4}) {
        for (const auto strategy : {Csr<V, I>::strategy::load_balanced,
                                    Csr<V, I>::strategy::classical}) {
            auto mat = Csr<V, I>::create_from_data(
                OmpExecutor::create(threads), data);
            mat->set_strategy(strategy);
            result.emplace_back(
                "omp" + std::to_string(threads) +
                    (strategy == Csr<V, I>::strategy::classical
                         ? "/classical"
                         : "/load_balanced"),
                std::move(mat));
        }
    }
    result.emplace_back("cuda",
                        Csr<V, I>::create_from_data(CudaExecutor::create(),
                                                    data));
    result.emplace_back("hip", Csr<V, I>::create_from_data(
                                   HipExecutor::create(), data));
    return result;
}

TYPED_TEST(SparseFormats, SingleColumnSpmvMatchesReferenceBitwise)
{
    using V = typename TestFixture::value_type;
    using I = typename TestFixture::index_type;
    const size_type n = 512;
    const auto data = one_long_row<V, I>(n);
    auto ref = ReferenceExecutor::create();
    auto ref_mat = Csr<V, I>::create_from_data(ref, data);
    {
        const auto* row_ptrs = ref_mat->get_const_row_ptrs();
        const auto nnz = static_cast<size_type>(row_ptrs[n]);
        ASSERT_LT(4 * static_cast<size_type>(row_ptrs[2]), nnz);
        ASSERT_GT(4 * static_cast<size_type>(row_ptrs[3]), 3 * nnz);
    }
    const V nan = std::numeric_limits<V>::quiet_NaN();

    // Operands live in a 3-column block so the strided case can use the
    // middle column; the contiguous case uses a 1-column block.
    auto block = [&](std::shared_ptr<const Executor> exec, size_type cols,
                     std::uint64_t seed) {
        std::mt19937_64 engine{seed};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        auto m = Dense<V>::create(std::move(exec), dim2{n, cols});
        for (size_type r = 0; r < n; ++r) {
            for (size_type c = 0; c < cols; ++c) {
                m->at(r, c) = static_cast<V>(dist(engine));
            }
        }
        return m;
    };
    auto column = [](Dense<V>* m) {
        return m->get_size().cols == 1 ? m->column_view(0)
                                       : m->column_view(1);
    };

    // The single-column kernel keeps the n x k kernel's accumulation
    // order: its result is bitwise the matching column of a block product.
    {
        auto alpha = Dense<V>::create_scalar(ref, static_cast<V>(0.75));
        auto beta = Dense<V>::create_scalar(ref, static_cast<V>(-1.5));
        auto b = block(ref, 3, 5);
        auto x = block(ref, 3, 7);
        auto x_single = column(x.get())->clone();
        ref_mat->apply(alpha.get(), b.get(), beta.get(), x.get());
        ref_mat->apply(alpha.get(), column(b.get()).get(), beta.get(),
                       x_single.get());
        EXPECT_TRUE(same_bits(column(x.get()).get(), x_single.get()));
    }

    for (const size_type cols : {size_type{1}, size_type{3}}) {
        SCOPED_TRACE(cols == 1 ? "contiguous" : "strided column view");
        for (auto& [name, mat] : csr_on_every_split(data)) {
            SCOPED_TRACE(name);
            const auto exec = mat->get_executor();
            auto alpha = Dense<V>::create_scalar(exec, static_cast<V>(0.75));
            auto beta = Dense<V>::create_scalar(exec, static_cast<V>(-1.5));
            auto beta0 = Dense<V>::create_scalar(exec, zero<V>());
            auto b = block(exec, cols, 5);
            auto ref_b = block(ref, cols, 5);

            // Plain apply and beta == 0 must not read the NaN-filled output.
            for (const bool advanced : {false, true}) {
                auto x = block(exec, cols, 6);
                auto ref_x = block(ref, cols, 6);
                column(x.get())->fill(nan);
                column(ref_x.get())->fill(nan);
                if (advanced) {
                    mat->apply(alpha.get(), column(b.get()).get(),
                               beta0.get(), column(x.get()).get());
                    ref_mat->apply(alpha.get(), column(ref_b.get()).get(),
                                   beta0.get(), column(ref_x.get()).get());
                } else {
                    mat->apply(column(b.get()).get(), column(x.get()).get());
                    ref_mat->apply(column(ref_b.get()).get(),
                                   column(ref_x.get()).get());
                }
                EXPECT_TRUE(same_bits(ref_x.get(), x.get()))
                    << (advanced ? "beta == 0" : "plain");
                for (size_type r = 0; r < n; ++r) {
                    ASSERT_FALSE(std::isnan(to_float(x->at(r, cols / 2))))
                        << "row " << r;
                }
            }
            // beta != 0 reads and scales the output.
            auto x = block(exec, cols, 7);
            auto ref_x = block(ref, cols, 7);
            mat->apply(alpha.get(), column(b.get()).get(), beta.get(),
                       column(x.get()).get());
            ref_mat->apply(alpha.get(), column(ref_b.get()).get(), beta.get(),
                           column(ref_x.get()).get());
            EXPECT_TRUE(same_bits(ref_x.get(), x.get())) << "beta != 0";
        }
    }
}

TEST(Csr, MultiColumnSpmvMatchesReferenceBitwise)
{
    const size_type n = 512;
    const auto data = one_long_row<double, int32>(n);
    auto ref = ReferenceExecutor::create();
    auto ref_mat = Csr<double, int32>::create_from_data(ref, data);
    auto b = Dense<double>::create(ref, dim2{n, 3});
    for (size_type r = 0; r < n; ++r) {
        for (size_type c = 0; c < 3; ++c) {
            b->at(r, c) =
                0.25 * static_cast<double>((r * 13 + c * 7) % 17) - 2.0;
        }
    }
    auto alpha = Dense<double>::create_scalar(ref, 0.75);
    auto beta = Dense<double>::create_scalar(ref, -1.5);
    auto expected = Dense<double>::create_filled(ref, dim2{n, 3}, 1.0);
    ref_mat->apply(b.get(), expected.get());
    ref_mat->apply(alpha.get(), b.get(), beta.get(), expected.get());

    for (auto& [name, mat] : csr_on_every_split(data)) {
        const auto exec = mat->get_executor();
        auto b_here = b->clone_to(exec);
        auto x = Dense<double>::create_filled(exec, dim2{n, 3}, 1.0);
        mat->apply(b_here.get(), x.get());
        mat->apply(alpha->clone_to(exec).get(), b_here.get(),
                   beta->clone_to(exec).get(), x.get());
        EXPECT_TRUE(same_bits(expected.get(), x.get())) << name;
    }
}

// --- Block kernels keep their summation order ------------------------------
//
// gemm, gemv_t and the n x k CSR body keep tiles of outputs in local
// accumulators.  Each output must still be the sum of its terms in
// ascending reduction index, accumulated in accumulate_t, on every
// executor, thread count, tile tail and operand layout: the expected
// values below come from test-local loops in that order.

constexpr size_type block_column_counts[] = {1, 2, 3, 7, 8, 9, 16, 17, 33};
constexpr size_type block_inner_dims[] = {1, 8, 31};

/// The four backends plus OpenMP on one thread (all_executors() has it on
/// four), by name.
std::vector<std::pair<std::string, std::shared_ptr<Executor>>>
block_executors()
{
    std::vector<std::pair<std::string, std::shared_ptr<Executor>>> result;
    const auto execs = test::all_executors();
    const auto names = test::all_executor_names();
    for (std::size_t i = 0; i < execs.size(); ++i) {
        result.emplace_back(names[i], execs[i]);
    }
    result.emplace_back("omp1", OmpExecutor::create(1));
    return result;
}

template <typename V>
std::unique_ptr<Dense<V>> random_dense(std::shared_ptr<const Executor> exec,
                                       dim2 size, std::uint64_t seed)
{
    std::mt19937_64 engine{seed};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    auto m = Dense<V>::create(std::move(exec), size);
    for (size_type r = 0; r < size.rows; ++r) {
        for (size_type c = 0; c < size.cols; ++c) {
            m->at(r, c) = static_cast<V>(dist(engine));
        }
    }
    return m;
}

enum class layout { contiguous, row_block, basis };

/// A random operand and the block that holds it.  `row_block` is rows
/// [1, rows + 1) of a block three columns wider, from column 1 (a column
/// view when one column wide); `basis` is the first columns of a
/// 34-column block, the view GMRES with restart 33 takes of its basis.
template <typename V>
struct Operand {
    std::unique_ptr<Dense<V>> block;
    std::unique_ptr<Dense<V>> view;

    Operand(std::shared_ptr<const Executor> exec, dim2 size, layout l,
            std::uint64_t seed)
    {
        if (l == layout::contiguous) {
            block = random_dense<V>(exec, size, seed);
            view = block->row_block_view(0, size.rows);
        } else if (l == layout::row_block) {
            block = random_dense<V>(
                exec, dim2{size.rows + 2, size.cols + 3}, seed);
            auto rows = block->row_block_view(1, size.rows + 1);
            view = size.cols == 1
                       ? rows->column_view(1)
                       : Dense<V>::create_view(exec, size,
                                               rows->get_values() + 1,
                                               rows->get_stride());
        } else {
            block = random_dense<V>(exec, dim2{size.rows, 34}, seed);
            view = Dense<V>::create_view(exec, size, block->get_values(), 34);
        }
    }

    Dense<V>* get() const { return view.get(); }
};

/// Runs `run` on `x` and checks x's whole block bitwise: each entry (i, j)
/// of the view must read `expect(i, j, before)` and every entry around the
/// view must be unchanged.
template <typename V, typename Run, typename Expect>
::testing::AssertionResult writes_exactly(const Operand<V>& x, Run run,
                                          Expect expect)
{
    auto expected = x.block->clone();
    const auto offset = x.get()->get_values() - x.block->get_values();
    const auto row0 = offset / x.block->get_stride();
    const auto col0 = offset % x.block->get_stride();
    for (size_type i = 0; i < x.get()->get_size().rows; ++i) {
        for (size_type j = 0; j < x.get()->get_size().cols; ++j) {
            auto& e = expected->at(row0 + i, col0 + j);
            e = expect(i, j, e);
        }
    }
    run(x.get());
    return same_bits(expected.get(), x.block.get());
}

/// Checks plain x = op(b), advanced with beta == 0 into a NaN-filled x
/// (which must not be read), and advanced with beta != 0 against
/// `sum(i, j)`, the output's terms added in ascending order.
template <typename V, typename Plain, typename Advanced, typename Sum>
void check_applies(const Operand<V>& x, Plain plain, Advanced advanced,
                   Sum sum)
{
    const auto exec = x.get()->get_executor();
    const V alpha = static_cast<V>(0.75);
    const V beta = static_cast<V>(-1.5);
    auto alpha_op = Dense<V>::create_scalar(exec, alpha);
    auto beta_op = Dense<V>::create_scalar(exec, beta);
    auto zero_op = Dense<V>::create_scalar(exec, zero<V>());
    EXPECT_TRUE(writes_exactly(
        x, plain, [&](size_type i, size_type j, V) { return sum(i, j); }))
        << "plain";
    x.get()->fill(std::numeric_limits<V>::quiet_NaN());
    EXPECT_TRUE(writes_exactly(
        x,
        [&](Dense<V>* out) {
            advanced(alpha_op.get(), zero_op.get(), out);
        },
        [&](size_type i, size_type j, V) { return alpha * sum(i, j); }))
        << "beta == 0";
    EXPECT_TRUE(writes_exactly(
        x,
        [&](Dense<V>* out) {
            advanced(alpha_op.get(), beta_op.get(), out);
        },
        [&](size_type i, size_type j, V old) {
            return alpha * sum(i, j) + beta * old;
        }))
        << "beta != 0";
}

/// Sum of term(l) for l = 0, 1, ..., len - 1, accumulated in accumulate_t.
template <typename V, typename Term>
V ascending_sum(size_type len, Term term)
{
    using acc_t = accumulate_t<V>;
    acc_t acc{};
    for (size_type l = 0; l < len; ++l) {
        acc += term(l);
    }
    return V{acc};
}

template <typename V>
class BlockKernelOrder : public ::testing::Test {};

using BlockValueTypes = ::testing::Types<half, float, double>;
TYPED_TEST_SUITE(BlockKernelOrder, BlockValueTypes);

TYPED_TEST(BlockKernelOrder, GemmAddsTermsInAscendingOrder)
{
    using V = TypeParam;
    using acc_t = accumulate_t<V>;
    const size_type m = 37;
    for (const auto& [name, exec] : block_executors()) {
        for (const bool strided : {false, true}) {
            for (const auto k : block_inner_dims) {
                for (const auto n : block_column_counts) {
                    SCOPED_TRACE(name + (strided ? " strided" : " contiguous") +
                                 " k " + std::to_string(k) + " n " +
                                 std::to_string(n));
                    const Operand<V> a{exec, dim2{m, k},
                                       strided ? layout::basis
                                               : layout::contiguous,
                                       1};
                    const Operand<V> b{exec, dim2{k, n},
                                       strided ? layout::row_block
                                               : layout::contiguous,
                                       2};
                    const Operand<V> x{exec, dim2{m, n},
                                       strided ? layout::row_block
                                               : layout::contiguous,
                                       3};
                    check_applies(
                        x, [&](Dense<V>* out) { a.get()->apply(b.get(), out); },
                        [&](const Dense<V>* alpha, const Dense<V>* beta,
                            Dense<V>* out) {
                            a.get()->apply(alpha, b.get(), beta, out);
                        },
                        [&](size_type i, size_type j) {
                            return ascending_sum<V>(k, [&](size_type l) {
                                return static_cast<acc_t>(a.get()->at(i, l)) *
                                       static_cast<acc_t>(b.get()->at(l, j));
                            });
                        });
                }
            }
        }
    }
}

TYPED_TEST(BlockKernelOrder, GemvTAddsTermsInAscendingOrder)
{
    using V = TypeParam;
    using acc_t = accumulate_t<V>;
    for (const auto& [name, exec] : block_executors()) {
        for (const bool strided : {false, true}) {
            for (const auto m : block_inner_dims) {
                for (const auto k : block_column_counts) {
                    for (const auto n : block_column_counts) {
                        SCOPED_TRACE(name +
                                     (strided ? " strided" : " contiguous") +
                                     " m " + std::to_string(m) + " k " +
                                     std::to_string(k) + " n " +
                                     std::to_string(n));
                        const Operand<V> a{exec, dim2{m, k},
                                           strided ? layout::basis
                                                   : layout::contiguous,
                                           4};
                        const Operand<V> b{exec, dim2{m, n},
                                           strided ? layout::row_block
                                                   : layout::contiguous,
                                           5};
                        const Operand<V> x{exec, dim2{k, n},
                                           strided ? layout::row_block
                                                   : layout::contiguous,
                                           6};
                        x.get()->fill(std::numeric_limits<V>::quiet_NaN());
                        EXPECT_TRUE(writes_exactly(
                            x,
                            [&](Dense<V>* out) {
                                a.get()->transpose_apply(b.get(), out);
                            },
                            [&](size_type i, size_type j, V) {
                                return ascending_sum<V>(m, [&](size_type l) {
                                    return static_cast<acc_t>(
                                               a.get()->at(l, i)) *
                                           static_cast<acc_t>(
                                               b.get()->at(l, j));
                                });
                            }));
                    }
                }
            }
        }
    }
}

template <typename V, typename I>
void check_csr_block_order()
{
    using acc_t = accumulate_t<V>;
    const size_type n = 64;
    for (const auto& data :
         {one_long_row<V, I>(n), test::random_sparse<V, I>(n, 6)}) {
        auto mats = csr_on_every_split(data);
        mats.emplace_back("reference", Csr<V, I>::create_from_data(
                                           ReferenceExecutor::create(), data));
        for (const auto& [name, mat] : mats) {
            const auto* values = mat->get_const_values();
            const auto* col_idxs = mat->get_const_col_idxs();
            const auto* row_ptrs = mat->get_const_row_ptrs();
            const auto exec = mat->get_executor();
            for (const bool strided : {false, true}) {
                const auto l = strided ? layout::row_block : layout::contiguous;
                for (const auto cols : block_column_counts) {
                    SCOPED_TRACE(name + (strided ? " strided" : " contiguous") +
                                 " cols " + std::to_string(cols));
                    const Operand<V> b{exec, dim2{n, cols}, l, 7};
                    const Operand<V> x{exec, dim2{n, cols}, l, 8};
                    check_applies(
                        x, [&](Dense<V>* out) { mat->apply(b.get(), out); },
                        [&](const Dense<V>* alpha, const Dense<V>* beta,
                            Dense<V>* out) {
                            mat->apply(alpha, b.get(), beta, out);
                        },
                        [&](size_type i, size_type j) {
                            const auto begin = row_ptrs[i];
                            return ascending_sum<V>(
                                row_ptrs[i + 1] - begin, [&](size_type e) {
                                    return static_cast<acc_t>(
                                               values[begin + e]) *
                                           static_cast<acc_t>(b.get()->at(
                                               col_idxs[begin + e], j));
                                });
                        });
                }
            }
        }
    }
}

TYPED_TEST(BlockKernelOrder, CsrSpmvAddsTermsInAscendingOrder)
{
    check_csr_block_order<TypeParam, int32>();
    check_csr_block_order<TypeParam, int64>();
}

TEST(Csr, SortByColumnIndex)
{
    auto exec = ReferenceExecutor::create();
    auto mat = Csr<double, int32>::create(exec, dim2{1, 4}, 3);
    mat->get_row_ptrs()[0] = 0;
    mat->get_row_ptrs()[1] = 3;
    mat->get_col_idxs()[0] = 3;
    mat->get_col_idxs()[1] = 0;
    mat->get_col_idxs()[2] = 2;
    mat->get_values()[0] = 30.0;
    mat->get_values()[1] = 0.0;
    mat->get_values()[2] = 20.0;
    EXPECT_FALSE(mat->is_sorted_by_column_index());
    mat->sort_by_column_index();
    EXPECT_TRUE(mat->is_sorted_by_column_index());
    EXPECT_EQ(mat->get_const_col_idxs()[0], 0);
    EXPECT_DOUBLE_EQ(mat->get_const_values()[2], 30.0);
}


// --- Coo / Ell specifics ----------------------------------------------------

TEST(Coo, EmptyRowsAndAdvancedApply)
{
    auto exec = OmpExecutor::create(4);
    matrix_data<double, int32> data{dim2{4, 4}};
    data.add(0, 0, 1.0);
    data.add(3, 3, 2.0);  // rows 1, 2 empty
    auto coo = Coo<double, int32>::create_from_data(exec, data);
    auto b = Dense<double>::create_filled(exec, dim2{4, 1}, 3.0);
    auto x = Dense<double>::create_filled(exec, dim2{4, 1}, 100.0);
    coo->apply(b.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(x->at(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(x->at(2, 0), 0.0);
    EXPECT_DOUBLE_EQ(x->at(3, 0), 6.0);

    auto alpha = Dense<double>::create_scalar(exec, 2.0);
    auto beta = Dense<double>::create_scalar(exec, -1.0);
    coo->apply(alpha.get(), b.get(), beta.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 3.0);   // 2*3 - 3
    EXPECT_DOUBLE_EQ(x->at(3, 0), 6.0);   // 2*6 - 6
}

TEST(Ell, PadsRowsToUniformWidth)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{3, 3}};
    data.add(0, 0, 1.0);
    data.add(1, 0, 2.0);
    data.add(1, 1, 3.0);
    data.add(1, 2, 4.0);
    auto ell = Ell<double, int32>::create_from_data(exec, data);
    EXPECT_EQ(ell->get_num_stored_per_row(), 3);
    EXPECT_EQ(ell->get_num_stored_elements(), 9);
    EXPECT_DOUBLE_EQ(ell->value_at(1, 2), 4.0);
    EXPECT_DOUBLE_EQ(ell->value_at(0, 1), 0.0);  // padding
}

TEST(Ell, AllEmptyMatrixHasZeroWidthAndZeroesOutput)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{4, 4}};
    auto ell = Ell<double, int32>::create_from_data(exec, data);
    EXPECT_EQ(ell->get_num_stored_per_row(), 0);
    EXPECT_EQ(ell->get_num_stored_elements(), 0);

    // apply must still overwrite x (y = 0*b), not leave stale values.
    auto b = Dense<double>::create_filled(exec, dim2{4, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{4, 1}, 9.0);
    ell->apply(b.get(), x.get());
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(x->at(i, 0), 0.0);
    }

    // Round-trip through Csr stays empty.
    auto back = Csr<double, int32>::create(exec);
    ell->convert_to(back.get());
    EXPECT_EQ(back->get_num_stored_elements(), 0);
    EXPECT_EQ(back->get_size(), (dim2{4, 4}));
}

TEST(Ell, EmptyRowsAndZeroByZero)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{5, 5}};
    data.add(1, 1, 2.0);              // rows 0, 2, 4 empty
    data.add(3, 0, 1.0);
    data.add(3, 4, -2.0);
    auto ell = Ell<double, int32>::create_from_data(exec, data);
    EXPECT_EQ(ell->get_num_stored_per_row(), 2);

    auto b = Dense<double>::create_filled(exec, dim2{5, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{5, 1}, 9.0);
    ell->apply(b.get(), x.get());
    EXPECT_DOUBLE_EQ(x->at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(x->at(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(x->at(3, 0), -1.0);
    EXPECT_DOUBLE_EQ(x->at(4, 0), 0.0);

    // 0x0 does not trip the width computation or the apply kernels.
    auto zero = Ell<double, int32>::create_from_data(
        exec, matrix_data<double, int32>{dim2{0, 0}});
    EXPECT_EQ(zero->get_num_stored_per_row(), 0);
    auto b0 = Dense<double>::create(exec, dim2{0, 1});
    auto x0 = Dense<double>::create(exec, dim2{0, 1});
    EXPECT_NO_THROW(zero->apply(b0.get(), x0.get()));
}

TEST(Hybrid, DegenerateInputsAcrossQuantileEdges)
{
    auto exec = ReferenceExecutor::create();
    // All-empty matrix at both quantile extremes: the split must not index
    // past the (empty) sorted-row-length array.
    for (double q : {0.0, 0.5, 1.0}) {
        auto h = Hybrid<double, int32>::create_from_data(
            exec, matrix_data<double, int32>{dim2{3, 3}}, q);
        EXPECT_EQ(h->get_num_stored_elements(), 0);
        auto b = Dense<double>::create_filled(exec, dim2{3, 1}, 1.0);
        auto x = Dense<double>::create_filled(exec, dim2{3, 1}, 7.0);
        h->apply(b.get(), x.get());
        EXPECT_DOUBLE_EQ(x->at(0, 0), 0.0);
    }
    auto empty0 = Hybrid<double, int32>::create_from_data(
        exec, matrix_data<double, int32>{dim2{0, 0}}, 0.8);
    EXPECT_EQ(empty0->get_num_stored_elements(), 0);
}

TEST(Hybrid, EmptyRowsSplitAndRoundTrip)
{
    auto exec = ReferenceExecutor::create();
    matrix_data<double, int32> data{dim2{6, 6}};
    data.add(0, 0, 1.0);  // rows 1, 3, 4, 5 empty; row 2 is long
    data.add(2, 1, 2.0);
    data.add(2, 2, 3.0);
    data.add(2, 3, 4.0);
    data.add(2, 5, 5.0);
    // quantile 0 pushes everything beyond width 0 into COO; quantile 1
    // widens ELL to the longest row.  Both must give the same SpMV and
    // the same recovered entries.
    for (double q : {0.0, 0.25, 1.0}) {
        auto h = Hybrid<double, int32>::create_from_data(exec, data, q);
        EXPECT_EQ(h->get_num_stored_elements(), 5u);
        EXPECT_GE(h->get_ell_num_stored_elements() +
                      h->get_coo_num_stored_elements(),
                  5u);

        auto b = Dense<double>::create_filled(exec, dim2{6, 1}, 1.0);
        auto x = Dense<double>::create_filled(exec, dim2{6, 1}, 9.0);
        h->apply(b.get(), x.get());
        EXPECT_DOUBLE_EQ(x->at(0, 0), 1.0);
        EXPECT_DOUBLE_EQ(x->at(1, 0), 0.0);
        EXPECT_DOUBLE_EQ(x->at(2, 0), 14.0);
        EXPECT_DOUBLE_EQ(x->at(5, 0), 0.0);

        auto back = h->to_data();
        back.sort_row_major();
        auto want = data;
        want.sort_row_major();
        ASSERT_EQ(back.entries.size(), want.entries.size());
        for (std::size_t i = 0; i < want.entries.size(); ++i) {
            EXPECT_EQ(back.entries[i].row, want.entries[i].row);
            EXPECT_EQ(back.entries[i].col, want.entries[i].col);
            EXPECT_DOUBLE_EQ(back.entries[i].value, want.entries[i].value);
        }
    }
}


// --- Matrix Market IO -------------------------------------------------------

TEST(MtxIo, ReadsCoordinateRealGeneral)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 3 2\n"
        "1 1 1.5\n"
        "3 2 -2.5\n"};
    auto data = read_mtx(input);
    EXPECT_EQ(data.size, (dim2{3, 3}));
    ASSERT_EQ(data.entries.size(), 2u);
    EXPECT_EQ(data.entries[1].row, 2);
    EXPECT_EQ(data.entries[1].col, 1);
    EXPECT_DOUBLE_EQ(data.entries[1].value, -2.5);
}

TEST(MtxIo, ExpandsSymmetricStorage)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 4.0\n"
        "2 1 1.0\n"};
    auto data = read_mtx(input);
    EXPECT_EQ(data.entries.size(), 3u);  // (0,0), (1,0), (0,1)
}

TEST(MtxIo, ExpandsSkewSymmetric)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 3.0\n"};
    auto data = read_mtx(input);
    ASSERT_EQ(data.entries.size(), 2u);
    EXPECT_DOUBLE_EQ(data.entries[0].value, 3.0);
    EXPECT_DOUBLE_EQ(data.entries[1].value, -3.0);
}

TEST(MtxIo, ReadsPatternAndArrayFormats)
{
    std::istringstream pattern{
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 1\n"
        "2 2\n"};
    auto p = read_mtx(pattern);
    ASSERT_EQ(p.entries.size(), 1u);
    EXPECT_DOUBLE_EQ(p.entries[0].value, 1.0);

    std::istringstream dense{
        "%%MatrixMarket matrix array real general\n"
        "2 2\n"
        "1.0\n0.0\n0.0\n4.0\n"};
    auto d = read_mtx(dense);
    EXPECT_EQ(d.entries.size(), 2u);  // zeros dropped
}

TEST(MtxIo, WriteReadRoundTrip)
{
    const auto data = test::random_sparse<double, int64>(20, 4, 5)
                          .template cast<double, int64>();
    std::stringstream buffer;
    write_mtx(buffer, data);
    auto back = read_mtx(buffer);
    auto sorted_in = data;
    sorted_in.sort_row_major();
    auto sorted_out = back;
    sorted_out.sort_row_major();
    ASSERT_EQ(sorted_out.entries.size(), sorted_in.entries.size());
    for (std::size_t i = 0; i < sorted_in.entries.size(); ++i) {
        EXPECT_EQ(sorted_out.entries[i].row, sorted_in.entries[i].row);
        EXPECT_EQ(sorted_out.entries[i].col, sorted_in.entries[i].col);
        EXPECT_DOUBLE_EQ(sorted_out.entries[i].value,
                         sorted_in.entries[i].value);
    }
}

TEST(MtxIo, RejectsMalformedInput)
{
    std::istringstream no_banner{"3 3 1\n1 1 1.0\n"};
    EXPECT_THROW(read_mtx(no_banner), FileError);
    std::istringstream bad_bounds{
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "5 1 1.0\n"};
    EXPECT_THROW(read_mtx(bad_bounds), FileError);
    std::istringstream truncated{
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"};
    EXPECT_THROW(read_mtx(truncated), FileError);
    EXPECT_THROW(read_mtx("/nonexistent/path.mtx"), FileError);
}

/// One entry line in a 2 x 2 real general file.
matrix_data<double, int64> read_entry_line(const std::string& entry)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n" + entry +
        "\n"};
    return read_mtx(input);
}

std::uint64_t bits_of(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

TEST(MtxIo, EntryLinesReadTheirRowColumnAndValue)
{
    const struct {
        const char* line;
        int64 row;
        int64 col;
        double value;
    } cases[] = {{"1 1 +2.5", 0, 0, 2.5},
                 {"+1 1 2", 0, 0, 2.0},
                 {"2\t1\t-3", 1, 0, -3.0},
                 {"   1 2 2", 0, 1, 2.0},
                 {"1 1 2\r", 0, 0, 2.0},
                 {"1 1 .5", 0, 0, 0.5},
                 {"1 1 -.5", 0, 0, -0.5},
                 {"1 1 1.", 0, 0, 1.0},
                 {"1 1 00012", 0, 0, 12.0},
                 {"1 1 2.5e+2", 0, 0, 250.0},
                 {"1 1 1e-400", 0, 0, 0.0},
                 {"1 1 4.9e-324", 0, 0, std::numeric_limits<double>::denorm_min()},
                 // Tokens after the value are ignored.
                 {"1 1 2.5 extra", 0, 0, 2.5}};
    for (const auto& c : cases) {
        const auto data = read_entry_line(c.line);
        ASSERT_EQ(data.entries.size(), 1u) << c.line;
        EXPECT_EQ(data.entries[0].row, c.row) << c.line;
        EXPECT_EQ(data.entries[0].col, c.col) << c.line;
        EXPECT_EQ(bits_of(data.entries[0].value), bits_of(c.value)) << c.line;
    }
}

TEST(MtxIo, MalformedEntryLinesThrowNamingTheFault)
{
    const struct {
        const char* line;
        const char* what;
    } cases[] = {{"1 1 1e400", "missing value in entry"},
                 {"1 1 -1e400", "missing value in entry"},
                 {"1 1 nan", "missing value in entry"},
                 {"1 1 inf", "missing value in entry"},
                 {"1 1 5e", "missing value in entry"},
                 {"1 1 -", "missing value in entry"},
                 {"1 1", "missing value in entry"},
                 // A field must end at whitespace or at the end of the line.
                 {"1 1 2,5", "missing value in entry"},
                 {"1 1 0x10", "missing value in entry"},
                 {"1 1 1e5e5", "missing value in entry"},
                 {"1 1 +-2", "missing value in entry"},
                 {"1 1.5 2", "malformed entry"},
                 {"1.0 1 2", "malformed entry"},
                 {"+-1 1 2", "malformed entry"},
                 {"99999999999999999999 1 1", "malformed entry"},
                 {"9 1 1", "entry index out of bounds"},
                 {"0 1 1", "entry index out of bounds"}};
    for (const auto& c : cases) {
        try {
            read_entry_line(c.line);
            ADD_FAILURE() << "accepted " << c.line;
        } catch (const FileError& e) {
            EXPECT_NE(std::string{e.what()}.find(c.what), std::string::npos)
                << c.line << ": " << e.what();
        }
    }
    // Size lines and array values take whole fields too.
    std::istringstream size_line{
        "%%MatrixMarket matrix coordinate real general\n2 2 1.5\n1 1 1\n"};
    EXPECT_THROW(read_mtx(size_line), FileError);
    std::istringstream dense_value{
        "%%MatrixMarket matrix array real general\n1 1\n2.5x\n"};
    EXPECT_THROW(read_mtx(dense_value), FileError);
}

TEST(MtxIo, HugeSizeLinesThrowFileErrorWithoutAllocating)
{
    // rows * cols of an array file would overflow int64.
    std::istringstream array_size{
        "%%MatrixMarket matrix array real general\n"
        "4000000000 4000000000\n1\n"};
    EXPECT_THROW(read_mtx(array_size), FileError);
    // A count of 10^12 entries followed by one: the reader runs out of
    // lines, not of memory.
    std::istringstream entry_count{
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 1000000000000\n1 1 1\n"};
    try {
        read_mtx(entry_count);
        FAIL() << "expected FileError";
    } catch (const FileError& e) {
        EXPECT_NE(std::string{e.what()}.find("unexpected end of file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MtxIo, ToleratesWindowsLineEndings)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real general\r\n"
        "% written on Windows\r\n"
        "3 3 2\r\n"
        "1 1 1.5\r\n"
        "3 2 -2.5\r\n"};
    auto data = read_mtx(input);
    EXPECT_EQ(data.size, (dim2{3, 3}));
    ASSERT_EQ(data.entries.size(), 2u);
    EXPECT_EQ(data.entries[1].row, 2);
    EXPECT_EQ(data.entries[1].col, 1);
    EXPECT_DOUBLE_EQ(data.entries[1].value, -2.5);

    std::istringstream array_input{
        "%%MatrixMarket matrix array real general\r\n"
        "2 1\r\n"
        "1.0\r\n"
        "-4.0\r\n"};
    auto arr = read_mtx(array_input);
    ASSERT_EQ(arr.entries.size(), 2u);
    EXPECT_DOUBLE_EQ(arr.entries[1].value, -4.0);
}

TEST(MtxIo, SymmetricExpansionSurvivesWriteReadRoundTrip)
{
    std::istringstream input{
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 4.0\n"
        "2 1 1.0\n"
        "3 2 -2.0\n"
        "3 3 5.0\n"};
    auto data = read_mtx(input);
    ASSERT_EQ(data.entries.size(), 6u);  // two off-diagonals mirrored

    // The writer emits the expanded general form; reading it back must
    // reproduce the same entries, not double-mirror them.
    std::stringstream buffer;
    write_mtx(buffer, data);
    auto back = read_mtx(buffer);
    auto sorted_in = data;
    sorted_in.sort_row_major();
    auto sorted_out = back;
    sorted_out.sort_row_major();
    ASSERT_EQ(sorted_out.entries.size(), sorted_in.entries.size());
    for (std::size_t i = 0; i < sorted_in.entries.size(); ++i) {
        EXPECT_EQ(sorted_out.entries[i].row, sorted_in.entries[i].row);
        EXPECT_EQ(sorted_out.entries[i].col, sorted_in.entries[i].col);
        EXPECT_DOUBLE_EQ(sorted_out.entries[i].value,
                         sorted_in.entries[i].value);
    }
}

TEST(MtxIo, RejectsUpperTriangleInSymmetricStorage)
{
    // An upper-triangle entry in symmetric storage would silently turn
    // into a duplicate after mirroring — it must be a hard error with a
    // message naming the offending line.
    std::istringstream upper{
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 1\n"
        "1 3 2.0\n"};
    try {
        read_mtx(upper);
        FAIL() << "expected FileError";
    } catch (const FileError& e) {
        EXPECT_NE(std::string{e.what()}.find("lower-triangle"),
                  std::string::npos);
    }

    std::istringstream skew_diag{
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 1\n"
        "2 2 1.0\n"};
    try {
        read_mtx(skew_diag);
        FAIL() << "expected FileError";
    } catch (const FileError& e) {
        EXPECT_NE(std::string{e.what()}.find("skew-symmetric"),
                  std::string::npos);
    }
}


// --- Identity / Composition --------------------------------------------------

TEST(Composition, AppliesRightToLeft)
{
    auto exec = ReferenceExecutor::create();
    // A = [[0, 1], [1, 0]] (swap), B = diag(2, 3)
    matrix_data<double, int32> swap_data{dim2{2, 2}};
    swap_data.add(0, 1, 1.0);
    swap_data.add(1, 0, 1.0);
    auto a = std::shared_ptr<LinOp>{
        Csr<double, int32>::create_from_data(exec, swap_data)};
    auto b = std::shared_ptr<LinOp>{Csr<double, int32>::create_from_data(
        exec, matrix_data<double, int32>::diag({2.0, 3.0}))};
    auto comp = Composition::create({a, b});

    auto in = Dense<double>::create(exec, dim2{2, 1});
    in->at(0, 0) = 1.0;
    in->at(1, 0) = 1.0;
    auto out = Dense<double>::create(exec, dim2{2, 1});
    comp->apply(in.get(), out.get());
    // B first: (2, 3); then swap: (3, 2)
    EXPECT_DOUBLE_EQ(out->at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(out->at(1, 0), 2.0);
}

TEST(Identity, CopiesInput)
{
    auto exec = ReferenceExecutor::create();
    auto id = Identity::create(exec, 3);
    auto b = Dense<float>::create_filled(exec, dim2{3, 1}, 2.5f);
    auto x = Dense<float>::create(exec, dim2{3, 1});
    id->apply(b.get(), x.get());
    EXPECT_EQ(x->at(1, 0), 2.5f);
}

}  // namespace
