// Binding layer tests: boxed values, the registry and its funcxx_<type>
// dispatch, the Pythonic API (Listing 1 / Listing 2 flows), buffer
// protocol, overhead accounting, and parity with direct engine calls.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "core/mtx_io.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


TEST(Boxed, ScalarsRoundTrip)
{
    bind::Value v_bool{true}, v_int{std::int64_t{42}}, v_double{2.5},
        v_str{"hello"};
    EXPECT_TRUE(v_bool.as_bool());
    EXPECT_EQ(v_int.as_int(), 42);
    EXPECT_DOUBLE_EQ(v_double.as_double(), 2.5);
    EXPECT_DOUBLE_EQ(v_int.as_double(), 42.0);  // int promotes to float
    EXPECT_EQ(v_str.as_string(), "hello");
    EXPECT_TRUE(bind::Value{}.is_none());
    EXPECT_THROW(v_bool.as_int(), BadParameter);
}

TEST(Boxed, ObjectsCarryTypeTags)
{
    auto payload = std::make_shared<int>(7);
    auto v = bind::box("counter", payload);
    EXPECT_EQ(*v.as<int>("counter"), 7);
    EXPECT_THROW(v.as<int>("tensor"), BadParameter);
}

TEST(Boxed, ListsAndDictsNest)
{
    bind::List list;
    list.emplace_back(std::int64_t{1});
    bind::Dict dict;
    dict.emplace_back("k", bind::Value{2.0});
    list.emplace_back(bind::Value{dict});
    bind::Value v{list};
    EXPECT_EQ(v.as_list().size(), 2u);
    EXPECT_DOUBLE_EQ(
        v.as_list()[1].as_dict()[0].second.as_double(), 2.0);
}

TEST(Registry, RegistersFullPreInstantiatedSurface)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    // Table 1 cross product: every dtype/itype combination exists.
    for (const char* v : {"half", "float", "double"}) {
        for (const char* i : {"int32", "int64"}) {
            for (const char* f : {"csr", "coo", "ell", "hybrid", "sellcs"}) {
                EXPECT_TRUE(m.has(std::string{"matrix_apply_"} + f + "_" + v +
                                  "_" + i))
                    << v << " " << i << " " << f;
            }
            EXPECT_TRUE(m.has(std::string{"solver_gmres_"} + v + "_" + i));
            EXPECT_TRUE(m.has(std::string{"precond_ilu_"} + v + "_" + i));
            EXPECT_TRUE(m.has(std::string{"config_solver_"} + v + "_" + i));
        }
        EXPECT_TRUE(m.has(std::string{"tensor_create_"} + v));
        EXPECT_TRUE(m.has(std::string{"tensor_empty_"} + v));
    }
    EXPECT_FALSE(m.has("tensor_create_quad"));
    EXPECT_GT(m.size(), 100);
}

TEST(Registry, UnknownNameThrows)
{
    bind::ensure_bindings_registered();
    EXPECT_THROW(bind::Module::instance().call("no_such_fn", {}),
                 BadParameter);
}

TEST(BindApi, DeviceFactoryMapsNames)
{
    EXPECT_EQ(bind::device("cuda").executor()->kind(), exec_kind::cuda);
    EXPECT_EQ(bind::device("hip").executor()->kind(), exec_kind::hip);
    EXPECT_EQ(bind::device("omp").executor()->kind(), exec_kind::omp);
    EXPECT_EQ(bind::device("reference").executor()->kind(),
              exec_kind::reference);
    EXPECT_THROW(bind::device("quantum"), BadParameter);
}

TEST(BindApi, TensorLifecycle)
{
    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{4, 2}, "double", 1.5);
    EXPECT_EQ(t.shape(), (dim2{4, 2}));
    EXPECT_EQ(t.dtype_name(), "double");
    EXPECT_DOUBLE_EQ(t.item(3, 1), 1.5);
    t.set_item(0, 0, -2.0);
    EXPECT_DOUBLE_EQ(t.item(0, 0), -2.0);
    t.fill(3.0);
    EXPECT_DOUBLE_EQ(t.item(0, 0), 3.0);
    EXPECT_NEAR(t.norm(), std::sqrt(8 * 9.0), 1e-12);

    auto host = t.to_host();
    EXPECT_EQ(host.size(), 8u);
    EXPECT_DOUBLE_EQ(host[5], 3.0);
}

TEST(BindApi, TensorVectorOps)
{
    auto dev = bind::device("omp");
    auto x = bind::as_tensor(dev, dim2{5, 1}, "double", 2.0);
    auto y = bind::as_tensor(dev, dim2{5, 1}, "double", 3.0);
    EXPECT_DOUBLE_EQ(x.dot(y), 30.0);
    x.add_scaled(0.5, y);  // 3.5 each
    EXPECT_DOUBLE_EQ(x.item(4), 3.5);
    x.scale(2.0);
    EXPECT_DOUBLE_EQ(x.item(0), 7.0);
    auto c = x.clone();
    c.fill(0.0);
    EXPECT_DOUBLE_EQ(x.item(0), 7.0);  // clone is deep
}

TEST(BindApi, TensorMatmulAndTransposeMatmul)
{
    auto dev = bind::device("reference");
    auto a = bind::as_tensor(dev, {1, 2, 3, 4}, dim2{2, 2}, "double");
    auto b = bind::as_tensor(dev, {5, 6}, dim2{2, 1}, "double");
    auto ab = a.matmul(b);
    EXPECT_DOUBLE_EQ(ab.item(0), 17.0);
    EXPECT_DOUBLE_EQ(ab.item(1), 39.0);
    auto atb = a.t_matmul(b);
    EXPECT_DOUBLE_EQ(atb.item(0), 1 * 5 + 3 * 6);
    EXPECT_DOUBLE_EQ(atb.item(1), 2 * 5 + 4 * 6);
}

/// Element-wise bitwise equality of two host vectors.
::testing::AssertionResult same_host_bits(const std::vector<double>& expected,
                                          const std::vector<double>& actual)
{
    if (expected.size() != actual.size()) {
        return ::testing::AssertionFailure()
               << "size " << actual.size() << ", expected " << expected.size();
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                   << "differs at " << i << ": expected " << expected[i]
                   << ", got " << actual[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/// `host` as the tensor of value type V stores it, read back as double.
template <typename V>
std::vector<double> stored_as(const std::vector<double>& host)
{
    std::vector<double> result;
    for (const double v : host) {
        result.push_back(to_float(static_cast<V>(v)));
    }
    return result;
}

TEST(BindApi, TensorHostRoundTripKeepsEveryBit)
{
    // 1/3 rounds differently in each type; 65504 is half's largest finite
    // value; 2^-24 is half's smallest subnormal, 2^-140 a float subnormal
    // and 2^-1070 a double subnormal.
    const std::vector<double> host{1.0 / 3.0,
                                   65504.0,
                                   std::ldexp(1.0, -24),
                                   std::ldexp(1.0, -140),
                                   std::ldexp(1.0, -1070),
                                   -0.0,
                                   -2.5,
                                   7.0};
    const auto in_half = stored_as<half>(host);
    EXPECT_EQ(in_half[1], 65504.0);
    EXPECT_EQ(in_half[2], std::ldexp(1.0, -24));
    for (const char* dev_name : {"reference", "omp", "cuda"}) {
        auto dev = bind::device(dev_name);
        for (const auto& [dt, expected] :
             {std::pair<const char*, std::vector<double>>{"half", in_half},
              {"float", stored_as<float>(host)},
              {"double", host}}) {
            SCOPED_TRACE(std::string{dev_name} + " " + dt);
            auto t = bind::as_tensor(dev, host, dim2{4, 2}, dt);
            EXPECT_TRUE(same_host_bits(expected, t.to_host()));
            // The import fills row-major: (r, c) is host[2 r + c].
            EXPECT_EQ(t.item(3, 0), expected[6]);
            // A second export is a fresh vector, not the first one moved.
            EXPECT_TRUE(same_host_bits(expected, t.to_host()));
        }
    }
}

TEST(BindApi, EmptyTensorsExportNothing)
{
    auto dev = bind::device("omp");
    for (const char* dt : {"half", "float", "double"}) {
        for (const dim2 dims : {dim2{0, 3}, dim2{3, 0}, dim2{0, 0}}) {
            auto filled = bind::as_tensor(dev, dims, dt, 1.0);
            EXPECT_EQ(filled.shape(), dims);
            EXPECT_TRUE(filled.to_host().empty()) << dt;
            auto imported = bind::as_tensor(dev, std::vector<double>{}, dims,
                                            dt);
            EXPECT_EQ(imported.shape(), dims);
            EXPECT_TRUE(imported.to_host().empty()) << dt;
        }
    }
}

TEST(BindApi, ViewsExportTheirOwnElements)
{
    auto dev = bind::device("reference");
    double buffer[6] = {1, 2, 3, 4, 5, 6};
    auto view = bind::from_buffer(dev, buffer, dim2{3, 2});
    buffer[3] = -4.0;
    EXPECT_TRUE(same_host_bits({1, 2, 3, -4, 5, 6}, view.to_host()));

    // A strided view (columns 1 and 2 of a 3 x 4 block) exports only its
    // own columns, row-major.
    double block[12] = {0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23};
    auto strided = bind::Tensor::wrap(
        dtype::f64,
        std::shared_ptr<LinOp>{Dense<double>::create_view(
            dev.executor(), dim2{3, 2}, block + 1, 4)});
    EXPECT_TRUE(same_host_bits({1, 2, 11, 12, 21, 22}, strided.to_host()));
}

template <typename V>
void expect_binding_products_match_dense(const bind::Device& dev,
                                         const char* dt)
{
    std::mt19937_64 engine{21};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    auto random = [&](dim2 dims) {
        std::vector<double> host(static_cast<std::size_t>(dims.area()));
        for (auto& v : host) {
            v = dist(engine);
        }
        return bind::as_tensor(dev, host, dims, dt);
    };
    auto dense = [](const bind::Tensor& t) {
        return std::static_pointer_cast<Dense<V>>(t.op());
    };
    for (const dim2 shape :
         {dim2{300, 8}, dim2{300, 1}, dim2{37, 9}, dim2{37, 3}}) {
        const auto m = shape.rows;
        const auto k = shape.cols;
        auto a = random(shape);
        for (const size_type n : {1, 3, 8, 17}) {
            SCOPED_TRACE(std::string{dt} + " " + std::to_string(m) + "x" +
                         std::to_string(k) + " n " + std::to_string(n));
            auto b = random(dim2{k, n});
            auto direct = Dense<V>::create(dev.executor(), dim2{m, n});
            dense(a)->apply(dense(b).get(), direct.get());
            auto via_binding = a.matmul(b);
            EXPECT_TRUE(same_host_bits(
                bind::Tensor::wrap(a.value_type(), std::move(direct))
                    .to_host(),
                via_binding.to_host()))
                << "matmul";

            auto c = random(dim2{m, n});
            auto direct_t = Dense<V>::create(dev.executor(), dim2{k, n});
            dense(a)->transpose_apply(dense(c).get(), direct_t.get());
            auto via_binding_t = a.t_matmul(c);
            EXPECT_TRUE(same_host_bits(
                bind::Tensor::wrap(a.value_type(), std::move(direct_t))
                    .to_host(),
                via_binding_t.to_host()))
                << "t_matmul";
        }
    }
}

TEST(BindApi, MatmulAndTransposeMatmulEqualDirectDenseCalls)
{
    for (const char* dev_name : {"reference", "omp"}) {
        auto dev = bind::device(dev_name);
        expect_binding_products_match_dense<half>(dev, "half");
        expect_binding_products_match_dense<float>(dev, "float");
        expect_binding_products_match_dense<double>(dev, "double");
    }
}

TEST(BindApi, HalfAndFloatTensorsDispatchCorrectly)
{
    auto dev = bind::device("reference");
    for (const char* dt : {"half", "float", "double"}) {
        auto t = bind::as_tensor(dev, dim2{3, 1}, dt, 1.25);
        EXPECT_DOUBLE_EQ(t.item(2), 1.25) << dt;
        EXPECT_EQ(t.dtype_name(),
                  to_string(dtype_from_string(dt)));
    }
}

TEST(BindApi, BufferProtocolViewsShareMemory)
{
    auto dev = bind::device("reference");
    double buffer[6] = {1, 2, 3, 4, 5, 6};
    auto view = bind::from_buffer(dev, buffer, dim2{3, 2});
    EXPECT_DOUBLE_EQ(view.item(2, 1), 6.0);
    view.set_item(0, 0, 42.0);
    EXPECT_DOUBLE_EQ(buffer[0], 42.0);  // zero copy: writes hit the buffer

    float fbuffer[4] = {1.f, 2.f, 3.f, 4.f};
    auto fview = bind::from_buffer(dev, fbuffer, dim2{4, 1});
    EXPECT_EQ(fview.dtype_name(), "float");
    EXPECT_DOUBLE_EQ(fview.item(3), 4.0);
}

TEST(BindApi, MatrixFromDataAndSpmvMatchesEngine)
{
    auto dev = bind::device("cuda");
    const size_type n = 50;
    const auto data64 = test::random_sparse<double, int64>(n, 5, 3);
    auto mtx = bind::matrix_from_data(dev, data64, "double", "Csr", "int32");
    EXPECT_EQ(mtx.shape(), (dim2{n, n}));
    EXPECT_GT(mtx.nnz(), n);

    auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    auto x = mtx.spmv(b);

    // Direct engine computation for comparison.
    auto exec = dev.executor();
    auto engine_mat = Csr<double, int32>::create_from_data(
        exec, data64.cast<double, int32>());
    auto eb = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto ex = Dense<double>::create(exec, dim2{n, 1});
    engine_mat->apply(eb.get(), ex.get());
    for (size_type i = 0; i < n; ++i) {
        EXPECT_NEAR(x.item(i), ex->at(i, 0), 1e-13);
    }
}

/// The first element of a tensor of value type V.
template <typename V>
const V* tensor_data(const bind::Tensor& t)
{
    return as_dense<V>(t.op().get())->get_const_values();
}

/// Matrix::spmv allocates its output with bind::empty.  Each case first
/// frees a NaN-filled block of the output's size, so the pool hands that
/// block to spmv, and spmv must still equal an apply into zeros bitwise.
template <typename V>
void expect_spmv_overwrites_a_reused_block(const bind::Device& dev,
                                           const char* dtype,
                                           const char* itype)
{
    const size_type n = 97;  // not a multiple of the SELL-C-σ slice
    const auto data = test::random_sparse<double, int64>(n, 5, 11);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const char* format : {"Csr", "Coo", "Ell", "Hybrid", "Sellcs"}) {
        auto m = bind::matrix_from_data(dev, data, dtype, format, itype);
        for (const size_type k : {size_type{1}, size_type{3}}) {
            std::vector<double> host(static_cast<std::size_t>(n * k));
            for (std::size_t i = 0; i < host.size(); ++i) {
                host[i] = std::sin(1.0 + static_cast<double>(i));
            }
            auto b = bind::as_tensor(dev, host, dim2{n, k}, dtype);
            auto zeros = bind::as_tensor(dev, dim2{n, k}, dtype, 0.0);
            m.apply(b, zeros);
            const V* freed = nullptr;
            {
                auto poisoned = bind::as_tensor(dev, dim2{n, k}, dtype, nan);
                freed = tensor_data<V>(poisoned);
            }
            const auto launches = dev.executor()->num_kernel_launches();
            auto x = m.spmv(b);
            const auto spmv_launches =
                dev.executor()->num_kernel_launches() - launches;
            const auto where = std::string{dev.name()} + " " + format + " " +
                               dtype + " " + itype + ", " +
                               std::to_string(k) + " columns";
            ASSERT_EQ(tensor_data<V>(x), freed)
                << where << ": the pool did not hand back the NaN block";
            EXPECT_TRUE(same_host_bits(zeros.to_host(), x.to_host()))
                << where;
            if (std::string{format} == "Csr") {
                // The apply alone: no fill kernel before it.
                EXPECT_EQ(spmv_launches, 1u) << where;
            }
        }
    }
}

TEST(BindApi, SpmvOverwritesAnUninitializedOutputInEveryFormat)
{
    for (auto exec : std::vector<std::shared_ptr<Executor>>{
             ReferenceExecutor::create(), OmpExecutor::create(4)}) {
        const bind::Device dev{exec};
        for (const char* itype : {"int32", "int64"}) {
            expect_spmv_overwrites_a_reused_block<double>(dev, "double",
                                                          itype);
            expect_spmv_overwrites_a_reused_block<float>(dev, "float", itype);
        }
    }
}

TEST(BindApi, EmptyTensorHasTheRequestedShapeAndLaunchesNothing)
{
    for (const char* dt : {"half", "float", "double"}) {
        auto dev = bind::device("omp");
        const auto launches = dev.executor()->num_kernel_launches();
        auto t = bind::empty(dev, dim2{5, 3}, dt);
        EXPECT_EQ(dev.executor()->num_kernel_launches(), launches) << dt;
        EXPECT_EQ(t.shape(), (dim2{5, 3})) << dt;
        EXPECT_EQ(t.dtype_name(), to_string(dtype_from_string(dt)));
        t.fill(2.0);
        EXPECT_DOUBLE_EQ(t.item(4, 2), 2.0) << dt;
    }
}

TEST(BindApi, ReadLoadsMatrixMarketFiles)
{
    const auto path = std::string{::testing::TempDir()} + "/bind_read.mtx";
    {
        std::ofstream out{path};
        out << "%%MatrixMarket matrix coordinate real general\n"
            << "2 2 3\n"
            << "1 1 2.0\n1 2 -1.0\n2 2 4.0\n";
    }
    auto dev = bind::device("reference");
    auto mtx = bind::read(dev, path, "double", "Csr");
    EXPECT_EQ(mtx.shape(), (dim2{2, 2}));
    EXPECT_EQ(mtx.nnz(), 3);
    auto b = bind::as_tensor(dev, dim2{2, 1}, "double", 1.0);
    auto x = mtx.spmv(b);
    EXPECT_DOUBLE_EQ(x.item(0), 1.0);
    EXPECT_DOUBLE_EQ(x.item(1), 4.0);
    EXPECT_THROW(bind::read(dev, "/nonexistent.mtx"), FileError);
}

TEST(BindApi, FormatConversions)
{
    auto dev = bind::device("reference");
    const auto data = test::random_sparse<double, int64>(30, 4, 9);
    auto csr = bind::matrix_from_data(dev, data, "double", "Csr");
    auto coo = csr.to_format("Coo");
    EXPECT_EQ(coo.format(), "Coo");
    EXPECT_EQ(coo.nnz(), csr.nnz());
    auto ell = csr.to_format("Ell");
    auto sellcs = csr.to_format("Sellcs");
    EXPECT_EQ(sellcs.format(), "Sellcs");
    auto b = bind::as_tensor(dev, dim2{30, 1}, "double", 1.0);
    auto x1 = csr.spmv(b);
    auto x2 = coo.spmv(b);
    auto x3 = ell.spmv(b);
    auto x4 = sellcs.spmv(b);
    auto x5 = sellcs.to_format("Csr").spmv(b);
    for (size_type i = 0; i < 30; ++i) {
        EXPECT_NEAR(x1.item(i), x2.item(i), 1e-12);
        EXPECT_NEAR(x1.item(i), x3.item(i), 1e-12);
        EXPECT_NEAR(x1.item(i), x4.item(i), 1e-12);
        EXPECT_NEAR(x1.item(i), x5.item(i), 1e-12);
    }
}

TEST(BindApi, ConfigSolverWithFormatReorderAndInnerPrecisionKeys)
{
    // The tentpole trio through the binding layer: SELL-C-σ storage, RCM
    // reordering (the logger is recovered through the ReorderedOperator
    // wrapper), and reduced-precision inner IR.
    auto dev = bind::device("cuda");
    const size_type n = 64;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);

    auto cfg = config::Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 1000,
        "reduction_factor": 1e-10,
        "format": "sellcs",
        "reorder": "rcm"
    })");
    auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    auto [logger, result] = bind::solve(dev, mtx, b, x, cfg);
    EXPECT_TRUE(logger.valid());
    EXPECT_TRUE(logger.converged());
    EXPECT_LT(logger.final_residual_norm(), 1e-8);

    auto ir_cfg = config::Json::parse(R"({
        "type": "solver::Ir",
        "max_iters": 5000,
        "reduction_factor": 1e-8,
        "inner_precision": "float"
    })");
    auto x2 = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    auto [ir_logger, ir_result] = bind::solve(dev, mtx, b, x2, ir_cfg);
    EXPECT_TRUE(ir_logger.valid());
    EXPECT_TRUE(ir_logger.converged());

    auto bad = config::Json::parse(R"({
        "type": "solver::Cg",
        "max_iters": 10,
        "format": "bsr"
    })");
    auto x3 = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    EXPECT_THROW(bind::solve(dev, mtx, b, x3, bad), BadParameter);
}

TEST(BindApi, Listing1FlowGmresWithIlu)
{
    // The paper's Listing 1, minus the file on disk.
    auto dev = bind::device("cuda");
    const size_type n = 80;
    auto mtx = bind::matrix_from_data(
        dev, test::random_sparse<double, int64>(n, 5, 21), "double", "Csr");
    auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    auto precond = bind::preconditioner::ilu(dev, mtx);
    auto solver = bind::solver::gmres(dev, mtx, precond, 1000, 30, 1e-8);
    auto [logger, result] = solver.apply(b, x);
    EXPECT_TRUE(logger.valid());
    EXPECT_TRUE(logger.converged());
    EXPECT_LT(logger.final_residual_norm(), 1e-6);
    EXPECT_GT(logger.num_iterations(), 0);
    // result aliases x
    EXPECT_DOUBLE_EQ(result.item(0), x.item(0));
}

TEST(BindApi, Listing2FlowConfigSolver)
{
    // The paper's Listing 2: dict-driven GMRES + Jacobi on a device.
    auto dev = bind::device("cuda");
    const size_type n = 64;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    auto cfg = config::Json::parse(R"({
        "type": "solver::Gmres",
        "krylov_dim": 30,
        "max_iters": 1000,
        "reduction_factor": 1e-08,
        "preconditioner": {"type": "preconditioner::Jacobi",
                           "max_block_size": 1}
    })");
    auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
    auto [logger, result] = bind::solve(dev, mtx, b, x, cfg);
    EXPECT_TRUE(logger.converged());
    EXPECT_LT(logger.final_residual_norm(), 1e-6);
}

TEST(BindApi, AllDirectSolverBindingsConverge)
{
    auto dev = bind::device("omp");
    const size_type n = 64;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    auto run = [&](bind::Solver solver) {
        auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
        auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
        auto [logger, result] = solver.apply(b, x);
        EXPECT_TRUE(logger.converged());
    };
    run(bind::solver::cg(dev, mtx, {}, 2000, 1e-9));
    run(bind::solver::cgs(dev, mtx, {}, 2000, 1e-9));
    run(bind::solver::bicgstab(dev, mtx, {}, 2000, 1e-9));
    run(bind::solver::fcg(dev, mtx, {}, 2000, 1e-9));
    run(bind::solver::gmres(dev, mtx, {}, 2000, 30, 1e-9));
}

TEST(BindApi, JacobiAndIcPreconditionersThroughBindings)
{
    auto dev = bind::device("omp");
    const size_type n = 96;
    auto mtx = bind::matrix_from_data(
        dev, test::laplacian_1d<double, int64>(n).cast<double, int64>(),
        "double", "Csr");
    for (auto precond :
         {bind::preconditioner::jacobi(dev, mtx, 4),
          bind::preconditioner::ic(dev, mtx)}) {
        auto solver = bind::solver::cg(dev, mtx, precond, 2000, 1e-9);
        auto b = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
        auto x = bind::as_tensor(dev, dim2{n, 1}, "double", 0.0);
        auto [logger, result] = solver.apply(b, x);
        EXPECT_TRUE(logger.converged());
    }
}

TEST(BindApi, TriangularSolverBindings)
{
    auto dev = bind::device("reference");
    matrix_data<double, int64> lower{dim2{3, 3}};
    lower.add(0, 0, 2.0);
    lower.add(1, 0, 1.0);
    lower.add(1, 1, 2.0);
    lower.add(2, 2, 2.0);
    auto mtx = bind::matrix_from_data(dev, lower, "double", "Csr");
    auto solver = bind::solver::lower_trs(dev, mtx);
    auto b = bind::as_tensor(dev, dim2{3, 1}, "double", 2.0);
    auto x = bind::as_tensor(dev, dim2{3, 1}, "double", 0.0);
    auto [logger, result] = solver.apply(b, x);
    EXPECT_FALSE(logger.valid());  // direct solver: no convergence log
    EXPECT_DOUBLE_EQ(x.item(0), 1.0);
    EXPECT_DOUBLE_EQ(x.item(1), 0.5);
    EXPECT_DOUBLE_EQ(x.item(2), 1.0);
}

TEST(BindApi, MismatchedDtypeDispatchFailsCleanly)
{
    auto dev = bind::device("reference");
    auto mtx = bind::matrix_from_data(
        dev, test::random_sparse<double, int64>(10, 3, 1), "float", "Csr");
    auto b = bind::as_tensor(dev, dim2{10, 1}, "double", 1.0);
    auto x = bind::as_tensor(dev, dim2{10, 1}, "double", 0.0);
    // float matrix with double vectors: the composed binding exists but the
    // unboxing type check fires.
    EXPECT_THROW(mtx.apply(b, x), BadParameter);
}

TEST(BindApi, OverheadIsChargedToTheClock)
{
    auto dev = bind::device("cuda");
    auto exec = dev.executor();
    auto t = bind::as_tensor(dev, dim2{16, 1}, "double", 1.0);
    const auto before = exec->clock().now_ns();
    (void)t.norm();
    const auto delta = exec->clock().now_ns() - before;
    // At least the modeled interpreter constant + kernel launch must have
    // been charged.
    EXPECT_GT(delta, static_cast<std::int64_t>(bind::interpreter_call_ns()));
}

TEST(BindApi, DeviceTransfersThroughBindings)
{
    auto host_dev = bind::device("omp");
    auto cuda_dev = bind::device("cuda");
    auto t = bind::as_tensor(host_dev, dim2{8, 1}, "double", 2.5);
    auto on_dev = t.to(cuda_dev);
    EXPECT_EQ(on_dev.device().executor()->kind(), exec_kind::cuda);
    EXPECT_DOUBLE_EQ(on_dev.item(7), 2.5);
}

}  // namespace
