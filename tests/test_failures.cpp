// Failure injection: error paths across module boundaries must fail with
// typed exceptions and leave state intact.
#include <gtest/gtest.h>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "core/mtx_io.hpp"
#include "matrix/csr.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


TEST(Failures, DuplicateBindingRegistrationThrows)
{
    bind::ensure_bindings_registered();
    auto& m = bind::Module::instance();
    m.def("failure_probe", [](const bind::List&) { return bind::Value{}; });
    EXPECT_THROW(
        m.def("failure_probe", [](const bind::List&) { return bind::Value{}; }),
        BadParameter);
    // The original registration still works.
    EXPECT_NO_THROW(m.call("failure_probe", {}));
}

TEST(Failures, ExceptionInsideKernelPropagatesThroughRun)
{
    auto exec = ReferenceExecutor::create();
    EXPECT_THROW(exec->run("explode",
                           [](const Executor*) {
                               throw NumericalError(__FILE__, __LINE__,
                                                    "injected");
                           }),
                 NumericalError);
    // The executor remains usable afterwards.
    auto* p = exec->alloc<double>(8);
    exec->free_bytes(p);
}

TEST(Failures, WriteMtxToUnwritablePathThrows)
{
    matrix_data<double, int64> data{dim2{1, 1}};
    data.add(0, 0, 1.0);
    EXPECT_THROW(write_mtx("/nonexistent_dir/out.mtx", data), FileError);
}

TEST(Failures, BindingErrorsDoNotCorruptHandles)
{
    auto dev = bind::device("reference");
    auto mtx = bind::matrix_from_data(
        dev, test::random_sparse<double, int64>(10, 3, 1), "double", "Csr");
    auto b = bind::as_tensor(dev, dim2{5, 1}, "double", 1.0);  // wrong size
    auto x = bind::as_tensor(dev, dim2{10, 1}, "double", 0.0);
    EXPECT_THROW(mtx.apply(b, x), DimensionMismatch);
    // Handles survive the failed call.
    auto good_b = bind::as_tensor(dev, dim2{10, 1}, "double", 1.0);
    EXPECT_NO_THROW(mtx.apply(good_b, x));
}

TEST(Failures, SolverSurvivesBreakdownAndReportsIt)
{
    auto exec = ReferenceExecutor::create();
    // Zero matrix: CG breaks down immediately (p'Ap == 0).
    matrix_data<double, int32> data{dim2{4, 4}};
    data.add(0, 0, 0.0);
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(exec, data)};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(10))
                      .on(exec)
                      ->generate(a);
    auto b = Dense<double>::create_filled(exec, dim2{4, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{4, 1}, 0.0);
    EXPECT_NO_THROW(solver->apply(b.get(), x.get()));
    auto logger =
        dynamic_cast<solver::Cg<double>*>(solver.get())->get_logger();
    EXPECT_FALSE(logger->has_converged());
    EXPECT_NE(logger->stop_reason().find("breakdown"), std::string::npos);
}

TEST(Failures, EmptyAndDegenerateMatricesAreHandled)
{
    auto exec = ReferenceExecutor::create();
    // Empty matrix applies to empty vectors without touching memory.
    matrix_data<double, int32> empty{dim2{0, 0}};
    auto mat = Csr<double, int32>::create_from_data(exec, empty);
    auto b = Dense<double>::create(exec, dim2{0, 1});
    auto x = Dense<double>::create(exec, dim2{0, 1});
    EXPECT_NO_THROW(mat->apply(b.get(), x.get()));

    // 1x1 system end to end.
    matrix_data<double, int32> tiny{dim2{1, 1}};
    tiny.add(0, 0, 2.0);
    auto one = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(exec, tiny)};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(5))
                      .with_criteria(stop::residual_norm(1e-14))
                      .on(exec)
                      ->generate(one);
    auto b1 = Dense<double>::create_filled(exec, dim2{1, 1}, 6.0);
    auto x1 = Dense<double>::create_filled(exec, dim2{1, 1}, 0.0);
    solver->apply(b1.get(), x1.get());
    EXPECT_NEAR(x1->at(0, 0), 3.0, 1e-12);
}

TEST(Failures, NullOperandsRejected)
{
    auto exec = ReferenceExecutor::create();
    auto mat = Csr<double, int32>::create_from_data(
        exec, test::laplacian_1d<double, int32>(4));
    auto b = Dense<double>::create(exec, dim2{4, 1});
    EXPECT_THROW(mat->apply(nullptr, b.get()), BadParameter);
    EXPECT_THROW(mat->apply(b.get(), nullptr), BadParameter);
}

}  // namespace
