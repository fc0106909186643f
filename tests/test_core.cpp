// Unit tests for the core substrate: half arithmetic, type tags, dims,
// executors (memory spaces, dispatch, SimClock), and arrays.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include <omp.h>

#include "core/array.hpp"
#include "core/exception.hpp"
#include "core/executor.hpp"
#include "core/half.hpp"
#include "core/math.hpp"
#include "core/types.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


TEST(Half, RoundTripsSimpleValues)
{
    for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f}) {
        EXPECT_EQ(static_cast<float>(half{v}), v) << v;
    }
}

TEST(Half, RoundsToNearestEven)
{
    // 1 + 2^-11 is exactly between 1 and the next half (1 + 2^-10):
    // round-to-even picks 1.
    EXPECT_EQ(static_cast<float>(half{1.0f + std::ldexp(1.0f, -11)}), 1.0f);
    // Slightly above the midpoint rounds up.
    EXPECT_EQ(static_cast<float>(half{1.0f + std::ldexp(1.5f, -11)}),
              1.0f + std::ldexp(1.0f, -10));
}

TEST(Half, HandlesOverflowAndSpecials)
{
    EXPECT_EQ(static_cast<float>(half{1e6f}),
              std::numeric_limits<float>::infinity());
    EXPECT_EQ(static_cast<float>(half{-1e6f}),
              -std::numeric_limits<float>::infinity());
    EXPECT_TRUE(std::isnan(
        static_cast<float>(half{std::numeric_limits<float>::quiet_NaN()})));
    EXPECT_EQ(static_cast<float>(std::numeric_limits<half>::max()), 65504.0f);
}

TEST(Half, HandlesSubnormals)
{
    const float min_subnormal = std::ldexp(1.0f, -24);
    EXPECT_EQ(static_cast<float>(half{min_subnormal}), min_subnormal);
    EXPECT_EQ(half{min_subnormal}.to_bits(), 0x0001);
    // Halfway below the smallest subnormal underflows to zero.
    EXPECT_EQ(static_cast<float>(half{std::ldexp(1.0f, -26)}), 0.0f);
}

TEST(Half, Arithmetic)
{
    const half a{1.5f}, b{2.25f};
    EXPECT_EQ(static_cast<float>(a + b), 3.75f);
    EXPECT_EQ(static_cast<float>(a * b), 3.375f);
    EXPECT_EQ(static_cast<float>(-a), -1.5f);
    EXPECT_LT(a, b);
}

TEST(Types, Dim2Behaviour)
{
    const dim2 a{3, 4}, b{4, 5};
    EXPECT_EQ((a * b), (dim2{3, 5}));
    EXPECT_EQ(a.transposed(), (dim2{4, 3}));
    EXPECT_EQ(dim2{7}.rows, 7);
    EXPECT_EQ(dim2{7}.cols, 7);
    EXPECT_EQ(a.area(), 12);
    std::ostringstream os;
    os << a;
    EXPECT_EQ(os.str(), "[3 x 4]");
}

TEST(Types, DtypeStringRoundTrip)
{
    EXPECT_EQ(dtype_from_string("double"), dtype::f64);
    EXPECT_EQ(dtype_from_string("float64"), dtype::f64);
    EXPECT_EQ(dtype_from_string("single"), dtype::f32);
    EXPECT_EQ(dtype_from_string("half"), dtype::f16);
    EXPECT_EQ(itype_from_string("int32"), itype::i32);
    EXPECT_THROW(dtype_from_string("quad"), BadParameter);
    // Table 1 of the paper: sizes per type.
    EXPECT_EQ(size_of(dtype::f16), 2);
    EXPECT_EQ(size_of(dtype::f32), 4);
    EXPECT_EQ(size_of(dtype::f64), 8);
    EXPECT_EQ(size_of(itype::i32), 4);
    EXPECT_EQ(size_of(itype::i64), 8);
}

TEST(Executor, FactoryCreatesAllBackends)
{
    EXPECT_EQ(create_executor("reference")->kind(), exec_kind::reference);
    EXPECT_EQ(create_executor("omp")->kind(), exec_kind::omp);
    EXPECT_EQ(create_executor("CUDA")->kind(), exec_kind::cuda);
    EXPECT_EQ(create_executor("hip")->kind(), exec_kind::hip);
    EXPECT_EQ(create_executor("cpu")->kind(), exec_kind::omp);
    EXPECT_THROW(create_executor("tpu"), BadParameter);
}

TEST(Executor, TracksAllocations)
{
    auto exec = ReferenceExecutor::create();
    auto* p = exec->alloc<double>(100);
    EXPECT_TRUE(exec->owns(p));
    EXPECT_EQ(exec->num_allocations(), 1);
    EXPECT_EQ(exec->bytes_in_use(), 800);
    exec->free_bytes(p);
    EXPECT_FALSE(exec->owns(p));
    EXPECT_EQ(exec->bytes_in_use(), 0);
}

TEST(Executor, RejectsForeignFree)
{
    auto a = ReferenceExecutor::create();
    auto b = OmpExecutor::create(2);
    auto* p = a->alloc<int>(4);
    EXPECT_THROW(b->free_bytes(p), MemorySpaceError);
    a->free_bytes(p);
}

TEST(Executor, DeviceHasHostMaster)
{
    auto cuda = CudaExecutor::create();
    EXPECT_TRUE(cuda->is_device());
    EXPECT_FALSE(cuda->get_master()->is_device());
    auto host = ReferenceExecutor::create();
    EXPECT_EQ(host->get_master().get(), host.get());
}

TEST(Executor, RunDispatchesToBackendAndCountsLaunch)
{
    auto omp = OmpExecutor::create(2);
    const Executor* ran_on = nullptr;
    const auto launches_before = omp->num_kernel_launches();
    omp->run("probe", [&](const Executor* e) { ran_on = e; });
    EXPECT_EQ(ran_on, omp.get());
    EXPECT_EQ(omp->num_kernel_launches(), launches_before + 1);
}

TEST(Executor, DeviceLaunchAdvancesSimClock)
{
    auto cuda = CudaExecutor::create();
    const auto before = cuda->clock().now_ns();
    cuda->run("noop", [](const Executor*) {});
    // One launch costs the modeled launch latency (~6 us by default).
    EXPECT_GE(cuda->clock().now_ns() - before, 1000);
}

TEST(Executor, RealThreadsAreFixedAtCreation)
{
    const int hw = omp_get_max_threads();
    EXPECT_EQ(ReferenceExecutor::create()->real_threads(), 1);
    EXPECT_EQ(OmpExecutor::create(1)->real_threads(), 1);
    EXPECT_EQ(OmpExecutor::create(hw + 3)->real_threads(), hw);
    EXPECT_EQ(OmpExecutor::create()->real_threads(), hw);
    // The simulated devices take the OpenMP thread count when they are
    // created; a later omp_set_num_threads does not change them.
    auto cuda = CudaExecutor::create();
    auto hip = HipExecutor::create();
    EXPECT_EQ(cuda->real_threads(), hw);
    EXPECT_EQ(hip->real_threads(), hw);
    omp_set_num_threads(hw + 1);
    EXPECT_EQ(cuda->real_threads(), hw);
    EXPECT_EQ(hip->real_threads(), hw);
    EXPECT_EQ(CudaExecutor::create()->real_threads(), hw + 1);
    omp_set_num_threads(hw);
}

TEST(Executor, CrossSpaceCopyChargesTransfer)
{
    auto host = OmpExecutor::create(2);
    auto dev = CudaExecutor::create(0, host);
    array<double> on_host{host, {1.0, 2.0, 3.0}};
    const auto before = dev->clock().now_ns();
    array<double> on_dev{dev, on_host};
    EXPECT_GT(dev->clock().now_ns(), before);
    EXPECT_EQ(on_dev.at(1), 2.0);
}

TEST(Array, ConstructionAndFill)
{
    auto exec = ReferenceExecutor::create();
    array<float> a{exec, 10};
    a.fill(3.0f);
    for (size_type i = 0; i < 10; ++i) {
        EXPECT_EQ(a.at(i), 3.0f);
    }
    EXPECT_EQ(a.size(), 10);
    EXPECT_EQ(a.bytes(), 40);
}

TEST(Array, CopyAndMoveSemantics)
{
    auto exec = ReferenceExecutor::create();
    array<int32> a{exec, {1, 2, 3}};
    array<int32> b = a;  // deep copy
    b.get_data()[0] = 99;
    EXPECT_EQ(a.at(0), 1);
    EXPECT_EQ(b.at(0), 99);

    array<int32> c = std::move(a);
    EXPECT_EQ(c.at(2), 3);
    EXPECT_EQ(a.size(), 0);  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(Array, CrossExecutorCopyMovesBytes)
{
    auto host = ReferenceExecutor::create();
    auto dev = HipExecutor::create();
    array<double> a{host, {1.5, 2.5}};
    array<double> b{dev, a};
    EXPECT_EQ(b.get_executor().get(), dev.get());
    EXPECT_EQ(b.at(0), 1.5);
    EXPECT_TRUE(dev->owns(b.get_const_data()));
}

TEST(Array, ViewDoesNotOwn)
{
    auto exec = ReferenceExecutor::create();
    double buffer[4] = {1, 2, 3, 4};
    {
        auto v = array<double>::view(exec, 4, buffer);
        EXPECT_TRUE(v.is_view());
        v.get_data()[2] = 42.0;
    }
    EXPECT_EQ(buffer[2], 42.0);  // view destruction must not free
    EXPECT_EQ(exec->bytes_in_use(), 0);
}

TEST(Array, ResizeAndSetExecutor)
{
    auto host = ReferenceExecutor::create();
    auto omp = OmpExecutor::create(2);
    array<float> a{host, {1.0f, 2.0f}};
    a.set_executor(omp);
    EXPECT_EQ(a.get_executor().get(), omp.get());
    EXPECT_EQ(a.at(1), 2.0f);
    a.resize_and_reset(5);
    EXPECT_EQ(a.size(), 5);
    EXPECT_THROW(a.at(5), OutOfBounds);
}

TEST(Array, OutOfBoundsThrows)
{
    auto exec = ReferenceExecutor::create();
    array<int32> a{exec, 3};
    EXPECT_THROW(a.at(-1), OutOfBounds);
    EXPECT_THROW(a.at(3), OutOfBounds);
}

TEST(Math, HelpersCoverAllValueTypes)
{
    EXPECT_EQ(zero<half>(), half{0.0f});
    EXPECT_EQ(one<double>(), 1.0);
    EXPECT_EQ(mgko::abs(half{-2.0f}), half{2.0f});
    EXPECT_EQ(mgko::abs(-2.5), 2.5);
    EXPECT_FLOAT_EQ(static_cast<float>(mgko::sqrt(half{4.0f})), 2.0f);
    EXPECT_TRUE(is_finite(1.0f));
    EXPECT_FALSE(is_finite(std::numeric_limits<double>::infinity()));
    EXPECT_EQ(ceildiv(7, 3), 3);
    EXPECT_EQ(ceildiv(6, 3), 2);
}

TEST(SimClock, TicksAccumulateAndStopwatchMeasures)
{
    sim::SimClock clock;
    clock.tick(1500.0);
    sim::SimStopwatch watch{clock};
    clock.tick(500.0);
    EXPECT_DOUBLE_EQ(watch.elapsed_ns(), 500.0);
    EXPECT_EQ(clock.now_ns(), 2000);
    clock.reset();
    EXPECT_EQ(clock.now_ns(), 0);
}

TEST(MachineModel, BandwidthScalesWithThreads)
{
    const auto t1 = sim::MachineModel::xeon8368(1);
    const auto t8 = sim::MachineModel::xeon8368(8);
    const auto t32 = sim::MachineModel::xeon8368(32);
    EXPECT_LT(t1.bandwidth_gbps, t8.bandwidth_gbps);
    EXPECT_LT(t8.bandwidth_gbps, t32.bandwidth_gbps);
    // Saturation: 32 threads is less than 32x the single-thread bandwidth.
    EXPECT_LT(t32.bandwidth_gbps, 32 * t1.bandwidth_gbps);
    // A100 streams far more than any CPU configuration.
    EXPECT_GT(sim::MachineModel::a100().bandwidth_gbps,
              t32.bandwidth_gbps * 4);
}

TEST(MachineModel, StreamTimeRespectsImbalanceAndEfficiency)
{
    const auto m = sim::MachineModel::a100();
    const double base = m.stream_time_ns(1e6, 1.0, 1.0);
    EXPECT_NEAR(m.stream_time_ns(1e6, 2.0, 1.0), 2 * base, 1e-9);
    EXPECT_NEAR(m.stream_time_ns(1e6, 1.0, 0.5), 2 * base, 1e-9);
}

}  // namespace
