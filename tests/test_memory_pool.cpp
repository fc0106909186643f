// The pooled executor allocator: alignment, pooled-reuse invariants of
// owns()/bytes_in_use(), cross-executor free validation, hit/miss
// accounting, trim(), the high-watermark, and a multi-threaded alloc/free
// stress test.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/array.hpp"
#include "core/executor.hpp"
#include "core/memory_pool.hpp"
#include "log/flight_recorder.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;


TEST(MemoryPool, KeepsSixtyFourByteAlignmentThroughReuse)
{
    auto exec = ReferenceExecutor::create();
    // Odd sizes from several size classes, allocated, freed, and
    // re-allocated out of the pool: every pointer must stay 64-byte
    // aligned.
    for (const size_type bytes : {1, 63, 65, 100, 4097, 70000}) {
        void* first = exec->alloc_bytes(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u);
        exec->free_bytes(first);
        void* second = exec->alloc_bytes(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second) % 64, 0u);
        exec->free_bytes(second);
    }
}

TEST(MemoryPool, ReusesFreedBlocksAndCountsHits)
{
    auto exec = ReferenceExecutor::create();
    void* p = exec->alloc_bytes(1000);
    EXPECT_EQ(exec->pool_misses(), 1);
    EXPECT_EQ(exec->pool_hits(), 0);
    exec->free_bytes(p);
    EXPECT_GT(exec->pool_bytes_cached(), 0);

    // Same size class: must come out of the pool (same block, even).
    void* q = exec->alloc_bytes(990);
    EXPECT_EQ(q, p);
    EXPECT_EQ(exec->pool_hits(), 1);
    EXPECT_EQ(exec->pool_misses(), 1);
    EXPECT_EQ(exec->num_allocations(), 1);  // still one system allocation
    EXPECT_EQ(exec->pool_bytes_cached(), 0);
    exec->free_bytes(q);
}

TEST(MemoryPool, OwnsAndBytesInUseStayCorrectThroughReuse)
{
    auto exec = ReferenceExecutor::create();
    auto* p = exec->alloc<double>(100);
    EXPECT_TRUE(exec->owns(p));
    EXPECT_EQ(exec->num_live_allocations(), 1);
    EXPECT_EQ(exec->bytes_in_use(), 800);

    exec->free_bytes(p);
    // Freed-to-pool blocks are NOT owned and NOT in use...
    EXPECT_FALSE(exec->owns(p));
    EXPECT_EQ(exec->num_live_allocations(), 0);
    EXPECT_EQ(exec->bytes_in_use(), 0);
    EXPECT_THROW(exec->free_bytes(p), MemorySpaceError);  // double free

    // ...until the pool hands them out again.
    auto* q = exec->alloc<double>(100);
    EXPECT_TRUE(exec->owns(q));
    EXPECT_EQ(exec->bytes_in_use(), 800);
    exec->free_bytes(q);
}

TEST(MemoryPool, CrossExecutorFreeStillThrows)
{
    auto a = ReferenceExecutor::create();
    auto b = OmpExecutor::create(2);
    auto* p = a->alloc<int>(4);
    EXPECT_THROW(b->free_bytes(p), MemorySpaceError);
    a->free_bytes(p);
    // Even a pooled (freed) block of `a` must not be freeable through `b`.
    EXPECT_THROW(b->free_bytes(p), MemorySpaceError);
}

TEST(MemoryPool, TrimReleasesTheCacheAndWatermarkRemembersThePeak)
{
    auto exec = ReferenceExecutor::create();
    void* p = exec->alloc_bytes(256);
    void* q = exec->alloc_bytes(8192);
    exec->free_bytes(p);
    exec->free_bytes(q);
    const auto cached = exec->pool_bytes_cached();
    EXPECT_GE(cached, 256 + 8192);
    EXPECT_GE(exec->pool_high_watermark(), cached);

    const auto released = exec->trim_pool();
    EXPECT_EQ(released, cached);
    EXPECT_EQ(exec->pool_bytes_cached(), 0);
    // The watermark is a lifetime peak; trimming must not reset it.
    EXPECT_GE(exec->pool_high_watermark(), cached);

    // After a trim the next allocation is a fresh system allocation.
    const auto misses_before = exec->pool_misses();
    void* r = exec->alloc_bytes(256);
    EXPECT_EQ(exec->pool_misses(), misses_before + 1);
    exec->free_bytes(r);
}

TEST(MemoryPool, SteadyStateAllocFreeLoopIsSystemAllocationFree)
{
    auto exec = ReferenceExecutor::create();
    // Warm-up pass.
    for (const size_type bytes : {64, 640, 6400}) {
        exec->free_bytes(exec->alloc_bytes(bytes));
    }
    const auto system_allocs = exec->num_allocations();
    for (int repeat = 0; repeat < 100; ++repeat) {
        for (const size_type bytes : {64, 640, 6400}) {
            exec->free_bytes(exec->alloc_bytes(bytes));
        }
    }
    EXPECT_EQ(exec->num_allocations(), system_allocs);
    EXPECT_EQ(exec->pool_hits(), 3 * 100);
}

TEST(MemoryPool, OversizeRequestsBypassTheCache)
{
    auto exec = ReferenceExecutor::create();
    // Past the largest cached size class (64 MiB) the pool must not
    // retain blocks.
    const size_type huge = (size_type{1} << 26) + 64;
    void* p = exec->alloc_bytes(huge);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(exec->owns(p));
    const auto cached_before = exec->pool_bytes_cached();
    exec->free_bytes(p);
    EXPECT_EQ(exec->pool_bytes_cached(), cached_before);
}

TEST(MemoryPool, ConcurrentAllocFreeStress)
{
    auto exec = OmpExecutor::create(4);
    constexpr int num_threads = 8;
    constexpr int iterations = 2000;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<void*> held;
            held.reserve(8);
            for (int i = 0; i < iterations; ++i) {
                // Mix size classes per thread; hold a few blocks to force
                // interleaved frees from different threads.
                const size_type bytes =
                    64 * ((t + 1) * (i % 7 + 1)) + (i % 3) * 4096;
                void* p = exec->alloc_bytes(bytes);
                ASSERT_NE(p, nullptr);
                // Touch the block: catches handed-out-twice bugs under
                // ASan and keeps the compiler honest.
                static_cast<char*>(p)[0] = static_cast<char>(t);
                static_cast<char*>(p)[bytes - 1] = static_cast<char>(i);
                held.push_back(p);
                if (held.size() >= 8 || i % 5 == 0) {
                    exec->free_bytes(held.back());
                    held.pop_back();
                }
            }
            for (void* p : held) {
                exec->free_bytes(p);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(exec->num_live_allocations(), 0);
    EXPECT_EQ(exec->bytes_in_use(), 0);
    EXPECT_EQ(exec->pool_hits() + exec->pool_misses(),
              static_cast<size_type>(num_threads) * iterations);
}

TEST(MemoryPool, ClassifyRoundsSmallAndPow2Classes)
{
    // Zero-byte requests land in the smallest class; the small range is
    // 64-byte multiples, the large range power-of-two classes.
    EXPECT_EQ(detail::MemoryPool::classify(0).bucket, 0u);
    EXPECT_EQ(detail::MemoryPool::classify(0).class_bytes, 64u);
    EXPECT_EQ(detail::MemoryPool::classify(1).bucket, 0u);
    EXPECT_EQ(detail::MemoryPool::classify(1).class_bytes, 64u);
    EXPECT_EQ(detail::MemoryPool::classify(64).bucket, 0u);
    EXPECT_EQ(detail::MemoryPool::classify(65).bucket, 1u);
    EXPECT_EQ(detail::MemoryPool::classify(65).class_bytes, 128u);
    EXPECT_EQ(detail::MemoryPool::classify(4096).class_bytes, 4096u);
    EXPECT_EQ(detail::MemoryPool::classify(4097).class_bytes, 8192u);
}

TEST(MemoryPool, ClassifyNearSizeMaxGoesOversizeInsteadOfWrapping)
{
    // Rounding `requested` up to the next 64-byte multiple overflows for
    // requests within 63 bytes of SIZE_MAX; the old code wrapped to 0 and
    // indexed a bucket that does not exist.  Such requests can never be
    // cached, so they belong in the oversize bucket, unrounded.
    const auto max = std::numeric_limits<std::size_t>::max();
    for (const std::size_t bytes : {max, max - 1, max - 62, max - 63}) {
        const auto cls = detail::MemoryPool::classify(bytes);
        EXPECT_EQ(cls.bucket, detail::MemoryPool::oversize_bucket) << bytes;
        EXPECT_GE(cls.class_bytes, bytes) << bytes;
    }
    // Just past the largest cached class (64 MiB): oversize, but still
    // rounded to the alignment like every other request.
    const auto just_over = (std::size_t{1} << 26) + 1;
    const auto cls = detail::MemoryPool::classify(just_over);
    EXPECT_EQ(cls.bucket, detail::MemoryPool::oversize_bucket);
    EXPECT_EQ(cls.class_bytes, (std::size_t{1} << 26) + 64);
    // The largest class itself is still cacheable.
    EXPECT_LT(detail::MemoryPool::classify(std::size_t{1} << 26).bucket,
              detail::MemoryPool::oversize_bucket);
}

TEST(MemoryPool, ConcurrentStressWithEventLoggerAttached)
{
    // The ConcurrentAllocFreeStress workload with a private flight
    // recorder attached: under MGKO_SANITIZE=thread this checks the event
    // hooks themselves (pool hit/miss emission inside the allocator,
    // alloc/free completion) for data races with the sharded pool.
    constexpr int num_threads = 8;
    constexpr int iterations = 500;
    auto exec = OmpExecutor::create(4);
    // Big enough that no ring wraps even if every thread reuses one slot
    // (three events per round plus a trim every 50).
    auto rec = log::FlightRecorder::create(4 * num_threads * iterations);
    exec->add_logger(rec);
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < iterations; ++i) {
                const size_type bytes = 64 * ((t + 1) * (i % 5 + 1));
                void* p = exec->alloc_bytes(bytes);
                ASSERT_NE(p, nullptr);
                static_cast<char*>(p)[0] = static_cast<char>(t);
                if (i % 50 == 49) {
                    exec->trim_pool();
                }
                exec->free_bytes(p);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    exec->remove_logger(rec.get());
    EXPECT_EQ(exec->num_live_allocations(), 0);
    const auto total = static_cast<size_type>(num_threads) * iterations;
    using kind = log::FlightRecorder::event_kind;
    EXPECT_EQ(rec->dropped(), 0u);
    EXPECT_EQ(test::count_of(*rec, kind::alloc), total);
    EXPECT_EQ(test::count_of(*rec, kind::free_mem), total);
    EXPECT_EQ(test::count_of(*rec, kind::pool_hit) +
                  test::count_of(*rec, kind::pool_miss),
              total);
}

TEST(MemoryPool, ArrayShrinkRegrowWithinCapacityIsAllocationFree)
{
    auto exec = ReferenceExecutor::create();
    array<double> a{exec, 1000};
    const auto system_allocs = exec->num_allocations();
    a.resize_and_reset(10);   // shrink keeps the block
    EXPECT_EQ(a.size(), 10);
    a.resize_and_reset(1000);  // regrow within capacity
    EXPECT_EQ(a.size(), 1000);
    EXPECT_EQ(exec->num_allocations(), system_allocs);
    a.resize_and_reset(2000);  // beyond capacity: one fresh allocation
    EXPECT_EQ(exec->num_allocations(), system_allocs + 1);
}

}  // namespace
