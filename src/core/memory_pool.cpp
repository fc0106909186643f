#include "core/memory_pool.hpp"

#include <bit>
#include <cstdlib>
#include <limits>

namespace mgko::detail {


MemoryPool::size_class MemoryPool::classify(std::size_t requested)
{
    if (requested == 0) {
        requested = 1;
    }
    // The round-up below computes `requested + alignment - 1`; for
    // near-SIZE_MAX requests that wraps to a tiny value, which would hand
    // out a small-bucket block for a huge request (and index buckets_ out
    // of bounds).  Such requests can never be satisfied, let alone cached:
    // route them to the oversize bucket untouched and let the system
    // allocator report the failure.
    constexpr std::size_t max_roundable =
        std::numeric_limits<std::size_t>::max() - (alignment - 1);
    if (requested > max_roundable) {
        return {oversize_bucket, requested};
    }
    const std::size_t rounded = (requested + alignment - 1) / alignment *
                                alignment;
    if (rounded <= small_limit) {
        return {rounded / alignment - 1, rounded};
    }
    // small_limit is 2^12; the power-of-two buckets hold 2^13..2^26.
    // Anything above the largest cached class is oversize — deciding this
    // before bit_ceil also keeps bit_ceil away from values > 2^63, where
    // its result is not representable.
    constexpr std::size_t largest_class = std::size_t{1}
                                          << (13 + (num_buckets - num_small) -
                                              1);
    if (rounded > largest_class) {
        return {oversize_bucket, rounded};
    }
    const std::size_t pow2 = std::bit_ceil(rounded);
    const auto log2p = static_cast<std::size_t>(std::countr_zero(pow2));
    return {num_small + (log2p - 13), pow2};
}


void* MemoryPool::allocate(size_type bytes, bool* pool_hit)
{
    const auto cls = classify(static_cast<std::size_t>(bytes < 1 ? 1 : bytes));
    void* ptr = nullptr;
    if (cls.bucket != oversize_bucket) {
        auto& bucket = buckets_[cls.bucket];
        std::lock_guard<std::mutex> guard{bucket.mutex};
        if (!bucket.free_list.empty()) {
            ptr = bucket.free_list.back();
            bucket.free_list.pop_back();
        }
    }
    const bool from_cache = ptr != nullptr;
    if (pool_hit != nullptr) {
        *pool_hit = from_cache;
    }
    if (from_cache) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        bytes_cached_.fetch_sub(cls.class_bytes, std::memory_order_relaxed);
    } else {
        ptr = std::aligned_alloc(alignment, cls.class_bytes);
        if (ptr == nullptr) {
            // Memory pressure: give the cache back to the system and retry.
            trim();
            ptr = std::aligned_alloc(alignment, cls.class_bytes);
            if (ptr == nullptr) {
                return nullptr;
            }
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
    }
    {
        auto& shard = shards_[shard_of(ptr)];
        std::lock_guard<std::mutex> guard{shard.mutex};
        shard.live.emplace(ptr,
                           block_info{bytes, cls.class_bytes, cls.bucket});
    }
    bytes_in_use_.fetch_add(bytes, std::memory_order_relaxed);
    return ptr;
}


bool MemoryPool::release(void* ptr)
{
    block_info info{};
    {
        auto& shard = shards_[shard_of(ptr)];
        std::lock_guard<std::mutex> guard{shard.mutex};
        auto it = shard.live.find(ptr);
        if (it == shard.live.end()) {
            return false;
        }
        info = it->second;
        shard.live.erase(it);
    }
    bytes_in_use_.fetch_sub(info.requested_bytes, std::memory_order_relaxed);
    if (info.bucket == oversize_bucket) {
        std::free(ptr);
        return true;
    }
    {
        auto& bucket = buckets_[info.bucket];
        std::lock_guard<std::mutex> guard{bucket.mutex};
        bucket.free_list.push_back(ptr);
    }
    note_cached(info.class_bytes);
    return true;
}


void MemoryPool::note_cached(std::size_t class_bytes)
{
    const auto bytes = static_cast<size_type>(class_bytes);
    const auto cached =
        bytes_cached_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    auto peak = watermark_.load(std::memory_order_relaxed);
    while (cached > peak &&
           !watermark_.compare_exchange_weak(peak, cached,
                                             std::memory_order_relaxed)) {
    }
}


bool MemoryPool::owns(const void* ptr) const
{
    const auto& shard = shards_[shard_of(ptr)];
    std::lock_guard<std::mutex> guard{shard.mutex};
    return shard.live.count(ptr) > 0;
}


size_type MemoryPool::live_blocks() const
{
    size_type count = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> guard{shard.mutex};
        count += static_cast<size_type>(shard.live.size());
    }
    return count;
}


size_type MemoryPool::trim()
{
    size_type released = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
        const std::size_t class_bytes =
            b < num_small ? (b + 1) * alignment
                          : std::size_t{1} << (13 + (b - num_small));
        std::vector<void*> drained;
        {
            std::lock_guard<std::mutex> guard{buckets_[b].mutex};
            drained.swap(buckets_[b].free_list);
        }
        for (void* ptr : drained) {
            std::free(ptr);
            released += static_cast<size_type>(class_bytes);
        }
    }
    bytes_cached_.fetch_sub(released, std::memory_order_relaxed);
    return released;
}


MemoryPool::~MemoryPool()
{
    trim();
    // Live blocks at teardown are a leak in the framework, but throwing
    // from a destructor is worse; drop the records and free the memory.
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> guard{shard.mutex};
        for (auto& [ptr, info] : shard.live) {
            std::free(const_cast<void*>(ptr));
        }
        shard.live.clear();
    }
}


}  // namespace mgko::detail
