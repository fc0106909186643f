// Interned tag strings shared by the flight recorder and the sampling
// profiler: event and frame names are stored once and referred to by a
// 16-bit slot id.
//
// A fixed open-addressing table of `std::atomic<const char*>`: intern()
// hashes the name (FNV-1a) and probes linearly.  A name already in the
// table costs only lock-free loads; its first occurrence takes a mutex and
// stores an owned copy (callers pass string literals or long-lived cache
// entries, but the table does not rely on it).  name() is lock-free loads
// only, so it is async-signal-safe: the flight recorder's postmortem dump
// calls it from a signal handler.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/types.hpp"

namespace mgko::log {


class TagTable {
public:
    /// Distinct tag strings; later tags intern to `overflow`.
    static constexpr size_type capacity = 512;  // power of two
    /// Id of a name that did not fit the table.
    static constexpr std::uint16_t overflow = 0xFFFF;

    /// The slot id of `name` (nullptr interns as "<null>"), inserting it
    /// on first use; `overflow` once the table is full.
    std::uint16_t intern(const char* name);

    /// The interned string for `id`; "<overflow>" for `overflow` and
    /// "<unknown>" for an id that names no slot.  Lock-free.
    const char* name(std::uint16_t id) const;

private:
    std::array<std::atomic<const char*>, capacity> slots_{};
    std::mutex mutex_;  // guards first insert
    std::vector<std::unique_ptr<char[]>> storage_;
};


}  // namespace mgko::log
