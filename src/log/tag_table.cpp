#include "log/tag_table.hpp"

#include <cstring>

namespace mgko::log {


std::uint16_t TagTable::intern(const char* name)
{
    if (name == nullptr) {
        name = "<null>";
    }
    std::uint64_t hash = 1469598103934665603ull;
    for (const char* c = name; *c != '\0'; ++c) {
        hash ^= static_cast<unsigned char>(*c);
        hash *= 1099511628211ull;
    }
    const size_type mask = capacity - 1;
    size_type slot = static_cast<size_type>(hash) & mask;
    for (size_type probe = 0; probe < capacity;
         ++probe, slot = (slot + 1) & mask) {
        const char* current = slots_[slot].load(std::memory_order_acquire);
        if (current == nullptr) {
            std::lock_guard<std::mutex> guard{mutex_};
            current = slots_[slot].load(std::memory_order_acquire);
            if (current == nullptr) {
                const std::size_t len = std::strlen(name);
                auto copy = std::make_unique<char[]>(len + 1);
                std::memcpy(copy.get(), name, len + 1);
                slots_[slot].store(copy.get(), std::memory_order_release);
                storage_.push_back(std::move(copy));
                return static_cast<std::uint16_t>(slot);
            }
            // Lost the race for this slot: fall through and compare.
        }
        if (std::strcmp(current, name) == 0) {
            return static_cast<std::uint16_t>(slot);
        }
    }
    return overflow;
}


const char* TagTable::name(std::uint16_t id) const
{
    if (id == overflow) {
        return "<overflow>";
    }
    if (static_cast<size_type>(id) >= capacity) {
        return "<unknown>";
    }
    const char* tag = slots_[id].load(std::memory_order_acquire);
    return tag != nullptr ? tag : "<unknown>";
}


}  // namespace mgko::log
