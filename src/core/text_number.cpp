#include "core/text_number.hpp"

#include <charconv>
#include <cstdlib>
#include <string>

namespace mgko {

namespace {

/// Start of the digits from_chars should read: past a '+', which
/// from_chars does not take, and only if one sign at most is followed by a
/// digit or '.' (from_chars would also read "inf" and "nan").
const char* number_start(const char* first, const char* last)
{
    const char* p = first;
    if (p != last && (*p == '+' || *p == '-')) {
        ++p;
    }
    if (p == last || !((*p >= '0' && *p <= '9') || *p == '.')) {
        return nullptr;
    }
    return *first == '+' ? first + 1 : first;
}

}  // namespace


bool parse_real_token(const char* first, const char* last, double& value)
{
    const char* start = number_start(first, last);
    if (start == nullptr) {
        return false;
    }
    const auto [end, error] = std::from_chars(start, last, value);
    if (end != last) {
        return false;
    }
    if (error == std::errc::result_out_of_range) {
        // from_chars refuses what strtod rounds to +-inf or to zero.
        const std::string token{first, last};
        value = std::strtod(token.c_str(), nullptr);
        return true;
    }
    return error == std::errc{};
}


bool parse_int_token(const char* first, const char* last, int64& value)
{
    const char* start = number_start(first, last);
    if (start == nullptr) {
        return false;
    }
    const auto [end, error] = std::from_chars(start, last, value);
    return end == last && error == std::errc{};
}


}  // namespace mgko
