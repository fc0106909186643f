// Numbers in the library's text formats: JSON configs and responses
// (config/json.cpp) and Matrix Market files (core/mtx_io.cpp).
//
// Both readers hand over one whole token and get strtod's / strtoll's
// answer for it, computed in place by <charconv>: one optional sign ('+'
// included), correct rounding, overflow to +-inf and underflow to zero or
// a subnormal.  A token is accepted only if all of it is the number.
#pragma once

#include "core/types.hpp"

namespace mgko {


/// Parses all of [first, last) as a decimal real.  False when the range is
/// not exactly one number; "inf", "nan" and hexadecimal are not numbers
/// here.  Out-of-range values get strtod's result (+-inf, 0 or subnormal).
bool parse_real_token(const char* first, const char* last, double& value);

/// Parses all of [first, last) as a decimal integer.  False when the range
/// is not exactly one integer or the integer lies outside int64.
bool parse_int_token(const char* first, const char* last, int64& value);


}  // namespace mgko
