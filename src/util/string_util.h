// Small string helpers shared by dataset I/O and report formatting.

#ifndef COMX_UTIL_STRING_UTIL_H_
#define COMX_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace comx {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins parts with the given separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict parse of a double; errors on trailing garbage, empty input or a
/// value beyond the double range.
Result<double> ParseDouble(std::string_view s);

/// Strict parse of an int64; errors on trailing garbage, empty input or a
/// value beyond the int64 range.
Result<int64_t> ParseInt64(std::string_view s);

/// Strict parse of a uint64 (the full seed range); errors on trailing
/// garbage, empty input, a minus sign or a value beyond 2^64 - 1.
Result<uint64_t> ParseUint64(std::string_view s);

}  // namespace comx

#endif  // COMX_UTIL_STRING_UTIL_H_
