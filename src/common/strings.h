#ifndef RPAS_COMMON_STRINGS_H_
#define RPAS_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rpas {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view input, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view input);

/// Parses a double / int64; returns InvalidArgument on malformed or
/// partially-consumed input, or on a value out of range. For doubles only
/// overflow is out of range: an underflowing value parses to its subnormal
/// or zero rounding.
Result<double> ParseDouble(std::string_view input);
Result<int64_t> ParseInt64(std::string_view input);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

}  // namespace rpas

#endif  // RPAS_COMMON_STRINGS_H_
