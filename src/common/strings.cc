#include "common/strings.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rpas {

std::vector<std::string> StrSplit(std::string_view input, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      parts.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string_view StrTrim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view input) {
  std::string buf(StrTrim(input));
  if (buf.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  // strtod also sets ERANGE on underflow, where it returns a subnormal or
  // zero that is the correctly rounded value; only overflow is an error.
  const bool overflow = errno == ERANGE && std::fabs(value) == HUGE_VAL;
  if (overflow || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("malformed double: '" + buf + "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view input) {
  std::string buf(StrTrim(input));
  if (buf.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("malformed integer: '" + buf + "'");
  }
  return static_cast<int64_t>(value);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace rpas
