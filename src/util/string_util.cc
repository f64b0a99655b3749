#include "util/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cctype>

namespace comx {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

Result<double> ParseDouble(std::string_view s) {
  const std::string trimmed(Trim(s));
  if (trimmed.empty()) return Status::InvalidArgument("empty number");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("not a double: '" + trimmed + "'");
  }
  // ERANGE also flags underflow to a subnormal or zero, which is kept.
  if (errno == ERANGE && std::abs(v) == HUGE_VAL) {
    return Status::OutOfRange("double out of range: '" + trimmed + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view s) {
  const std::string trimmed(Trim(s));
  if (trimmed.empty()) return Status::InvalidArgument("empty number");
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("not an int: '" + trimmed + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("int out of range: '" + trimmed + "'");
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint64(std::string_view s) {
  const std::string trimmed(Trim(s));
  if (trimmed.empty()) return Status::InvalidArgument("empty number");
  // strtoull negates a leading '-' instead of rejecting it.
  if (trimmed[0] == '-') {
    return Status::OutOfRange("unsigned int out of range: '" + trimmed + "'");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("not an unsigned int: '" + trimmed + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("unsigned int out of range: '" + trimmed + "'");
  }
  return static_cast<uint64_t>(v);
}

}  // namespace comx
