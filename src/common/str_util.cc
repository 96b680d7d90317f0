#include "common/str_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace emp {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("not a double: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double v, int precision) {
  char buf[512];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    const auto r =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v));
    return std::string(buf, r.ptr);
  }
  // Fixed notation with `precision` decimals, as printf's "%.*f" (and so a
  // std::fixed stream) prints it; a negative precision means the default 6.
  if (precision < 0) precision = 6;
  std::string heap;
  char* first = buf;
  char* last = buf + sizeof buf;
  // `buf` holds a sign, DBL_MAX's 309 integer digits, the point and 150
  // decimals with room to spare.
  if (precision > 150) {
    heap.resize(static_cast<size_t>(precision) + 320);
    first = heap.data();
    last = first + heap.size();
  }
  const char* end =
      std::to_chars(first, last, v, std::chars_format::fixed, precision).ptr;
  // Trim trailing zeros but keep at least one decimal digit.
  const std::string_view digits(first, static_cast<size_t>(end - first));
  const size_t dot = digits.find('.');
  if (dot == std::string_view::npos) return std::string(digits);
  size_t last_kept = digits.find_last_not_of('0');
  if (last_kept == dot) last_kept = dot + 1;
  return std::string(digits.substr(0, last_kept + 1));
}

}  // namespace emp
