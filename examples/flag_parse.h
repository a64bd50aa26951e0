// Strict command-line flag parsing shared by slfe_cli and slfe_server. A
// malformed number is refused with a named error instead of being read
// loosely: `--threads=-1` must not wrap, `--threads=2x` must not read as 2,
// `--store-ttl=abc` must not read as 0.

#ifndef SLFE_EXAMPLES_FLAG_PARSE_H_
#define SLFE_EXAMPLES_FLAG_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace slfe::flags {

// Upper bound for flags that size thread pools up front, so a typo cannot
// ask for billions of threads.
constexpr uint64_t kMaxThreads = 1024;
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

/// Matches `--name=value` and stores the value.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// The one parser for every integer flag: digits only (no sign, no
/// suffix, no blanks), no overflow, and within [lo, hi]. Prints the
/// reason and returns false otherwise.
template <typename T>
bool ParseUnsigned(const char* flag, const std::string& value, uint64_t lo,
                   uint64_t hi, T* out) {
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    std::fprintf(stderr, "bad %s value '%s' (want an integer in [%llu, %llu])\n",
                 flag, value.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Seconds/milliseconds flags: a finite, non-negative decimal and nothing
/// else (no sign, no blanks, no suffix).
inline bool ParseNonNegative(const char* flag, const std::string& value,
                             double* out) {
  double v = 0;
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    std::fprintf(stderr, "bad %s value '%s' (want a number >= 0)\n", flag,
                 value.c_str());
    return false;
  }
  *out = v;
  return true;
}

}  // namespace slfe::flags

#endif  // SLFE_EXAMPLES_FLAG_PARSE_H_
