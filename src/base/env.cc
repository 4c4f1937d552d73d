#include "base/env.h"

#include <cstdlib>
#include <limits>

namespace aql {

bool ParseU64Strict(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > kMax / 10 || v * 10 > kMax - digit) return false;  // overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

uint64_t ParseU64Or(const char* s, uint64_t fallback) {
  uint64_t v = 0;
  return s != nullptr && ParseU64Strict(s, &v) ? v : fallback;
}

// getenv is listed mt-unsafe only against concurrent setenv; nothing in
// this codebase mutates the environment after main starts.
uint64_t EnvU64(const char* name, uint64_t fallback) {
  return ParseU64Or(std::getenv(name), fallback);  // NOLINT(concurrency-mt-unsafe)
}

bool EnvFlag(const char* name) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

}  // namespace aql
