// Strict environment-knob parsing, shared by every layer that reads a
// numeric tuning variable (AQL_EXEC_THREADS, AQL_EXEC_MAX_ELEMS, the
// src/obs knobs, ...).
//
// The rule is deliberately rigid: a knob value is ASCII digits and nothing
// else. Signs, whitespace, hex prefixes, trailing junk ("12abc"), empty
// strings, and values that overflow uint64_t all make the knob fall back
// to its default instead of being half-parsed. strtoull's permissiveness
// caused real bugs here: "-1" wrapped to 2^64-1 (which a later
// static_cast<int> mangled), and "12abc" silently became 12.

#ifndef AQL_BASE_ENV_H_
#define AQL_BASE_ENV_H_

#include <cstdint>
#include <string_view>

namespace aql {

// Parses `s` as an unsigned decimal integer. Accepts only one-or-more
// ASCII digits whose value fits uint64_t; on success stores the value in
// *out and returns true. Any other input (empty, sign, space, trailing
// junk, overflow) returns false and leaves *out untouched.
bool ParseU64Strict(std::string_view s, uint64_t* out);

// ParseU64Strict on a knob value as getenv returns it: `fallback` when `s`
// is nullptr (unset) or malformed.
uint64_t ParseU64Or(const char* s, uint64_t fallback);

// Reads environment variable `name` under ParseU64Strict; returns
// `fallback` when the variable is unset, empty, or malformed.
uint64_t EnvU64(const char* name, uint64_t fallback);

// Boolean knob: true when `name` is set to anything but "" or "0".
bool EnvFlag(const char* name);

}  // namespace aql

#endif  // AQL_BASE_ENV_H_
