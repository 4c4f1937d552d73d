// Shared helpers for the AQL test suites: a seeded deterministic value
// generator (property tests), and shorthand for running queries through a
// fresh System.

#ifndef AQL_TESTS_TEST_UTIL_H_
#define AQL_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "env/system.h"
#include "gtest/gtest.h"
#include "object/value.h"

namespace aql {

// gtest finds this by argument-dependent lookup, so a failing EXPECT_EQ on
// two Values prints their ToString() instead of raw object bytes.
inline void PrintTo(const Value& v, std::ostream* os) { *os << v.ToString(); }

namespace testing {

// Deterministic pseudo-random complex-object generator. `depth` bounds
// nesting so generated objects stay small.
class ValueGen {
 public:
  explicit ValueGen(uint64_t seed) : rng_(seed) {}

  Value Next(int depth = 3) {
    int pick = depth <= 0 ? int(rng_() % 5) : int(rng_() % 8);
    switch (pick) {
      case 0: return Value::Bool(rng_() % 2 == 0);
      case 1: return Value::Nat(rng_() % 100);
      case 2: return Value::Real(double(int64_t(rng_() % 2000)) / 10.0 - 100.0);
      case 3: return Value::Str(std::string(1 + rng_() % 3, char('a' + rng_() % 4)));
      case 4: return Value::Nat(rng_() % 5);
      case 5: {  // tuple
        size_t k = 2 + rng_() % 2;
        std::vector<Value> fields;
        for (size_t i = 0; i < k; ++i) fields.push_back(Next(depth - 1));
        return Value::MakeTuple(std::move(fields));
      }
      case 6: {  // set
        size_t n = rng_() % 4;
        std::vector<Value> elems;
        for (size_t i = 0; i < n; ++i) elems.push_back(Next(depth - 1));
        return Value::MakeSet(std::move(elems));
      }
      default: {  // 1-d or 2-d array of nats (homogeneous, as types demand)
        if (rng_() % 2 == 0) {
          size_t n = rng_() % 4;
          std::vector<Value> elems;
          for (size_t i = 0; i < n; ++i) elems.push_back(Value::Nat(rng_() % 50));
          return Value::MakeVector(std::move(elems));
        }
        uint64_t r = 1 + rng_() % 3, c = 1 + rng_() % 3;
        std::vector<Value> elems;
        for (uint64_t i = 0; i < r * c; ++i) elems.push_back(Value::Nat(rng_() % 50));
        return *Value::MakeArray({r, c}, std::move(elems));
      }
    }
  }

  uint64_t NextNat(uint64_t bound) { return rng_() % bound; }

 private:
  std::mt19937_64 rng_;
};

// Sets an environment variable for the current scope (the storage knobs,
// AQL_TILE_* and AQL_TILED_READ_THRESHOLD, are read at each OpenSlab).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = ::getenv(name)) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Bit-for-bit equality: same kinds all the way down, reals compared by
// their bit patterns (so -0.0 differs from 0.0, and NaNs must match
// exactly), arrays by dims and elements whatever their payload. Stricter
// than Value::operator==, whose order makes -0.0 equal to 0.0 and every
// NaN equal to every other NaN (CompareReals).
inline bool SameBits(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kReal: {
      const double x = a.real_value(), y = b.real_value();
      return std::memcmp(&x, &y, sizeof x) == 0;
    }
    case ValueKind::kTuple: {
      const auto& fa = a.tuple_fields();
      const auto& fb = b.tuple_fields();
      if (fa.size() != fb.size()) return false;
      for (size_t i = 0; i < fa.size(); ++i) {
        if (!SameBits(fa[i], fb[i])) return false;
      }
      return true;
    }
    case ValueKind::kSet: {
      const auto& ea = a.set().elems;
      const auto& eb = b.set().elems;
      if (ea.size() != eb.size()) return false;
      for (size_t i = 0; i < ea.size(); ++i) {
        if (!SameBits(ea[i], eb[i])) return false;
      }
      return true;
    }
    case ValueKind::kArray: {
      const ArrayRep& ra = a.array();
      const ArrayRep& rb = b.array();
      if (ra.dims != rb.dims) return false;
      for (uint64_t i = 0; i < ra.TotalSize(); ++i) {
        if (!SameBits(ra.At(i), rb.At(i))) return false;
      }
      return true;
    }
    default:
      return a == b;
  }
}

// Evaluates a single expression in a fresh default System, failing the
// test on any pipeline error.
inline Value EvalOrDie(System* sys, const std::string& expr) {
  auto r = sys->Eval(expr);
  EXPECT_TRUE(r.ok()) << "query: " << expr << "\nerror: " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Value::Bottom();
}

}  // namespace testing
}  // namespace aql

#endif  // AQL_TESTS_TEST_UTIL_H_
