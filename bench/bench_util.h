// Shared helpers for the AQL benchmark harness.
//
// Each bench binary regenerates one experiment from EXPERIMENTS.md. The
// helpers build Systems (optimized / unoptimized), synthesize array and
// set values of a given size, and bind them as top-level vals so the
// benchmarked queries reference pre-built data rather than re-parsing
// literals.

#ifndef AQL_BENCH_BENCH_UTIL_H_
#define AQL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "benchmark/benchmark.h"
#include "env/system.h"
#include "exec/compiled.h"

namespace aql {
namespace bench {

inline System* SharedSystem() {
  static System* sys = new System();
  return sys;
}

inline System* SharedUnoptimizedSystem() {
  static System* sys = [] {
    SystemConfig cfg;
    cfg.optimize = false;
    return new System(cfg);
  }();
  return sys;
}

// Deterministic pseudo-random nats in [0, bound).
inline std::vector<uint64_t> RandomNats(size_t n, uint64_t bound, uint64_t seed = 42) {
  std::vector<uint64_t> out;
  out.reserve(n);
  uint64_t z = seed;
  for (size_t i = 0; i < n; ++i) {
    z = z * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back(bound == 0 ? 0 : (z >> 33) % bound);
  }
  return out;
}

inline Value NatVector(const std::vector<uint64_t>& data) {
  std::vector<Value> elems;
  elems.reserve(data.size());
  for (uint64_t v : data) elems.push_back(Value::Nat(v));
  return Value::MakeVector(std::move(elems));
}

inline Value RealVector(size_t n, uint64_t seed = 7) {
  std::vector<Value> elems;
  elems.reserve(n);
  uint64_t z = seed;
  for (size_t i = 0; i < n; ++i) {
    z = z * 6364136223846793005ull + 1442695040888963407ull;
    elems.push_back(Value::Real(double(z >> 40) / 1000.0));
  }
  return Value::MakeVector(std::move(elems));
}

// The graph encoding {(i, a[i])} of a nat vector, for set-based plans.
inline Value NatVectorGraph(const std::vector<uint64_t>& data) {
  std::vector<Value> elems;
  elems.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    elems.push_back(Value::MakeTuple({Value::Nat(i), Value::Nat(data[i])}));
  }
  return Value::MakeSet(std::move(elems));
}

// Compiles once; fails the benchmark on error.
inline ExprPtr MustCompile(System* sys, benchmark::State& state, const std::string& q) {
  auto r = sys->Compile(q);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return nullptr;
  }
  return *r;
}

// Evaluates a precompiled query, aborting the benchmark on host errors.
inline Value MustEval(System* sys, benchmark::State& state, const ExprPtr& compiled) {
  auto r = sys->EvalCore(compiled);
  if (!r.ok()) {
    state.SkipWithError(r.status().ToString().c_str());
    return Value::Bottom();
  }
  return std::move(r).value();
}

// Compiles `q` once (optimizer, then exec::Compile) and times
// Program::Run on one exec thread, so a series measures the compiled
// backend's algorithm rather than the pool.
inline void TimeCompiled(System* sys, benchmark::State& state, const std::string& q) {
  ExprPtr plan = MustCompile(sys, state, q);
  if (plan == nullptr) return;
  Result<exec::Program> program = exec::Compile(plan, sys->PrimitiveResolver());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  ExecOptions options = DefaultExecOptions();
  options.threads = 1;
  ExecScope scope(nullptr, options);
  for (auto _ : state) {
    Result<Value> r = program->Run();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace bench
}  // namespace aql

#endif  // AQL_BENCH_BENCH_UTIL_H_
