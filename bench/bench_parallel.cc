// Data-parallel execution: the chunked tabulation/kernel paths under
// different thread counts, on the compiled backend.
//
// Series:
//   BM_TabNatKernel/{n}/{t}    — fused nat kernel, n×n tabulation, t threads
//   BM_TabRealGather/{n}/{t}   — real kernel gathering from an unboxed val
//   BM_TabBoxedGeneric/{n}/{t} — tuple body: generic boxed chunked path
//   BM_ParallelSum/{n}/{t}     — Sum with parallel body evaluation
//   BM_FoldMatmul/{n}/{t}      — matmul! of two n×n nat vals: a fold
//                                kernel (`sum k < n`) per cell, split over
//                                cells; items are multiply-adds (n^3)
//
// Thread counts are applied through the ExecOptions of an ExecScope
// around each series; the benchmark binary itself stays single-threaded.
// On a 1-core container all t>1 series measure the scheduling overhead
// floor, not speedup — see EXPERIMENTS.md.

#include <string>

#include "base/cancel.h"
#include "bench_util.h"
#include "exec/compiled.h"

namespace aql {
namespace bench {
namespace {

// The process defaults with `t` threads. The threshold stays at its
// default so the t=1 series exercises the plain sequential path and t>1
// the chunked one.
ExecOptions Threads(int64_t t) {
  ExecOptions o = DefaultExecOptions();
  o.threads = static_cast<int>(t);
  return o;
}

void RunCompiledQuery(benchmark::State& state, const std::string& query) {
  ExecScope scope(nullptr, Threads(state.range(1)));
  System* sys = SharedSystem();
  ExprPtr q = MustCompile(sys, state, query);
  if (!q) return;
  auto program = exec::Compile(q, sys->PrimitiveResolver());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = program->Run();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void BM_TabNatKernel(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state,
                   "[[ (i*31 + j) % 1000 | \\i < " + n + ", \\j < " + n + " ]]");
}
BENCHMARK(BM_TabNatKernel)
    ->ArgsProduct({{64, 256, 1024}, {1, 2, 4, 8}});

void BM_TabRealGather(benchmark::State& state) {
  (void)SharedSystem()->DefineVal("PR", RealVector(size_t(state.range(0))));
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "[[ PR[i] * 2.0 + 1.0 | \\i < " + n + " ]]");
}
BENCHMARK(BM_TabRealGather)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_TabBoxedGeneric(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "[[ (i, i*i) | \\i < " + n + " ]]");
}
BENCHMARK(BM_TabBoxedGeneric)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_ParallelSum(benchmark::State& state) {
  std::string n = std::to_string(state.range(0));
  RunCompiledQuery(state, "summap(fn \\x => (x*x) % 97)!(gen!" + n + ")");
}
BENCHMARK(BM_ParallelSum)
    ->ArgsProduct({{4096, 65536, 1048576}, {1, 2, 4, 8}});

void BM_FoldMatmul(benchmark::State& state) {
  const uint64_t n = uint64_t(state.range(0));
  auto matrix = [n](uint64_t seed) {
    return *Value::MakeNatArray({n, n}, RandomNats(size_t(n * n), 100, seed));
  };
  (void)SharedSystem()->DefineVal("FA", matrix(11));
  (void)SharedSystem()->DefineVal("FB", matrix(13));
  RunCompiledQuery(state, "matmul!(FA, FB)");
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n * n * n));
}
BENCHMARK(BM_FoldMatmul)->ArgsProduct({{32, 64, 128}, {1, 4}});

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
