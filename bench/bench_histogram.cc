// Experiment E2 (paper §2): hist is O(n*m) — n the array length, m the
// maximum value — while hist' (index-based, implicit group-by) is
// O(m + n log n).
//
// Series:
//   HistSweepN/n      — m fixed at 64, n grows: both linear in n, but
//                       hist's constant is ~m comparisons per element
//   HistFastSweepN/n
//   HistSweepM/m      — n fixed at 1024, m grows: hist degrades linearly
//                       in m, hist' only pays the m-sized output array
//   HistFastSweepM/m
//   CompiledHistFastSweepN/n — HistFastSweepN through the compiled backend
//                       (one exec thread); the others run the tree walker
// The paper's crossover: hist' wins by ~m/log n for large m.

#include "bench_util.h"

namespace aql {
namespace bench {
namespace {

void BM_HistSweepN(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(state.range(0), 64)));
  ExprPtr q = MustCompile(sys, state, "hist!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistSweepN)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistFastSweepN(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(state.range(0), 64)));
  ExprPtr q = MustCompile(sys, state, "hist_fast!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistFastSweepN)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

// hist_fast through the compiled backend: index_1 buckets the (H[i], i)
// pairs its comprehension streams instead of sorting the pair set.
void BM_CompiledHistFastSweepN(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(state.range(0), 64)));
  TimeCompiled(sys, state, "hist_fast!H");
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompiledHistFastSweepN)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_HistSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(1024, state.range(0))));
  ExprPtr q = MustCompile(sys, state, "hist!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistSweepM)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

void BM_HistFastSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("H", NatVector(RandomNats(1024, state.range(0))));
  ExprPtr q = MustCompile(sys, state, "hist_fast!H");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HistFastSweepM)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
