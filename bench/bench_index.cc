// Experiment E8 (paper §2): "Because index causes an implicit group-by,
// it can be used to write more efficient code."
//
// Series, grouping a set of (key, value) pairs by nat key:
//   IndexGroupBy/n      — index!(...) : O(m + n log n)
//   NestedLoopGroupBy/n — the nest-style NRC grouping : O(n^2)
//   IndexSweepM/m       — cost of hole filling as the key range grows at
//                         fixed n (the "m" term of the paper's bound)
// all through the tree walker (EvalCore), and the Compiled* series: the
// same group-bys and group-then-count forms through the compiled backend
// (exec::Compile + Program::Run, one exec thread), where nest's inner
// filter answers its probes from a key index and index_k buckets its
// streamed pairs (docs/EXEC.md §7).

#include "bench_util.h"

namespace aql {
namespace bench {
namespace {

Value PairSet(size_t n, uint64_t key_bound, uint64_t seed = 11) {
  auto keys = RandomNats(n, key_bound, seed);
  auto vals = RandomNats(n, 1000000, seed + 1);
  std::vector<Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(Value::MakeTuple({Value::Nat(keys[i]), Value::Nat(vals[i])}));
  }
  return Value::MakeSet(std::move(elems));
}

void BM_IndexGroupBy(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "index!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexGroupBy)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_NestedLoopGroupBy(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  // nest (§2/§3): for every tuple, scan the whole set again.
  ExprPtr q = MustCompile(sys, state, "nest!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestedLoopGroupBy)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_IndexSweepM(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(1024, state.range(0)));
  ExprPtr q = MustCompile(sys, state, "index!P");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexSweepM)->RangeMultiplier(8)->Range(8, 32768)->Complexity();

// Aggregation after grouping: count per key, both ways (the hist'
// structure at set level).
void BM_IndexThenCount(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "maparr!(fn \\b => card!b, index!P)");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexThenCount)->RangeMultiplier(2)->Range(128, 8192)->Complexity();

void BM_NestThenCount(benchmark::State& state) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  ExprPtr q = MustCompile(sys, state, "{ (k, card!vs) | (\\k, \\vs) <- nest!P }");
  for (auto _ : state) benchmark::DoNotOptimize(MustEval(sys, state, q));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NestThenCount)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void RunCompiled(benchmark::State& state, const std::string& q) {
  System* sys = SharedSystem();
  (void)sys->DefineVal("P", PairSet(state.range(0), 64));
  TimeCompiled(sys, state, q);
  state.SetComplexityN(state.range(0));
}

void BM_CompiledIndexGroupBy(benchmark::State& state) { RunCompiled(state, "index!P"); }
BENCHMARK(BM_CompiledIndexGroupBy)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_CompiledNestGroupBy(benchmark::State& state) { RunCompiled(state, "nest!P"); }
BENCHMARK(BM_CompiledNestGroupBy)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_CompiledIndexThenCount(benchmark::State& state) {
  RunCompiled(state, "maparr!(fn \\b => card!b, index!P)");
}
BENCHMARK(BM_CompiledIndexThenCount)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

void BM_CompiledNestThenCount(benchmark::State& state) {
  RunCompiled(state, "{ (k, card!vs) | (\\k, \\vs) <- nest!P }");
}
BENCHMARK(BM_CompiledNestThenCount)->RangeMultiplier(2)->Range(128, 4096)->Complexity();

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
