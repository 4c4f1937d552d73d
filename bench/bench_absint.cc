// Experiment E17: the static-analysis subsystem (src/analysis/absint.h).
//
// Two questions:
//   1. What does analysis cost per plan? AnalyzeAbs / AnalyzePlan over
//      representative optimized plans — AnalyzePlan runs on request
//      (REPL `:lint`), and both must stay cheap next to compilation.
//   2. What do unchecked kernels buy? The same subscript-carrying
//      tabulation executed with proof-gated unchecked kernels
//      (ExecOptions::unchecked, the default) vs forced per-cell checking
//      (unchecked off). The delta is the per-element bounds-check +
//      ⊥-protocol cost the admission proofs eliminate.
//
// Series:
//   BM_AnalyzeAbs/...      — product-domain analysis per plan
//   BM_AnalyzePlan/...     — analysis + bounds + lint (the `:lint` path)
//   BM_AnalyzeAffine/...   — relational affine domain per plan
//   BM_KernelChecked/n     — tab body a[i]+a[i] with per-cell checks
//   BM_KernelUnchecked/n   — same plan, proofs admit the unchecked loop
//   BM_AffineGatherChecked/n, BM_AffineGatherUnchecked/n — a gather whose
//       indexes (i*2 - i, i*3 - i*2) only the relational affine domain can
//       bound: interval reasoning sees monus of two wide ranges, the affine
//       form cancels to exactly i. The pair prices the same per-cell
//       bounds-check + ⊥-protocol delta on an affine-only admission.

#include <string>

#include "analysis/absint.h"
#include "analysis/affine.h"
#include "analysis/lint.h"
#include "base/cancel.h"
#include "bench_util.h"
#include "exec/compiled.h"

namespace aql {
namespace bench {
namespace {

const char* kPlans[] = {
    "summap(fn \\x => x % 7)!(gen!1024)",
    "[[ [[ i + j | \\j < 32 ]] [i % 32] | \\i < 64 ]]",
    "{ x + y | \\x <- gen!16, \\y <- gen!16, x < y }",
};

void BM_AnalyzeAbs(benchmark::State& state) {
  System* sys = SharedSystem();
  ExprPtr plan = MustCompile(sys, state, kPlans[state.range(0)]);
  if (!plan) return;
  for (auto _ : state) {
    analysis::AbsVal v = analysis::AnalyzeAbs(plan);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_AnalyzeAbs)->DenseRange(0, 2);

void BM_AnalyzePlan(benchmark::State& state) {
  System* sys = SharedSystem();
  ExprPtr plan = MustCompile(sys, state, kPlans[state.range(0)]);
  if (!plan) return;
  for (auto _ : state) {
    analysis::PlanFacts facts = analysis::AnalyzePlan(plan);
    benchmark::DoNotOptimize(facts);
  }
}
BENCHMARK(BM_AnalyzePlan)->DenseRange(0, 2);

// A gather the affine domain admits and interval reasoning cannot: both
// subscripts cancel to the binder (i*2 - i = i, i*3 - i*2 = i), so the
// exact form is in bounds while each monus, seen non-relationally, spans
// [0, 3n). Compiled without the optimizer so the source forms reach the
// analyzer as written.
std::string AffineGatherQuery(size_t n) {
  return "[[ a[i * 2 - i] + a[i * 3 - i * 2] | \\i < " + std::to_string(n) +
         " ]]";
}

// Affine analysis cost per plan: the kPlans corpus plus the gather above.
void BM_AnalyzeAffine(benchmark::State& state) {
  System* sys = SharedUnoptimizedSystem();
  bool gather = state.range(0) == 3;
  if (gather) (void)sys->DefineVal("a", NatVector(RandomNats(1024, 1000, 5)));
  ExprPtr plan = MustCompile(
      sys, state, gather ? AffineGatherQuery(1024) : kPlans[state.range(0)]);
  if (!plan) return;
  for (auto _ : state) {
    analysis::AffineAbsVal v = analysis::AnalyzeAffineAbs(plan);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_AnalyzeAffine)->DenseRange(0, 3);

// The process defaults with unchecked kernels switched on or off.
ExecOptions Unchecked(bool on) {
  ExecOptions o = DefaultExecOptions();
  o.unchecked = on;
  return o;
}

// Subscript-carrying body: before the proof annotations this plan was
// rejected by the kernel (subscripts forced the boxed per-cell path);
// with them it runs as one typed loop, checked or unchecked.
void RunKernel(benchmark::State& state, bool unchecked) {
  ExecScope scope(nullptr, Unchecked(unchecked));
  System* sys = SharedSystem();
  size_t n = size_t(state.range(0));
  std::string q = "[[ a[i] + a[(i + 1) % " + std::to_string(n) + "] | \\i < " +
                  std::to_string(n) + " ]]";
  (void)sys->DefineVal("a", NatVector(RandomNats(n, 1000, 3)));
  ExprPtr plan = MustCompile(sys, state, q);
  if (!plan) return;
  auto program = exec::Compile(plan, sys->PrimitiveResolver());
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
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}

void BM_KernelChecked(benchmark::State& state) { RunKernel(state, false); }
void BM_KernelUnchecked(benchmark::State& state) { RunKernel(state, true); }
BENCHMARK(BM_KernelChecked)->RangeMultiplier(8)->Range(4096, 262144);
BENCHMARK(BM_KernelUnchecked)->RangeMultiplier(8)->Range(4096, 262144);

// Same checked/unchecked pairing on the affine-only gather. The unchecked
// admission here rides entirely on the relational domain — the bench
// verifies the `unchecked-kernel-bounds` certificate is present so a
// regression in the affine prover shows up as a skip, not a silently
// checked run.
void RunAffineGather(benchmark::State& state, bool unchecked) {
  ExecScope scope(nullptr, Unchecked(unchecked));
  System* sys = SharedUnoptimizedSystem();
  size_t n = size_t(state.range(0));
  (void)sys->DefineVal("a", NatVector(RandomNats(n, 1000, 3)));
  ExprPtr plan = MustCompile(sys, state, AffineGatherQuery(n));
  if (!plan) return;
  auto program = exec::Compile(plan, sys->PrimitiveResolver());
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  bool certified = false;
  for (const auto& e : program->proof().entries) {
    if (e.optimization == "unchecked-kernel-bounds") certified = true;
  }
  if (!certified) {
    state.SkipWithError("affine admission lost its proof certificate");
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
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}

void BM_AffineGatherChecked(benchmark::State& state) {
  RunAffineGather(state, false);
}
void BM_AffineGatherUnchecked(benchmark::State& state) {
  RunAffineGather(state, true);
}
BENCHMARK(BM_AffineGatherChecked)->RangeMultiplier(8)->Range(4096, 262144);
BENCHMARK(BM_AffineGatherUnchecked)->RangeMultiplier(8)->Range(4096, 262144);

}  // namespace
}  // namespace bench
}  // namespace aql

BENCHMARK_MAIN();
