// Fold-bodied tabulations (docs/EXEC.md §3): a tabulation whose body sums
// over gen(n) — matmul, conv1, window_sum — runs as a typed kernel with a
// `sum k < n` node, a Sum over gen(n) counts instead of building its set,
// and code motion leaves a Sum's gen in place. Every fast path here must
// reproduce the tree walker on the unoptimized term bit for bit:
//
//   - differential test: generated fold-bodied rank-1/rank-2 tabulations
//     (nat and real bodies over inlined literal arrays; NaN, -0.0, 1e16
//     and 1.0 in the reals; trip counts constant, 0 or a tab binder;
//     nested sums; subscripts out of range at some cells), compiled
//     optimized plan vs EvalCore on the unoptimized term, under unchecked
//     kernels on/off x {1 thread; 4 threads with par_threshold 2};
//   - zero-trip real folds: both backends give such a fold the nat 0, so
//     the kernel leaves those cells to the generic path and never writes
//     0.0.
//
// Runs in both sanitizer lanes (ctest -L asan, ctest -L tsan).

#include <string>
#include <vector>

#include "base/cancel.h"
#include "core/expr.h"
#include "env/system.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "object/value.h"
#include "test_util.h"

namespace aql {
namespace {

using testing::SameBits;

// The four execution configurations every fold runs under.
std::vector<ExecOptions> Configs() {
  std::vector<ExecOptions> out;
  for (bool unchecked : {true, false}) {
    for (int threads : {1, 4}) {
      ExecOptions o = DefaultExecOptions();
      o.threads = threads;
      o.par_threshold = threads == 1 ? o.par_threshold : 2;
      o.unchecked = unchecked;
      out.push_back(o);
    }
  }
  return out;
}

std::string Describe(const ExecOptions& o) {
  return StrCat("threads=", o.threads, " par_threshold=", o.par_threshold,
                " unchecked=", o.unchecked ? 1 : 0);
}

// True when any cell of an array value is ⊥ or a nat inside a real array
// (a zero-trip real fold): the shapes only the generic path can build.
bool HasGenericCell(const Value& v) {
  if (v.kind() != ValueKind::kArray) return false;
  const ArrayRep& a = v.array();
  bool real = false, nat = false;
  for (uint64_t i = 0; i < a.TotalSize(); ++i) {
    const Value c = a.At(i);
    if (c.is_bottom()) return true;
    real |= c.kind() == ValueKind::kReal;
    nat |= c.kind() == ValueKind::kNat;
  }
  return real && nat;
}

TEST(FoldTest, CompiledFoldsMatchTheTreeWalkerBitForBit) {
  System sys;
  const std::vector<ExecOptions> configs = Configs();
  int real_terms = 0, generic_cells = 0, kernel_runs = 0, unchecked_runs = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    testing::ExprGen gen(seed);
    const bool real = seed % 2 == 1;
    ExprPtr term = gen.FoldTab(real);
    Result<Value> ref = sys.EvalCore(term);  // tree walker, unoptimized term
    ExprPtr plan = sys.Optimize(term);
    Result<exec::Program> program = exec::Compile(plan, sys.PrimitiveResolver());
    ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << plan->ToString();
    if (ref.ok()) {
      real_terms += real ? 1 : 0;
      generic_cells += HasGenericCell(*ref) ? 1 : 0;
    }
    for (const ExecOptions& o : configs) {
      const uint64_t kernels = exec::GlobalExecStats().kernels.load();
      const uint64_t unchecked = exec::GlobalExecStats().unchecked_kernels.load();
      Result<Value> got = [&] {
        ExecScope scope(nullptr, o);
        return program->Run();
      }();
      kernel_runs += exec::GlobalExecStats().kernels.load() > kernels ? 1 : 0;
      unchecked_runs += exec::GlobalExecStats().unchecked_kernels.load() > unchecked ? 1 : 0;
      const std::string where = StrCat("seed ", seed, " under ", Describe(o), "\nterm: ",
                                       term->ToString(), "\nplan: ", plan->ToString());
      ASSERT_EQ(got.ok(), ref.ok())
          << where << "\ncompiled: "
          << (got.ok() ? got->ToString() : got.status().ToString())
          << "\ntree walker: " << (ref.ok() ? ref->ToString() : ref.status().ToString());
      if (!ref.ok()) {
        EXPECT_EQ(got.status().code(), ref.status().code()) << where;
        continue;
      }
      EXPECT_TRUE(SameBits(*got, *ref))
          << where << "\ncompiled:    " << got->ToString() << "\ntree walker: " << ref->ToString();
    }
  }
  // The generator reaches the shapes this test exists for.
  // Seeds 0..399 give 194 defined real folds, 153 folds with generic
  // cells, 572 kernel runs (exec.kernels) and 190 unchecked ones.
  EXPECT_GT(real_terms, 100);
  EXPECT_GT(generic_cells, 80) << "too few folds with ⊥ or zero-trip real cells";
  EXPECT_GT(kernel_runs, 500) << "too few folds ran as kernels";
  EXPECT_GT(unchecked_runs, 100) << "too few folds ran as unchecked kernels";
}

// ---- zero-trip real folds ----

// The three executions one query is pinned across: the tree walker on the
// unoptimized term, and the compiled optimized plan with unchecked kernels
// on and off.
struct Runs {
  Result<Value> walker = Value();
  Result<Value> compiled = Value();
  Result<Value> checked = Value();
};

Runs RunAll(System* sys, const std::string& query) {
  Runs r;
  Result<ExprPtr> core = sys->CompileUnoptimized(query);
  EXPECT_TRUE(core.ok()) << core.status().ToString();
  if (!core.ok()) return r;
  r.walker = sys->EvalCore(*core);
  Result<exec::Program> program =
      exec::Compile(sys->Optimize(*core), sys->PrimitiveResolver());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return r;
  ExecOptions o = DefaultExecOptions();
  r.compiled = [&] {
    ExecScope scope(nullptr, o);
    return program->Run();
  }();
  o.unchecked = false;
  r.checked = [&] {
    ExecScope scope(nullptr, o);
    return program->Run();
  }();
  return r;
}

TEST(FoldTest, ZeroTripRealSumIsTheNatIdentityInBothBackends) {
  // summap(...)!(gen!0) of a real body has static type real, yet both the
  // tree walker and SumNode return the nat 0 (the zero-trip fold's value
  // is untyped); adding a real to it then fails at run time in both.
  System sys;
  Runs zero = RunAll(&sys, "summap(fn \\k => 1.5)!(gen!0)");
  ASSERT_TRUE(zero.walker.ok() && zero.compiled.ok() && zero.checked.ok());
  EXPECT_TRUE(SameBits(*zero.walker, Value::Nat(0))) << zero.walker->ToString();
  EXPECT_TRUE(SameBits(*zero.compiled, Value::Nat(0))) << zero.compiled->ToString();
  EXPECT_TRUE(SameBits(*zero.checked, Value::Nat(0))) << zero.checked->ToString();

  Runs plus = RunAll(&sys, "summap(fn \\k => 1.5)!(gen!0) + 1.0");
  EXPECT_EQ(plus.walker.status().code(), StatusCode::kEvalError);
  EXPECT_EQ(plus.compiled.status().code(), StatusCode::kEvalError);
  EXPECT_EQ(plus.checked.status().code(), StatusCode::kEvalError);
}

TEST(FoldTest, ZeroTripRealCellsFallBackToTheGenericPath) {
  // Cell 0 folds zero trips: the nat 0 both backends give it cannot live
  // in a real buffer, so the kernel must leave the tabulation to the
  // generic path (a boxed array) instead of writing 0.0 there.
  System sys;
  std::vector<double> r = {0.25, 0.5, 4.0};
  ASSERT_TRUE(sys.DefineVal("R", *Value::MakeRealArray({3}, r)).ok());
  for (const std::string q : {"[[ summap(fn \\k => to_real!k)!(gen!i) | \\i < 3 ]]",
                              "[[ summap(fn \\k => 1.5)!(gen!i) | \\i < 3 ]]",
                              "[[ summap(fn \\k => R[k])!(gen!i) | \\i < 3 ]]"}) {
    Runs runs = RunAll(&sys, q);
    ASSERT_TRUE(runs.walker.ok()) << q << ": " << runs.walker.status().ToString();
    ASSERT_TRUE(runs.compiled.ok()) << q << ": " << runs.compiled.status().ToString();
    ASSERT_TRUE(runs.checked.ok()) << q << ": " << runs.checked.status().ToString();
    EXPECT_TRUE(SameBits(*runs.compiled, *runs.walker))
        << q << "\ncompiled:    " << runs.compiled->ToString()
        << "\ntree walker: " << runs.walker->ToString();
    EXPECT_TRUE(SameBits(*runs.checked, *runs.walker))
        << q << "\nchecked:     " << runs.checked->ToString()
        << "\ntree walker: " << runs.walker->ToString();
    const Value cell0 = runs.compiled->array().At(0);
    EXPECT_TRUE(SameBits(cell0, Value::Nat(0))) << q << ": " << cell0.ToString();
  }
  Runs mixed = RunAll(&sys, "[[ summap(fn \\k => 1.5)!(gen!i) | \\i < 3 ]]");
  ASSERT_TRUE(mixed.walker.ok());
  EXPECT_EQ(mixed.walker->ToString(), "[[3; 0, 1.5, 3.0]]");

  // With every trip count nonzero the same body does run as a kernel.
  const uint64_t kernels = exec::GlobalExecStats().kernels.load();
  Runs full = RunAll(&sys, "[[ summap(fn \\k => R[k])!(gen!(i + 1)) | \\i < 3 ]]");
  ASSERT_TRUE(full.compiled.ok() && full.walker.ok());
  EXPECT_TRUE(SameBits(*full.compiled, *full.walker)) << full.compiled->ToString();
  EXPECT_GT(exec::GlobalExecStats().kernels.load(), kernels);
}

}  // namespace
}  // namespace aql
