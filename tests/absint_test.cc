// Abstract-interpretation tests (src/analysis/absint.h): directed checks
// of the shape/definedness/cardinality product domain, the lint pass, and
// two fuzz properties against the real backends:
//
//   1. Soundness: for random closed well-typed terms, every claim the
//      analysis makes must hold of the evaluated result — kDefined never
//      describes a ⊥ value, kBottom always does, a claimed rank/extent
//      matches the materialized dims, cardinality intervals contain the
//      actual element count, and `elems=hole-free` arrays contain no ⊥.
//   2. Unchecked-kernel equivalence: running the compiled backend with
//      ExecOptions::unchecked on (proof-gated fast kernels) and off (always
//      checked) must produce identical values on every random program —
//      the admission proofs may never change semantics.

#include "analysis/absint.h"

#include "analysis/lint.h"
#include "base/cancel.h"
#include "core/expr.h"
#include "core/expr_ops.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "opt/analysis.h"

namespace aql {
namespace analysis {
namespace {

using aql::testing::ExprGen;

// The process defaults with unchecked kernels switched on or off.
ExecOptions Unchecked(bool on) {
  ExecOptions o = DefaultExecOptions();
  o.unchecked = on;
  return o;
}

ExprPtr Nat(uint64_t n) { return Expr::NatConst(n); }
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kAdd, std::move(a), std::move(b));
}

bool HasCode(const LintReport& report, const std::string& code) {
  for (const LintWarning& w : report.warnings) {
    if (w.code == code) return true;
  }
  return false;
}

// ---- directed: shape domain -------------------------------------------

TEST(ShapeDomainTest, TabulationHasConstExtents) {
  ExprPtr e = Expr::Tab({"i", "j"}, Add(Expr::Var("i"), Expr::Var("j")),
                        {Nat(2), Nat(3)});
  AbsVal v = AnalyzeAbs(e);
  ASSERT_EQ(v.shape.kind, ShapeVal::Kind::kArray);
  ASSERT_EQ(v.shape.extents.size(), 2u);
  EXPECT_EQ(v.shape.extents[0].kind, Extent::Kind::kConst);
  EXPECT_EQ(v.shape.extents[0].value, 2u);
  EXPECT_EQ(v.shape.extents[1].value, 3u);
  EXPECT_EQ(v.def.whole, Definedness::kDefined);
  EXPECT_TRUE(v.def.elems_defined);
  EXPECT_EQ(v.card.lo, 6u);
  EXPECT_EQ(v.card.hi, 6u);
}

TEST(ShapeDomainTest, SymbolicExtentSurvivesUpToAlpha) {
  // [[ i | \i < x + 1 ]] — the extent is symbolic but known.
  ExprPtr bound = Add(Expr::Var("x"), Nat(1));
  ExprPtr e = Expr::Tab({"i"}, Expr::Var("i"), {bound});
  AbsVal v = AnalyzeAbs(e);
  ASSERT_EQ(v.shape.kind, ShapeVal::Kind::kArray);
  ASSERT_EQ(v.shape.extents.size(), 1u);
  EXPECT_EQ(v.shape.extents[0].kind, Extent::Kind::kSym);
  EXPECT_TRUE(AlphaEqual(v.shape.extents[0].sym, bound));
}

TEST(ShapeDomainTest, ScalarsAndSetsAreNotArrays) {
  EXPECT_EQ(AnalyzeAbs(Nat(7)).shape.kind, ShapeVal::Kind::kNotArray);
  EXPECT_EQ(AnalyzeAbs(Expr::Gen(Nat(3))).shape.kind, ShapeVal::Kind::kNotArray);
}

// ---- directed: definedness domain -------------------------------------

TEST(DefinednessDomainTest, ConstDivisionByZeroIsBottom) {
  ExprPtr e = Add(Nat(1), Expr::Arith(ArithOp::kDiv, Nat(1), Nat(0)));
  EXPECT_EQ(AnalyzeAbs(e).def.whole, Definedness::kBottom);
}

TEST(DefinednessDomainTest, NonzeroConstDivisorIsDefined) {
  ExprPtr e = Expr::Arith(ArithOp::kMod, Nat(7), Nat(2));
  EXPECT_EQ(AnalyzeAbs(e).def.whole, Definedness::kDefined);
}

TEST(DefinednessDomainTest, ProvenSubscriptIsDefined) {
  // [[ a[i] | \i < 4 ]] with a = [[ j | \j < 4 ]]: index provably in
  // bounds, so the whole array is hole-free.
  ExprPtr a = Expr::Tab({"j"}, Expr::Var("j"), {Nat(4)});
  ExprPtr e = Expr::Tab({"i"}, Expr::Subscript(a, Expr::Var("i")), {Nat(4)});
  AbsVal v = AnalyzeAbs(e);
  EXPECT_EQ(v.def.whole, Definedness::kDefined);
  EXPECT_TRUE(v.def.elems_defined);
}

TEST(DefinednessDomainTest, StaticallyOobSubscriptIsBottom) {
  ExprPtr a = Expr::Tab({"j"}, Expr::Var("j"), {Nat(3)});
  ExprPtr e = Expr::Subscript(a, Nat(5));
  EXPECT_EQ(AnalyzeAbs(e).def.whole, Definedness::kBottom);
}

TEST(DefinednessDomainTest, UnprovenSubscriptIsUnknown) {
  // Free array, free index: no claim either way.
  ExprPtr e = Expr::Subscript(Expr::Var("a"), Expr::Var("i"));
  EXPECT_EQ(AnalyzeAbs(e).def.whole, Definedness::kUnknown);
}

// ---- directed: cardinality domain -------------------------------------

TEST(CardinalityDomainTest, SetFormers) {
  EXPECT_EQ(AnalyzeAbs(Expr::EmptySet()).card.hi, 0u);
  AbsVal single = AnalyzeAbs(Expr::Singleton(Nat(1)));
  EXPECT_EQ(single.card.lo, 1u);
  EXPECT_EQ(single.card.hi, 1u);
  AbsVal gen = AnalyzeAbs(Expr::Gen(Nat(5)));
  EXPECT_EQ(gen.card.lo, 5u);
  EXPECT_EQ(gen.card.hi, 5u);
  // Union may deduplicate: lo is the max side, hi the sum.
  AbsVal u = AnalyzeAbs(Expr::Union(Expr::Gen(Nat(2)), Expr::Gen(Nat(3))));
  EXPECT_EQ(u.card.lo, 3u);
  EXPECT_EQ(u.card.hi, 5u);
}

// ---- directed: contradiction predicate (verifier pass 5) --------------

TEST(AbsContradictsTest, DetectsFlipsAndAllowsRefinement) {
  AbsVal defined = AnalyzeAbs(Nat(1));
  AbsVal bottom = AnalyzeAbs(Expr::Bottom());
  std::string why;
  EXPECT_TRUE(AbsContradicts(defined, bottom, &why));
  // ⊥ refined to a value is a legal rewrite (beta drops dead ⊥ args).
  EXPECT_FALSE(AbsContradicts(bottom, defined, nullptr));

  AbsVal two = AnalyzeAbs(Expr::Tab({"i"}, Nat(0), {Nat(2)}));
  AbsVal three = AnalyzeAbs(Expr::Tab({"i"}, Nat(0), {Nat(3)}));
  EXPECT_TRUE(AbsContradicts(two, three, &why));
  EXPECT_FALSE(AbsContradicts(two, two, nullptr));
}

// ---- directed: lint ----------------------------------------------------

TEST(LintTest, ReportsAlwaysBottom) {
  ExprPtr e = Add(Nat(1), Expr::Arith(ArithOp::kDiv, Nat(1), Nat(0)));
  LintReport report = Lint(e);
  EXPECT_TRUE(HasCode(report, "always-bottom")) << report.ToString();
}

TEST(LintTest, ReportsExplicitBottomAtRootOnly) {
  // A plan that folded entirely to ⊥ is still a user-facing diagnosis...
  LintReport root = Lint(Expr::Bottom());
  EXPECT_TRUE(HasCode(root, "always-bottom")) << root.ToString();
  // ...but a ⊥ tucked inside a conditional is the optimizer's own
  // bound-check artifact and stays quiet.
  ExprPtr guarded = Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("x"), Nat(3)),
                             Expr::Var("x"), Expr::Bottom());
  LintReport nested = Lint(guarded);
  EXPECT_FALSE(HasCode(nested, "always-bottom")) << nested.ToString();
}

TEST(LintTest, ReportsStaticOobSubscript) {
  ExprPtr a = Expr::Tab({"j"}, Expr::Var("j"), {Nat(3)});
  LintReport report = Lint(Expr::Subscript(a, Nat(5)));
  EXPECT_TRUE(HasCode(report, "oob-subscript")) << report.ToString();
  // The sharper diagnosis suppresses the generic one.
  EXPECT_FALSE(HasCode(report, "always-bottom")) << report.ToString();
}

TEST(LintTest, ReportsEmptyTabulation) {
  LintReport report = Lint(Expr::Tab({"i"}, Expr::Var("i"), {Nat(0)}));
  EXPECT_TRUE(HasCode(report, "empty-tab")) << report.ToString();
}

TEST(LintTest, ReportsUnusedBinder) {
  ExprPtr e = Expr::Tab({"i", "j"}, Expr::Var("i"), {Nat(2), Nat(2)});
  LintReport report = Lint(e);
  EXPECT_TRUE(HasCode(report, "unused-binder")) << report.ToString();
}

TEST(LintTest, ReportsShadowedTabBinder) {
  // [[ [[ i | \i < 2 ]] | \i < 3 ]] — the inner tab's \i hides the outer.
  ExprPtr inner = Expr::Tab({"i"}, Expr::Var("i"), {Nat(2)});
  ExprPtr outer = Expr::Tab({"i"}, std::move(inner), {Nat(3)});
  LintReport report = Lint(outer);
  EXPECT_TRUE(HasCode(report, "shadowed-binder")) << report.ToString();
}

TEST(LintTest, ReportsShadowedLetBinder) {
  // let x = 1 in (let x = 2 in x) — desugared as Apply(Lambda(x, ...)).
  ExprPtr inner = Expr::Apply(Expr::Lambda("x", Expr::Var("x")), Nat(2));
  ExprPtr outer = Expr::Apply(Expr::Lambda("x", std::move(inner)), Nat(1));
  LintReport report = Lint(outer);
  EXPECT_TRUE(HasCode(report, "shadowed-binder")) << report.ToString();
}

TEST(LintTest, ReportsShadowedComprehensionBinder) {
  // Sum{ Sum{ x | \x <- gen!2 } | \x <- gen!3 }.
  ExprPtr inner = Expr::Sum("x", Expr::Var("x"), Expr::Gen(Nat(2)));
  ExprPtr outer = Expr::Sum("x", std::move(inner), Expr::Gen(Nat(3)));
  LintReport report = Lint(outer);
  EXPECT_TRUE(HasCode(report, "shadowed-binder")) << report.ToString();
}

TEST(LintTest, SiblingScopesDoNotShadow) {
  // Two tabs reusing \i side by side never nest scopes: no warning.
  ExprPtr a = Expr::Tab({"i"}, Expr::Var("i"), {Nat(2)});
  ExprPtr b = Expr::Tab({"i"}, Mul(Expr::Var("i"), Nat(2)), {Nat(2)});
  ExprPtr e = Add(Expr::Subscript(std::move(a), Nat(0)),
                  Expr::Subscript(std::move(b), Nat(1)));
  LintReport report = Lint(e);
  EXPECT_FALSE(HasCode(report, "shadowed-binder")) << report.ToString();
}

TEST(LintTest, TabBoundExpressionsAreOutsideTheBinderScope) {
  // [[ [[ j | \j < i ]] ! 0 | \i < 3 ]]: the inner tab's *bound* mentions
  // the outer \i but introduces only \j — distinct names, no shadow.
  ExprPtr inner = Expr::Tab({"j"}, Expr::Var("j"), {Expr::Var("i")});
  ExprPtr outer = Expr::Tab(
      {"i"}, Expr::Subscript(std::move(inner), Nat(0)), {Nat(3)});
  LintReport report = Lint(outer);
  EXPECT_FALSE(HasCode(report, "shadowed-binder")) << report.ToString();
}

TEST(LintTest, ReportsConstantFoldableGuard) {
  // if i < 5 then i else ⊥ under \i < 3: the guard is provably true.
  ExprPtr body = Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("i"), Nat(5)),
                          Expr::Var("i"), Expr::Bottom());
  LintReport report = Lint(Expr::Tab({"i"}, body, {Nat(3)}));
  EXPECT_TRUE(HasCode(report, "const-guard")) << report.ToString();
}

TEST(LintTest, CleanProgramIsClean) {
  ExprPtr e = Expr::Tab({"i"}, Mul(Expr::Var("i"), Expr::Var("i")), {Nat(8)});
  LintReport report = Lint(e);
  EXPECT_TRUE(report.warnings.empty()) << report.ToString();
}

TEST(LintTest, SystemLintRendersPlanFacts) {
  System sys;
  auto report = sys.Lint("[[ i * i | \\i < 4 ]]");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("shape=[4]"), std::string::npos) << *report;
  EXPECT_NE(report->find("lint: clean"), std::string::npos) << *report;
}

// ---- fuzz: analysis claims vs. the evaluator --------------------------

// Checks every claim `v` makes against the concrete result `val`.
void CheckClaims(const ExprPtr& e, const AbsVal& v, const Value& val) {
  const std::string ctx = e->ToString() + " = " + val.ToString();
  if (v.def.whole == Definedness::kDefined) {
    EXPECT_FALSE(val.is_bottom()) << "claimed bottom-free: " << ctx;
  }
  if (v.def.whole == Definedness::kBottom) {
    EXPECT_TRUE(val.is_bottom()) << "claimed always-bottom: " << ctx;
  }
  if (val.is_bottom()) return;  // shape/card claims are conditional
  if (v.shape.kind == ShapeVal::Kind::kNotArray) {
    EXPECT_NE(val.kind(), ValueKind::kArray) << ctx;
  }
  if (v.shape.kind == ShapeVal::Kind::kArray) {
    ASSERT_EQ(val.kind(), ValueKind::kArray) << ctx;
    const ArrayRep& rep = val.array();
    ASSERT_EQ(v.shape.extents.size(), rep.dims.size()) << "rank: " << ctx;
    Evaluator eval;
    for (size_t j = 0; j < rep.dims.size(); ++j) {
      const Extent& x = v.shape.extents[j];
      if (x.kind == Extent::Kind::kConst) {
        EXPECT_EQ(x.value, rep.dims[j]) << "extent " << j + 1 << ": " << ctx;
      } else if (x.kind == Extent::Kind::kSym && FreeVars(x.sym).empty()) {
        // A closed symbolic extent can be checked by evaluating it.
        auto ext = eval.Eval(x.sym);
        if (ext.ok() && ext->kind() == ValueKind::kNat) {
          EXPECT_EQ(ext->nat_value(), rep.dims[j])
              << "sym extent " << j + 1 << ": " << ctx;
        }
      }
    }
    uint64_t total = rep.TotalSize();
    EXPECT_GE(total, v.card.lo) << ctx;
    EXPECT_LE(total, v.card.hi) << ctx;
    if (v.def.whole == Definedness::kDefined && v.def.elems_defined) {
      EXPECT_TRUE(ValueErrorFree(val)) << "claimed hole-free: " << ctx;
    }
  }
  if (val.kind() == ValueKind::kSet) {
    uint64_t n = val.set().elems.size();
    EXPECT_GE(n, v.card.lo) << ctx;
    EXPECT_LE(n, v.card.hi) << ctx;
  }
}

class AbsintSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AbsintSoundness, ClaimsHoldOfEvaluatedResults) {
  ExprGen gen(GetParam());
  Evaluator eval;
  int claims = 0;
  for (int i = 0; i < 400; ++i) {
    ExprPtr e = (i % 3 == 0)   ? gen.Set(4)
                : (i % 3 == 1) ? gen.Nat(4)
                               : gen.Arr(3);
    auto result = eval.Eval(e);
    ASSERT_TRUE(result.ok()) << e->ToString() << ": " << result.status().ToString();
    AbsVal v = AnalyzeAbs(e);
    CheckClaims(e, v, *result);
    if (v.def.whole != Definedness::kUnknown) ++claims;
  }
  // The domain must actually commit to claims, not hide behind kUnknown.
  EXPECT_GT(claims, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsintSoundness,
                         ::testing::Values(7, 42, 1996, 123456, 987654321));

// The analysis also holds on optimized terms (the form the service caches).
TEST(AbsintSoundness, ClaimsHoldAfterOptimization) {
  ExprGen gen(2024);
  Evaluator eval;
  Optimizer opt;
  for (int i = 0; i < 200; ++i) {
    ExprPtr e = (i % 2 == 0) ? gen.Nat(4) : gen.Arr(3);
    ExprPtr optimized = opt.Optimize(e);
    auto result = eval.Eval(optimized);
    ASSERT_TRUE(result.ok()) << optimized->ToString();
    CheckClaims(optimized, AnalyzeAbs(optimized), *result);
  }
}

// ---- fuzz: unchecked kernels are semantics-preserving -----------------

TEST(UncheckedKernelTest, ProofGatedKernelsMatchCheckedExecution) {
  ExprGen gen(31337);
  for (int i = 0; i < 150; ++i) {
    ExprPtr e = gen.Arr(4);
    auto program = exec::Compile(e, nullptr);
    ASSERT_TRUE(program.ok()) << e->ToString();
    Result<Value> fast = [&] {
      ExecScope scope(nullptr, Unchecked(true));
      return program->Run();
    }();
    Result<Value> checked = [&] {
      ExecScope scope(nullptr, Unchecked(false));
      return program->Run();
    }();
    ASSERT_EQ(fast.ok(), checked.ok()) << e->ToString();
    if (fast.ok()) {
      EXPECT_EQ(*fast, *checked) << e->ToString();
    }
  }
}

TEST(UncheckedKernelTest, ProvenSubscriptBodyRunsUnchecked) {
  // a is substituted in as a literal, so the kernel sees a literal array
  // with known dims and the binder bound i < 64 proves the subscript.
  System sys;
  auto setup = sys.Run("val \\a = [[ j * j | \\j < 64 ]];");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto compiled = sys.Compile("[[ a[i] + 1 | \\i < 64 ]]");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const exec::ExecStats& stats = exec::GlobalExecStats();
  uint64_t before = stats.unchecked_kernels.load();
  Result<Value> fast = [&] {
    ExecScope scope(nullptr, Unchecked(true));
    return sys.EvalCoreCompiled(*compiled);
  }();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_GT(stats.unchecked_kernels.load(), before)
      << "expected the proof-gated unchecked kernel to fire";

  Result<Value> checked = [&] {
    ExecScope scope(nullptr, Unchecked(false));
    return sys.EvalCoreCompiled(*compiled);
  }();
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*fast, *checked);
  EXPECT_TRUE(fast->array().unboxed());
}

TEST(UncheckedKernelTest, ModIndexedSubscriptRunsUnchecked) {
  // The bench_absint workload: a gather a[(i+1) % n] is admitted because
  // x % n < n and the constant divisor is nonzero.
  System sys;
  auto setup = sys.Run("val \\a = [[ j * j | \\j < 64 ]];");
  ASSERT_TRUE(setup.ok());
  auto compiled = sys.Compile("[[ a[i] + a[(i + 1) % 64] | \\i < 64 ]]");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const exec::ExecStats& stats = exec::GlobalExecStats();
  uint64_t before = stats.unchecked_kernels.load();
  Result<Value> fast = [&] {
    ExecScope scope(nullptr, Unchecked(true));
    return sys.EvalCoreCompiled(*compiled);
  }();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_GT(stats.unchecked_kernels.load(), before)
      << "expected the mod-indexed gather to run unchecked";
  auto tree = sys.EvalCore(*compiled);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*fast, *tree);
}

TEST(UncheckedKernelTest, UnsafeDivisionStaysChecked) {
  // i % (i - 1) hits 0 at i = 1 (monus), so no proof exists; the kernel
  // must keep the checked path and produce the ⊥ hole either way.
  System sys;
  auto compiled = sys.Compile("[[ i % (i - 1) | \\i < 4 ]]");
  ASSERT_TRUE(compiled.ok());
  Result<Value> fast = [&] {
    ExecScope scope(nullptr, Unchecked(true));
    return sys.EvalCoreCompiled(*compiled);
  }();
  Result<Value> checked = [&] {
    ExecScope scope(nullptr, Unchecked(false));
    return sys.EvalCoreCompiled(*compiled);
  }();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*fast, *checked);
  EXPECT_FALSE(ValueErrorFree(*fast)) << fast->ToString();
}

}  // namespace
}  // namespace analysis
}  // namespace aql
