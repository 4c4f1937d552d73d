// src/analysis: the IR verifier must (a) stay silent on the stock rule
// base — every violation it can report is a real soundness bug — and
// (b) catch a deliberately unsound rule injected through the optimizer's
// open AddRule interface, naming the rule in the report.

#include <gtest/gtest.h>

#include <string>

#include "analysis/bounds.h"
#include "analysis/verifier.h"
#include "core/expr.h"
#include "core/expr_ops.h"
#include "env/system.h"
#include "expr_gen.h"
#include "opt/optimizer.h"

namespace aql {
namespace analysis {
namespace {

using aql::testing::ExprGen;

TypeChecker::ExternalLookup NoExternals() {
  return [](const std::string&) -> TypePtr { return nullptr; };
}

bool ReportNames(const VerifierReport& report, VerifyPass pass,
                 const std::string& rule) {
  for (const Violation& v : report.violations) {
    if (v.pass == pass && v.rule == rule) return true;
  }
  return false;
}

// ---- ScopeCheck ----

TEST(ScopeCheckTest, AcceptsBoundAndAllowedVariables) {
  // U{ {x + y} | x in gen(3) }, with y free but allowed.
  ExprPtr e = Expr::BigUnion(
      "x",
      Expr::Singleton(Expr::Arith(ArithOp::kAdd, Expr::Var("x"), Expr::Var("y"))),
      Expr::Gen(Expr::NatConst(3)));
  VerifierReport report;
  ScopeCheck(e, {"y"}, "test", &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ScopeCheckTest, FlagsUnboundVariable) {
  ExprPtr e = Expr::Singleton(Expr::Var("ghost"));
  VerifierReport report;
  ScopeCheck(e, {}, "test", &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].pass, VerifyPass::kScope);
  EXPECT_NE(report.violations[0].message.find("ghost"), std::string::npos);
  EXPECT_EQ(report.violations[0].path, "0");
}

TEST(ScopeCheckTest, BinderDoesNotLeakIntoSource) {
  // U{ x | x in {x} }: the source's x is NOT bound by the comprehension.
  ExprPtr e = Expr::BigUnion("x", Expr::Var("x"),
                             Expr::Singleton(Expr::Var("x")));
  VerifierReport report;
  ScopeCheck(e, {}, "test", &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].path, "1.0");
}

// ---- TypePreservation ----

TEST(TypeGeneralizesTest, DirectionMatters) {
  TypePtr concrete = Type::Set(Type::Product({Type::Nat(), Type::Nat()}));
  TypePtr general = Type::Set(Type::Var(1));
  // Dead-code removal may generalize {nat*nat} to {'a}...
  EXPECT_TRUE(TypeGeneralizes(general, concrete));
  // ...but a rewrite may never specialize.
  EXPECT_FALSE(TypeGeneralizes(concrete, general));
  // And one variable must bind consistently.
  TypePtr twice = Type::Product({Type::Var(1), Type::Var(1)});
  EXPECT_TRUE(TypeGeneralizes(twice, Type::Product({Type::Nat(), Type::Nat()})));
  EXPECT_FALSE(TypeGeneralizes(twice, Type::Product({Type::Nat(), Type::Bool()})));
  EXPECT_FALSE(TypeGeneralizes(Type::Nat(), Type::Bool()));
  EXPECT_TRUE(TypeGeneralizes(Type::Array(Type::Real(), 2),
                              Type::Array(Type::Real(), 2)));
  EXPECT_FALSE(TypeGeneralizes(Type::Array(Type::Real(), 2),
                               Type::Array(Type::Real(), 3)));
}

// ---- The stock rule base is verifier-clean ----

TEST(VerifierTest, StockPipelineIsCleanOnHandWrittenPrograms) {
  Optimizer opt;
  Verifier verifier(NoExternals());
  std::vector<ExprPtr> programs = {
      // Sum{ a[i] | i in gen(dim_1(a)) } over a tabulated a.
      Expr::Let("a",
                Expr::Tab({"i"}, Expr::Arith(ArithOp::kMul, Expr::Var("i"),
                                             Expr::Var("i")),
                          {Expr::NatConst(16)}),
                Expr::Sum("j", Expr::Subscript(Expr::Var("a"), Expr::Var("j")),
                          Expr::Gen(Expr::Dim(1, Expr::Var("a"))))),
      // Nested comprehension vertical that normalization must fuse.
      Expr::BigUnion(
          "x", Expr::Singleton(Expr::Var("x")),
          Expr::BigUnion("y", Expr::Singleton(Expr::Var("y")),
                         Expr::Gen(Expr::NatConst(4)))),
      // Constant folding + projection-of-tuple.
      Expr::Proj(2, 2,
                 Expr::Tuple({Expr::NatConst(1),
                              Expr::If(Expr::BoolConst(true), Expr::NatConst(2),
                                       Expr::NatConst(3))})),
  };
  for (const ExprPtr& e : programs) {
    VerifierReport report;
    verifier.OptimizeVerified(opt, e, nullptr, &report);
    EXPECT_TRUE(report.ok()) << e->ToString() << "\n" << report.ToString();
  }
}

TEST(VerifierTest, PropertyStockRulesNeverViolate) {
  Optimizer opt;
  Verifier verifier(NoExternals());
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ExprGen gen(seed);
    ExprPtr e;
    switch (seed % 3) {
      case 0: e = gen.Nat(4); break;
      case 1: e = gen.Set(4); break;
      default: e = gen.Arr(4); break;
    }
    VerifierReport report;
    verifier.OptimizeVerified(opt, e, nullptr, &report);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": " << e->ToString() << "\n" << report.ToString();
  }
}

TEST(VerifierTest, RegressionBottomConditionPropagation) {
  // The verifier's property test caught the seed rule base rewriting
  // `if ⊥ then e1 else e2` by substituting booleans for ⊥ occurrences in
  // the branches (⊥ is alpha-equal to ⊥ at any type). Both terms denote ⊥,
  // but the rewrite was type-unsound; the fixed base folds to ⊥ instead.
  Optimizer opt;
  Verifier verifier(NoExternals());
  ExprPtr e = Expr::If(
      Expr::Bottom(),
      Expr::Arith(ArithOp::kAdd, Expr::NatConst(5), Expr::Bottom()),
      Expr::NatConst(0));
  VerifierReport report;
  ExprPtr out = verifier.OptimizeVerified(opt, e, nullptr, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(out->is(ExprKind::kBottom)) << out->ToString();

  ExprPtr seed22 = Expr::Singleton(
      Expr::If(Expr::Bottom(), Expr::Bottom(), Expr::Bottom()));
  VerifierReport report2;
  ExprPtr out2 = verifier.OptimizeVerified(opt, seed22, nullptr, &report2);
  EXPECT_TRUE(report2.ok()) << report2.ToString();
  EXPECT_TRUE(out2->is(ExprKind::kBottom)) << out2->ToString();
}

TEST(VerifierTest, RealFoldWhoseBodyFoldsToBottomKeepsItsType) {
  // subscript_const folds the out-of-range `[[2; 1.5, -3.0]][2]` to ⊥ and
  // bottom_strict then folds the product: the Sum's body becomes a bare ⊥.
  // Typed alone, `Sum{ ⊥ | k in gen(0) }` gets the numeric default nat;
  // its principal type still generalizes the real it had, which is all
  // the type-preservation pass may demand.
  Optimizer opt;
  Verifier verifier(NoExternals());
  ExprPtr real_arr = Expr::Literal(*Value::MakeRealArray({2}, {1.5, -3.0}));
  ExprPtr body = Expr::Arith(ArithOp::kMul, Expr::Subscript(real_arr, Expr::NatConst(2)),
                             Expr::Subscript(real_arr, Expr::Var("i")));
  ExprPtr e = Expr::Tab({"i"}, Expr::Sum("k", body, Expr::Gen(Expr::NatConst(0))),
                        {Expr::NatConst(2)});
  VerifierReport report;
  ExprPtr out = verifier.OptimizeVerified(opt, e, nullptr, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(out->ToString(), "[[ Sum{ bottom | k in gen(0) } | i < 2 ]]");
}

TEST(VerifierTest, NamesInjectedRealToNatRule) {
  // The join with pre's type must not hide a real change of type: a rule
  // that rounds real constants to nats turns [[real]]_1 into [[nat]]_1.
  Optimizer opt;
  ASSERT_TRUE(opt.AddRule("normalization",
                          {"round_real",
                           [](const ExprPtr& e) -> ExprPtr {
                             if (!e->is(ExprKind::kRealConst)) return nullptr;
                             return Expr::NatConst(uint64_t(e->real_const()));
                           }})
                  .ok());
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr e = Expr::Tab({"i"}, Expr::RealConst(2.5), {Expr::NatConst(3)});
  verifier.OptimizeVerified(opt, e, nullptr, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportNames(report, VerifyPass::kTypePreservation, "round_real"))
      << report.ToString();
}

// ---- Injected unsound rules are caught and named ----

TEST(VerifierTest, NamesInjectedTypeUnsoundRule) {
  Optimizer opt;
  // {e} -> e: "simplifies" a singleton away, changing {nat} to nat.
  ASSERT_TRUE(opt.AddRule("normalization",
                          {"drop_singleton",
                           [](const ExprPtr& e) -> ExprPtr {
                             if (!e->is(ExprKind::kSingleton)) return nullptr;
                             return e->child(0);
                           }})
                  .ok());
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr e = Expr::Singleton(Expr::Arith(ArithOp::kAdd, Expr::NatConst(1),
                                          Expr::NatConst(2)));
  verifier.OptimizeVerified(opt, e, nullptr, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportNames(report, VerifyPass::kTypePreservation, "drop_singleton"))
      << report.ToString();
  EXPECT_NE(report.ToString().find("drop_singleton"), std::string::npos);
}

TEST(VerifierTest, NamesInjectedScopeLeakingRule) {
  Optimizer opt;
  // U{e | x in s} -> e: drops the binder, leaking x free.
  ASSERT_TRUE(opt.AddRule("normalization",
                          {"leak_binder",
                           [](const ExprPtr& e) -> ExprPtr {
                             if (!e->is(ExprKind::kBigUnion)) return nullptr;
                             if (!OccursFree(e->child(0), e->binder())) return nullptr;
                             return e->child(0);
                           }})
                  .ok());
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr e = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")),
                             Expr::Gen(Expr::NatConst(3)));
  verifier.OptimizeVerified(opt, e, nullptr, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportNames(report, VerifyPass::kScope, "leak_binder"))
      << report.ToString();
}

// ---- NormalFormCheck ----

TEST(VerifierTest, NormalFormFlagsTermNotAtFixpoint) {
  // Hand VerifyPhase a post-state the phase's own rules still rewrite —
  // the contract a buggy engine or a stateful rule would break.
  Optimizer opt;
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr post = Expr::If(Expr::BoolConst(true), Expr::NatConst(1),
                          Expr::NatConst(2));
  verifier.VerifyPhase("normalization", opt.phase_rules(0), opt.config().rewrite,
                       post, post, /*hit_budget=*/false, &report);
  ASSERT_FALSE(report.ok());
  bool saw_fixpoint = false;
  for (const Violation& v : report.violations) {
    if (v.pass == VerifyPass::kNormalForm &&
        v.message.find("not a fixpoint") != std::string::npos) {
      saw_fixpoint = true;
    }
  }
  EXPECT_TRUE(saw_fixpoint) << report.ToString();
}

TEST(VerifierTest, NormalFormStructuralPredicatesFireWithoutRules) {
  // With an empty rule base the fixpoint re-run is vacuous; the stock
  // phase's structural predicates still reject the shape.
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr post = Expr::BigUnion(
      "x", Expr::Singleton(Expr::Var("x")),
      Expr::BigUnion("y", Expr::Singleton(Expr::Var("y")),
                     Expr::Gen(Expr::NatConst(4))));
  verifier.VerifyPhase("normalization", {}, RewriteOptions{}, post, post,
                       /*hit_budget=*/false, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("unfused"), std::string::npos)
      << report.ToString();
}

TEST(VerifierTest, NormalFormSkippedWhenBudgetHit) {
  Verifier verifier(NoExternals());
  VerifierReport report;
  ExprPtr post = Expr::If(Expr::BoolConst(true), Expr::NatConst(1),
                          Expr::NatConst(2));
  Optimizer opt;
  verifier.VerifyPhase("normalization", opt.phase_rules(0), opt.config().rewrite,
                       post, post, /*hit_budget=*/true, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifierTest, ResidualBoundCheckFlaggedAfterConstraintElimination) {
  // [[ if i < n then i else ⊥ | i < n ]]: the guard repeats the binder's
  // own bound; §5 elimination must have removed it.
  ExprPtr n = Expr::NatConst(8);
  ExprPtr post = Expr::Tab(
      {"i"},
      Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("i"), n), Expr::Var("i"),
               Expr::Bottom()),
      {n});
  Verifier verifier(NoExternals());
  VerifierReport report;
  verifier.VerifyPhase("constraint-elimination", {}, RewriteOptions{}, post,
                       post, /*hit_budget=*/false, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("redundant bound check"), std::string::npos)
      << report.ToString();
}

// ---- BoundsAnalysis ----

TEST(BoundsTest, ProvesTabBinderSubscriptInBounds) {
  // [[ A[i] | i < dim_1(A) ]]: i < dim_1(A) symbolically.
  ExprPtr e = Expr::Tab({"i"}, Expr::Subscript(Expr::Var("A"), Expr::Var("i")),
                        {Expr::Dim(1, Expr::Var("A"))});
  BoundsSummary summary = AnalyzeBounds(e);
  EXPECT_EQ(summary.subscripts, 1u);
  EXPECT_EQ(summary.proven, 1u) << summary.ToString();
}

TEST(BoundsTest, ShiftedIndexStaysUnproven) {
  ExprPtr e = Expr::Tab(
      {"i"},
      Expr::Subscript(Expr::Var("A"), Expr::Arith(ArithOp::kAdd, Expr::Var("i"),
                                                  Expr::NatConst(1))),
      {Expr::Dim(1, Expr::Var("A"))});
  BoundsSummary summary = AnalyzeBounds(e);
  EXPECT_EQ(summary.subscripts, 1u);
  EXPECT_EQ(summary.unproven, 1u) << summary.ToString();
}

TEST(BoundsTest, ModuloByExtentIsProven) {
  // A[x % dim_1(A)] is in bounds whenever it is defined.
  ExprPtr e = Expr::Subscript(
      Expr::Var("A"),
      Expr::Arith(ArithOp::kMod, Expr::Var("x"), Expr::Dim(1, Expr::Var("A"))));
  BoundsSummary summary = AnalyzeBounds(e);
  EXPECT_EQ(summary.proven, 1u) << summary.ToString();
}

TEST(BoundsTest, ConstantIntervalReasoning) {
  // [[ i % 4 | i < 100 ]] subscripting a dense rank-1 array of extent 4.
  ExprPtr dense = Expr::Dense(1, {Expr::NatConst(4)},
                              {Expr::NatConst(9), Expr::NatConst(8),
                               Expr::NatConst(7), Expr::NatConst(6)});
  ExprPtr e = Expr::Tab(
      {"i"},
      Expr::Subscript(dense, Expr::Arith(ArithOp::kMod, Expr::Var("i"),
                                         Expr::NatConst(4))),
      {Expr::NatConst(100)});
  BoundsSummary summary = AnalyzeBounds(e);
  EXPECT_EQ(summary.proven, 1u) << summary.ToString();
}

TEST(BoundsTest, CountsResidualAndProvableGuards) {
  // [[ if i < 8 then i else ⊥ | i < 8 ]]: one residual guard, provable.
  ExprPtr post = Expr::Tab(
      {"i"},
      Expr::If(Expr::Cmp(CmpOp::kLt, Expr::Var("i"), Expr::NatConst(8)),
               Expr::Var("i"), Expr::Bottom()),
      {Expr::NatConst(8)});
  BoundsSummary summary = AnalyzeBounds(post);
  EXPECT_EQ(summary.residual_guards, 1u);
  EXPECT_EQ(summary.provable_guards, 1u) << summary.ToString();
}

// ---- System wiring ----

TEST(SystemVerifyTest, VerifyReportIsCleanOnRealQueries) {
  System sys;
  ASSERT_TRUE(sys.init_status().ok());
  for (const char* q : {"summap(fn \\x => x * x)!(gen!10)",
                        "{ x + 1 | \\x <- gen!5 }",
                        "[[ i * j | \\i < 3, \\j < 4 ]]"}) {
    auto report = sys.VerifyReport(q);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_NE(report->find("IR verification: OK"), std::string::npos)
        << q << "\n" << *report;
  }
}

TEST(SystemVerifyTest, VerifyReportNamesUnsoundRegisteredRule) {
  System sys;
  ASSERT_TRUE(sys.init_status().ok());
  ASSERT_TRUE(sys.RegisterRule("normalization",
                               {"drop_singleton",
                                [](const ExprPtr& e) -> ExprPtr {
                                  if (!e->is(ExprKind::kSingleton)) return nullptr;
                                  return e->child(0);
                                }})
                  .ok());
  auto report = sys.VerifyReport("{ 1 + 2 }");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("violation"), std::string::npos) << *report;
  EXPECT_NE(report->find("drop_singleton"), std::string::npos) << *report;
}

}  // namespace
}  // namespace analysis
}  // namespace aql
