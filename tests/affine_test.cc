// Relational affine-domain tests (src/analysis/affine.h): directed checks
// of the affine forms, the rectangular access matcher, the widening
// relation and proof certificates, plus fuzz properties against the real
// evaluator:
//
//   1. Form soundness: for random index expressions under a binder bound,
//      an affine claim `c0 + Σ ci·bi` must equal the evaluated value
//      EXACTLY (mod 2^64) at every binder instantiation, and a bounded
//      interval must contain it (claims are conditional on the value not
//      being ⊥).
//   2. Refinement across optimization: the optimizer may only sharpen
//      affine facts (AffineWidens is the verifier's pass-6 relation), and
//      the claims still hold of the optimized term's results.

#include "analysis/affine.h"

#include <random>

#include "analysis/absint.h"
#include "base/cancel.h"
#include "core/expr.h"
#include "core/expr_ops.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "opt/optimizer.h"

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
ExprPtr I() { return Expr::Var("i"); }
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Monus(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMonus, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMod, std::move(a), std::move(b));
}

SymEnv EnvWith(const std::string& var, uint64_t exclusive_ub) {
  SymEnv env;
  env.facts.push_back({var, Expr::NatConst(exclusive_ub)});
  return env;
}

// ---- directed: forms ---------------------------------------------------

TEST(AffineFormTest, CancellationIsExact) {
  // i*2 - i is exactly i, with the binder's interval [0, 7].
  SymEnv env = EnvWith("i", 8);
  AffineVal v = AffineOf(Monus(Mul(I(), Nat(2)), I()), env);
  ASSERT_TRUE(v.affine) << v.ToString();
  EXPECT_EQ(v.c0, 0u);
  ASSERT_EQ(v.terms.size(), 1u);
  EXPECT_EQ(v.terms[0].var, "i");
  EXPECT_EQ(v.terms[0].coeff, 1u);
  ASSERT_TRUE(v.bounded) << v.ToString();
  EXPECT_EQ(v.lo, 0u);
  EXPECT_EQ(v.hi, 7u);
}

TEST(AffineFormTest, ExactDivisionScalesCoefficients) {
  // (i*4)/2 is exactly 2*i.
  SymEnv env = EnvWith("i", 8);
  AffineVal v = AffineOf(Div(Mul(I(), Nat(4)), Nat(2)), env);
  ASSERT_TRUE(v.affine) << v.ToString();
  ASSERT_EQ(v.terms.size(), 1u);
  EXPECT_EQ(v.terms[0].coeff, 2u);
  ASSERT_TRUE(v.bounded);
  EXPECT_EQ(v.hi, 14u);
  EXPECT_EQ(v.Modulus(), 2u);
}

TEST(AffineFormTest, CommutedOffsetAndStride) {
  // 3 + 2*i: form {c0=3, 2*i}, interval [3, 3+2*7].
  SymEnv env = EnvWith("i", 8);
  AffineVal v = AffineOf(Add(Nat(3), Mul(Nat(2), I())), env);
  ASSERT_TRUE(v.affine);
  EXPECT_EQ(v.c0, 3u);
  ASSERT_EQ(v.terms.size(), 1u);
  EXPECT_EQ(v.terms[0].coeff, 2u);
  ASSERT_TRUE(v.bounded);
  EXPECT_EQ(v.lo, 3u);
  EXPECT_EQ(v.hi, 17u);
}

TEST(AffineFormTest, ModKeepsIntervalWithoutForm) {
  // i % 5 under i < 100: not affine, but bounded by [0, 4].
  SymEnv env = EnvWith("i", 100);
  AffineVal v = AffineOf(Mod(I(), Nat(5)), env);
  EXPECT_FALSE(v.affine);
  ASSERT_TRUE(v.bounded) << v.ToString();
  EXPECT_LE(v.hi, 4u);
}

TEST(AffineFormTest, ModBelowDivisorIsIdentity) {
  // i % 100 under i < 8 is exactly i.
  SymEnv env = EnvWith("i", 8);
  AffineVal v = AffineOf(Mod(I(), Nat(100)), env);
  ASSERT_TRUE(v.affine) << v.ToString();
  ASSERT_EQ(v.terms.size(), 1u);
  EXPECT_EQ(v.terms[0].coeff, 1u);
}

TEST(AffineFormTest, NonDominantMonusLosesForm) {
  // i - i*2 has a negative "true" coefficient: no affine claim, but the
  // monus interval [0, hi(a)] survives.
  SymEnv env = EnvWith("i", 8);
  AffineVal v = AffineOf(Monus(I(), Mul(I(), Nat(2))), env);
  EXPECT_FALSE(v.affine) << v.ToString();
  ASSERT_TRUE(v.bounded);
  EXPECT_EQ(v.lo, 0u);
}

TEST(AffineFormTest, UpperBoundBeatsSyntacticProver) {
  // ConstUpperBound folds i*2 - i to the monus operand's bound (2n-1);
  // the affine bound is the exact n.
  SymEnv env = EnvWith("i", 64);
  ExprPtr e = Monus(Mul(I(), Nat(2)), I());
  std::optional<uint64_t> aub = AffineUpperBound(e, env);
  ASSERT_TRUE(aub.has_value());
  EXPECT_EQ(*aub, 64u);
  std::optional<uint64_t> cub = ConstUpperBound(e, env);
  if (cub.has_value()) {
    EXPECT_GE(*cub, *aub);
  }
}

// ---- directed: the reduced product ------------------------------------

TEST(AffineCoreTest, AffineProofUpgradesSubscriptDefinedness) {
  // [[ a[i*2 - i] | \i < 64 ]] over a 64-array: the syntactic ProveLt
  // cannot see the cancellation, the affine interval can, so the reduced
  // product proves the whole tabulation hole-free.
  ExprPtr a = Expr::Tab({"j"}, Expr::Var("j"), {Nat(64)});
  ExprPtr body = Expr::Subscript(a, Monus(Mul(I(), Nat(2)), I()));
  ExprPtr tab = Expr::Tab({"i"}, body, {Nat(64)});
  AffineAbsVal v = AnalyzeAffineAbs(tab);
  EXPECT_EQ(v.core.def.whole, Definedness::kDefined) << v.ToString();
  EXPECT_TRUE(v.core.def.elems_defined) << v.ToString();
}

TEST(AffineCoreTest, ConstantsFlowThroughTheProduct) {
  AffineAbsVal v = AnalyzeAffineAbs(Add(Nat(2), Mul(Nat(3), Nat(4))));
  ASSERT_TRUE(v.aff.IsConst()) << v.ToString();
  EXPECT_EQ(v.aff.c0, 14u);
}

// ---- directed: widening relation (verifier pass 6) ---------------------

TEST(AffineWidensTest, DetectsWideningAllowsRefinement) {
  AffineAbsVal two = AnalyzeAffineAbs(Nat(2));
  AffineAbsVal three = AnalyzeAffineAbs(Nat(3));
  std::string why;
  EXPECT_TRUE(AffineWidens(two, three, &why)) << why;
  EXPECT_FALSE(AffineWidens(two, two, nullptr));

  // A bounded interval growing (or vanishing) is a violation...
  ExprPtr small = Expr::Tab({"i"}, Mod(I(), Nat(4)), {Nat(8)});
  ExprPtr big = Expr::Tab({"i"}, Mod(I(), Nat(16)), {Nat(8)});
  SymEnv env = EnvWith("i", 8);
  AffineAbsVal pre;
  pre.aff = AffineOf(Mod(I(), Nat(4)), env);
  AffineAbsVal post;
  post.aff = AffineOf(Mod(I(), Nat(16)), env);
  EXPECT_TRUE(AffineWidens(pre, post, &why)) << why;
  // ...but refinement in the other direction is what rewrites do.
  EXPECT_FALSE(AffineWidens(post, pre, nullptr));
  (void)small;
  (void)big;
}

TEST(AffineWidensTest, VacuousOnBottom) {
  AffineAbsVal bottom = AnalyzeAffineAbs(Expr::Bottom());
  AffineAbsVal two = AnalyzeAffineAbs(Nat(2));
  EXPECT_FALSE(AffineWidens(bottom, two, nullptr));
  EXPECT_FALSE(AffineWidens(two, bottom, nullptr));
}

// ---- directed: single-binder matcher -----------------------------------

TEST(MatchAffine1DTest, AllCommutations) {
  struct Case {
    ExprPtr e;
    uint64_t offset, stride;
  };
  std::vector<Case> cases;
  cases.push_back({I(), 0, 1});
  cases.push_back({Add(I(), Nat(3)), 3, 1});
  cases.push_back({Add(Nat(3), I()), 3, 1});
  cases.push_back({Mul(Nat(2), I()), 0, 2});
  cases.push_back({Mul(I(), Nat(2)), 0, 2});
  cases.push_back({Add(Mul(Nat(2), I()), Nat(8)), 8, 2});
  cases.push_back({Add(Nat(8), Mul(I(), Nat(2))), 8, 2});
  for (const Case& c : cases) {
    std::optional<Affine1D> m = MatchAffine1D(c.e);
    ASSERT_TRUE(m.has_value()) << c.e->ToString();
    EXPECT_EQ(m->binder, "i") << c.e->ToString();
    EXPECT_EQ(m->offset, c.offset) << c.e->ToString();
    EXPECT_EQ(m->stride, c.stride) << c.e->ToString();
  }
}

TEST(MatchAffine1DTest, RejectsNonAffineAndTwoBinder) {
  EXPECT_FALSE(MatchAffine1D(Add(I(), Expr::Var("j"))).has_value());
  EXPECT_FALSE(MatchAffine1D(Mul(I(), I())).has_value());
  EXPECT_FALSE(MatchAffine1D(Div(I(), Nat(2))).has_value());
}

// ---- directed: the rectangular access matcher ---------------------------

TEST(MatchRectAccessTest, AcceptsAffinePartsAndRejectsTheRest) {
  const ExprPtr j = Expr::Var("j");
  const std::vector<std::string> ij = {"i", "j"};
  struct Case {
    const char* what;
    ExprPtr index;                     // the index of S[index]
    std::vector<std::string> binders;  // outermost first
    bool accepted;
    std::vector<uint64_t> lower, stride;
  };
  const Case cases[] = {
      {"i", Expr::Tuple({I(), j}), ij, true, {0, 0}, {1, 1}},
      {"i+c", Expr::Tuple({Add(I(), Nat(3)), j}), ij, true, {3, 0}, {1, 1}},
      {"c+i", Expr::Tuple({Add(Nat(3), I()), j}), ij, true, {3, 0}, {1, 1}},
      {"s*i", Expr::Tuple({Mul(Nat(2), I()), j}), ij, true, {0, 0}, {2, 1}},
      {"i*s", Expr::Tuple({Mul(I(), Nat(2)), j}), ij, true, {0, 0}, {2, 1}},
      {"s*i+c", Expr::Tuple({Add(Mul(Nat(2), I()), Nat(8)), j}), ij, true,
       {8, 0}, {2, 1}},
      {"nat-literal offset (a resolved nat val)",
       Expr::Tuple({I(), Add(j, Expr::Literal(Value::Nat(5)))}), ij, true,
       {0, 5}, {1, 1}},
      {"rank 1", Add(I(), Nat(4)), {"i"}, true, {4}, {1}},
      {"transposed", Expr::Tuple({j, I()}), ij, false, {}, {}},
      {"repeated binder (the inner i shadows the outer)",
       Expr::Tuple({I(), I()}), {"i", "i"}, false, {}, {}},
      {"two-binder part", Expr::Tuple({Add(I(), j), j}), ij, false, {}, {}},
      {"constant part", Expr::Tuple({Nat(7), j}), ij, false, {}, {}},
      {"i*i", Expr::Tuple({Mul(I(), I()), j}), ij, false, {}, {}},
      {"rank mismatch", I(), ij, false, {}, {}},
  };
  const ExprPtr s = Expr::Var("S");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::optional<RectAccess> m = MatchRectAccess(Expr::Subscript(s, c.index), c.binders);
    ASSERT_EQ(m.has_value(), c.accepted);
    if (!m) continue;
    EXPECT_EQ(m->base, s);
    EXPECT_EQ(m->lower, c.lower);
    EXPECT_EQ(m->stride, c.stride);
  }
  EXPECT_FALSE(MatchRectAccess(Add(I(), Nat(1)), {"i"}).has_value()) << "not a subscript";
}

TEST(MatchRectAccessTest, FitsChecksTheLastTouchedCoordinate) {
  // Rows 8, 10, 12, 14 and columns 0..15.
  RectAccess a;
  a.lower = {8, 0};
  a.stride = {2, 1};
  EXPECT_TRUE(a.Fits({4, 16}, {15, 16}));   // row 14 is the last in range
  EXPECT_FALSE(a.Fits({4, 16}, {14, 16}));  // row 14 is one past the end
  EXPECT_FALSE(a.Fits({4, 17}, {15, 16}));  // column 16 is one past the end
  EXPECT_FALSE(a.Fits({4}, {15}));          // rank mismatch

  // stride·(extent − 1) overflows uint64; so does lower + stride·(extent − 1).
  RectAccess wide;
  wide.lower = {0};
  wide.stride = {UINT64_MAX / 2};
  EXPECT_TRUE(wide.Fits({1}, {1}));  // one trip touches only the origin
  EXPECT_FALSE(wide.Fits({4}, {UINT64_MAX}));
  wide.lower = {2};
  EXPECT_FALSE(wide.Fits({3}, {UINT64_MAX}));

  // A zero-trip dimension touches nothing, but its origin must still lie
  // inside [0, dim] (SliceArray's convention for an empty range).
  RectAccess empty;
  empty.lower = {16, 0};
  empty.stride = {3, 1};
  EXPECT_TRUE(empty.Fits({0, 4}, {16, 4}));
  EXPECT_FALSE(empty.Fits({0, 4}, {15, 4}));
}

// ---- directed: proof certificates --------------------------------------

TEST(ProofTest, RecordsAndRenders) {
  Proof proof;
  EXPECT_TRUE(proof.empty());
  proof.Add("strided-pushdown", "tab over S",
            {"dim 0: index = 8 + 2*i (affine in i)"});
  EXPECT_FALSE(proof.empty());
  std::string s = proof.ToString();
  EXPECT_NE(s.find("strided-pushdown @ tab over S"), std::string::npos) << s;
  EXPECT_NE(s.find("  - dim 0"), std::string::npos) << s;
}

TEST(ProofTest, AffineAdmissionRecordsCertificate) {
  // The unchecked-kernel admission of a[i*2 - i] needs the affine bound;
  // the compiled Program carries the certificate.
  System sys;
  auto setup = sys.Run("val \\a = [[ j * j | \\j < 64 ]];");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto compiled = sys.Compile("[[ a[i * 2 - i] + 1 | \\i < 64 ]]");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto program = exec::Compile(*compiled, sys.PrimitiveResolver());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  bool found = false;
  for (const ProofEntry& e : program->proof().entries) {
    if (e.optimization == "unchecked-kernel-bounds") found = true;
  }
  EXPECT_TRUE(found) << program->proof().ToString();

  // And the proof is not vacuous: both modes agree.
  Result<Value> fast = [&] {
    ExecScope scope(nullptr, Unchecked(true));
    return program->Run();
  }();
  Result<Value> checked = [&] {
    ExecScope scope(nullptr, Unchecked(false));
    return program->Run();
  }();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*fast, *checked);
}

TEST(UncheckedAdmissionTest, AffineProofAdmitsCancellationGather) {
  System sys;
  auto setup = sys.Run("val \\a = [[ j + 1 | \\j < 32 ]];");
  ASSERT_TRUE(setup.ok());
  auto compiled = sys.Compile("[[ a[(i * 4) / 2] | \\i < 16 ]]");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const exec::ExecStats& stats = exec::GlobalExecStats();
  uint64_t before = stats.unchecked_kernels.load();
  Result<Value> fast = [&] {
    ExecScope scope(nullptr, Unchecked(true));
    return sys.EvalCoreCompiled(*compiled);
  }();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_GT(stats.unchecked_kernels.load(), before)
      << "expected the affine-proven gather to run unchecked";
  auto tree = sys.EvalCore(*compiled);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(*fast, *tree);
}

// ---- fuzz: affine claims vs. the evaluator -----------------------------

// Random nat-valued index expression over the binder `i` and small
// constants, exercising every transfer (add, mul, monus, div, mod, if).
ExprPtr RandIdx(std::mt19937_64* rng, int depth) {
  if (depth <= 0) {
    return ((*rng)() % 2 == 0) ? I() : Nat((*rng)() % 9);
  }
  switch ((*rng)() % 8) {
    case 0: return I();
    case 1: return Nat((*rng)() % 9);
    case 2: return Add(RandIdx(rng, depth - 1), RandIdx(rng, depth - 1));
    case 3: return Mul(RandIdx(rng, depth - 1), RandIdx(rng, depth - 1));
    case 4: return Monus(RandIdx(rng, depth - 1), RandIdx(rng, depth - 1));
    case 5: return Div(RandIdx(rng, depth - 1), Nat(1 + (*rng)() % 4));
    case 6: return Mod(RandIdx(rng, depth - 1), Nat(1 + (*rng)() % 8));
    default:
      return Expr::If(Expr::Cmp(CmpOp::kLt, I(), Nat((*rng)() % 8)),
                      RandIdx(rng, depth - 1), RandIdx(rng, depth - 1));
  }
}

// Checks the affine claims of `v` (computed under `i < n`) against the
// concrete evaluation of `body` at every i in [0, n). Returns the number
// of non-trivial claims checked.
int CheckAffineClaims(const ExprPtr& body, const AffineVal& v, uint64_t n) {
  if (!v.affine && !v.bounded) return 0;
  Evaluator eval;
  int checked = 0;
  for (uint64_t i = 0; i < n; ++i) {
    ExprPtr inst = Expr::Let("i", Nat(i), body);
    auto result = eval.Eval(inst);
    EXPECT_TRUE(result.ok()) << inst->ToString();
    if (!result.ok()) return checked;
    if (result->is_bottom()) continue;  // claims are conditional on success
    EXPECT_EQ(result->kind(), ValueKind::kNat) << inst->ToString();
    if (result->kind() != ValueKind::kNat) return checked;
    const uint64_t got = result->nat_value();
    const std::string ctx =
        body->ToString() + " @ i=" + std::to_string(i) + " -> " +
        std::to_string(got) + " vs " + v.ToString();
    if (v.affine) {
      uint64_t expected = v.c0;  // forms are exact mod 2^64
      for (const AffineCoeff& t : v.terms) {
        EXPECT_EQ(t.var, "i") << ctx;
        expected += t.coeff * i;
      }
      EXPECT_EQ(got, expected) << "form: " << ctx;
      ++checked;
    }
    if (v.bounded) {
      EXPECT_GE(got, v.lo) << "interval: " << ctx;
      EXPECT_LE(got, v.hi) << "interval: " << ctx;
      ++checked;
    }
  }
  return checked;
}

class AffineSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffineSoundness, FormsMatchEvaluatedValues) {
  std::mt19937_64 rng(GetParam());
  int claims = 0;
  for (int t = 0; t < 400; ++t) {
    const uint64_t n = 1 + rng() % 8;
    ExprPtr body = RandIdx(&rng, 1 + int(rng() % 4));
    SymEnv env = EnvWith("i", n);
    AffineVal v = AffineOf(body, env);
    claims += CheckAffineClaims(body, v, n);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The domain must commit to claims, not hide behind ⊤.
  EXPECT_GT(claims, 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineSoundness,
                         ::testing::Values(7, 42, 1996, 123456, 987654321));

// The claims refine (never widen) across the optimizer, and still hold of
// the optimized term — the property the verifier's AffineCheck enforces
// per phase on every AQL_VERIFY_IR=1 run.
TEST(AffineSoundness, ClaimsRefineAndHoldAfterOptimization) {
  std::mt19937_64 rng(2024);
  Optimizer opt;
  for (int t = 0; t < 200; ++t) {
    const uint64_t n = 1 + rng() % 8;
    ExprPtr body = RandIdx(&rng, 1 + int(rng() % 4));
    ExprPtr tab = Expr::Tab({"i"}, body, {Nat(n)});
    ExprPtr optimized = opt.Optimize(tab);

    std::string why;
    AffineAbsVal pre = AnalyzeAffineAbs(tab);
    AffineAbsVal post = AnalyzeAffineAbs(optimized);
    EXPECT_FALSE(AffineWidens(pre, post, &why))
        << tab->ToString() << " -> " << optimized->ToString() << ": " << why;

    if (optimized->is(ExprKind::kTab) && optimized->tab_rank() == 1 &&
        optimized->tab_bound(0)->is(ExprKind::kNatConst)) {
      SymEnv env = EnvWith(optimized->binders()[0],
                           optimized->tab_bound(0)->nat_const());
      AffineVal v = AffineOf(optimized->tab_body(), env);
      if (optimized->binders()[0] == "i") {
        CheckAffineClaims(optimized->tab_body(), v,
                          optimized->tab_bound(0)->nat_const());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Whole random closed terms through the reduced product: a constant claim
// at the root must equal the evaluated value.
TEST(AffineSoundness, RootConstantsMatchEvaluator) {
  ExprGen gen(31337);
  Evaluator eval;
  int consts = 0;
  for (int t = 0; t < 400; ++t) {
    ExprPtr e = gen.Nat(4);
    auto result = eval.Eval(e);
    ASSERT_TRUE(result.ok()) << e->ToString();
    if (result->is_bottom()) continue;
    AffineAbsVal v = AnalyzeAffineAbs(e);
    if (v.aff.IsConst() && result->kind() == ValueKind::kNat) {
      EXPECT_EQ(result->nat_value(), v.aff.c0)
          << e->ToString() << " vs " << v.ToString();
      ++consts;
    }
    if (v.aff.bounded && result->kind() == ValueKind::kNat) {
      EXPECT_GE(result->nat_value(), v.aff.lo) << e->ToString();
      EXPECT_LE(result->nat_value(), v.aff.hi) << e->ToString();
    }
  }
  EXPECT_GT(consts, 50);
}

}  // namespace
}  // namespace analysis
}  // namespace aql
