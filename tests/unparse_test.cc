// Unparser tests: directed renderings, and the round-trip property
//   eval(compile(Unparse(e))) == eval(e)
// over randomly generated core terms — which exercises the lexer, parser,
// desugarer, type checker, optimizer, and evaluator against each other.

#include "surface/unparse.h"

#include "base/strings.h"
#include "env/system.h"
#include "gtest/gtest.h"
#include "opt/analysis.h"
#include "test_util.h"

// The soundness suite's generator is reused via inclusion of its header
// part; to keep things simple we re-declare a tiny generator here.
#include <random>

namespace aql {
namespace {

std::string MustUnparse(const ExprPtr& e) {
  auto r = Unparse(e);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : "";
}

TEST(Unparse, DirectedForms) {
  EXPECT_EQ(MustUnparse(Expr::NatConst(42)), "42");
  EXPECT_EQ(MustUnparse(Expr::BoolConst(false)), "false");
  EXPECT_EQ(MustUnparse(Expr::StrConst("a\"b")), "\"a\\\"b\"");
  EXPECT_EQ(MustUnparse(Expr::RealConst(-2.5)), "(0.0 - 2.5)");
  EXPECT_EQ(MustUnparse(Expr::Gen(Expr::NatConst(5))), "gen!(5)");
  EXPECT_EQ(MustUnparse(Expr::Lambda("x", Expr::Var("x"))), "(fn \\x => x)");
  EXPECT_EQ(MustUnparse(Expr::Dim(1, Expr::Var("A"))), "len!(A)");
  EXPECT_EQ(MustUnparse(Expr::Dim(3, Expr::Var("A"))), "dim3!(A)");
  EXPECT_EQ(MustUnparse(Expr::Proj(2, 3, Expr::Var("t"))), "pi_2_3!(t)");
  EXPECT_EQ(MustUnparse(Expr::Union(Expr::Var("a"), Expr::Var("b"))),
            "setunion!(a, b)");
  EXPECT_EQ(MustUnparse(Expr::Sum("x", Expr::Var("x"), Expr::Var("s"))),
            "summap(fn \\x => x)!(s)");
  EXPECT_EQ(MustUnparse(Expr::Tab({"i"}, Expr::Var("i"), {Expr::NatConst(3)})),
            "[[ i | \\i < 3 ]]");
}

TEST(Unparse, BigUnionBecomesComprehension) {
  ExprPtr e = Expr::BigUnion("x", Expr::Singleton(Expr::Var("x")),
                             Expr::Gen(Expr::NatConst(4)));
  std::string s = MustUnparse(e);
  EXPECT_NE(s.find("<- gen!(4)"), std::string::npos) << s;
  System sys;
  EXPECT_EQ(testing::EvalOrDie(&sys, s).ToString(), "{0, 1, 2, 3}");
}

TEST(Unparse, InternalNamesAreMangled) {
  // '$'-suffixed names (desugarer/optimizer internals) get fresh safe
  // spellings.
  ExprPtr e = Expr::Lambda("p$0", Expr::Var("p$0"));
  std::string s = MustUnparse(e);
  EXPECT_EQ(s.find('$'), std::string::npos) << s;
  System sys;
  auto back = sys.Compile(s);
  ASSERT_TRUE(back.ok()) << s;
}

TEST(Unparse, LiteralValuesRenderAsExpressions) {
  Value v = Value::MakeSet(
      {Value::MakeTuple({Value::Nat(1), Value::Real(-0.5)}),
       Value::MakeTuple({Value::Nat(2), Value::Real(3.5)})});
  std::string s = MustUnparse(Expr::Literal(v));
  System sys;
  EXPECT_EQ(testing::EvalOrDie(&sys, s), v) << s;
}

TEST(Unparse, FunctionValuesRejected) {
  System sys;
  auto compiled = sys.Compile("fn \\x => x");
  ASSERT_TRUE(compiled.ok());
  auto closure = sys.EvalCore(*compiled);
  ASSERT_TRUE(closure.ok());
  EXPECT_FALSE(Unparse(Expr::Literal(*closure)).ok());
}

// Random core terms (same grammar as the optimizer soundness generator,
// compact copy) round-trip through the full surface pipeline.
class UnparseGen {
 public:
  explicit UnparseGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Nat(int depth) {
    if (depth <= 0) return Leaf();
    switch (rng_() % 8) {
      case 0: return Leaf();
      case 1:
        return Expr::Arith(static_cast<ArithOp>(rng_() % 5), Nat(depth - 1),
                           Nat(depth - 1));
      case 2:
        return Expr::If(Expr::Cmp(static_cast<CmpOp>(rng_() % 6), Nat(depth - 1),
                                  Nat(depth - 1)),
                        Nat(depth - 1), Nat(depth - 1));
      case 3: {
        std::string v = Push();
        ExprPtr body = Nat(depth - 1);
        Pop();
        return Expr::Sum(v, body, Set(depth - 1));
      }
      case 4:
        return Expr::Subscript(Arr(depth - 1), Nat(depth - 1));
      case 5:
        return Expr::Dim(1, Arr(depth - 1));
      case 6:
        return Expr::Get(Set(depth - 1));
      default:
        return Expr::Proj(1 + rng_() % 2, 2,
                          Expr::Tuple({Nat(depth - 1), Nat(depth - 1)}));
    }
  }

  ExprPtr Set(int depth) {
    if (depth <= 0) return Expr::Gen(Expr::NatConst(rng_() % 4));
    switch (rng_() % 5) {
      case 0: return Expr::EmptySet();
      case 1: return Expr::Singleton(Nat(depth - 1));
      case 2: return Expr::Union(Set(depth - 1), Set(depth - 1));
      case 3: {
        ExprPtr src = Set(depth - 1);
        std::string v = Push();
        ExprPtr body = Set(depth - 1);
        Pop();
        return Expr::BigUnion(v, body, src);
      }
      default: return Expr::Gen(Nat(depth - 1));
    }
  }

  ExprPtr Arr(int depth) {
    if (depth <= 0 || rng_() % 2 == 0) {
      std::vector<ExprPtr> elems;
      size_t n = rng_() % 4;
      for (size_t i = 0; i < n; ++i) elems.push_back(Expr::NatConst(rng_() % 9));
      return Expr::Dense(1, {Expr::NatConst(n)}, std::move(elems));
    }
    std::string v = Push();
    ExprPtr body = Nat(depth - 1);
    Pop();
    return Expr::Tab({v}, body, {Expr::NatConst(rng_() % 5)});
  }

 private:
  ExprPtr Leaf() {
    if (!scope_.empty() && rng_() % 2 == 0) {
      return Expr::Var(scope_[rng_() % scope_.size()]);
    }
    return Expr::NatConst(rng_() % 10);
  }
  std::string Push() {
    std::string v = StrCat("w", next_++);
    scope_.push_back(v);
    return v;
  }
  void Pop() { scope_.pop_back(); }

  std::mt19937_64 rng_;
  std::vector<std::string> scope_;
  int next_ = 0;
};

class UnparseRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnparseRoundTrip, CompileOfUnparsePreservesErrorFreeResults) {
  UnparseGen gen(GetParam());
  System sys;
  for (int i = 0; i < 150; ++i) {
    ExprPtr e = (i % 3 == 0) ? gen.Set(3) : (i % 3 == 1) ? gen.Nat(3) : gen.Arr(3);
    auto direct = sys.EvalCore(e);
    ASSERT_TRUE(direct.ok()) << e->ToString();
    auto text = Unparse(e);
    ASSERT_TRUE(text.ok()) << e->ToString() << ": " << text.status().ToString();
    auto back = sys.Compile(*text);
    ASSERT_TRUE(back.ok()) << *text << "\nfrom: " << e->ToString() << "\nerror: "
                           << back.status().ToString();
    auto round = sys.EvalCore(*back);
    ASSERT_TRUE(round.ok()) << *text;
    // The optimizer may refine bottoms away; on error-free results the
    // round trip must be exact.
    if (ValueErrorFree(*direct)) {
      EXPECT_EQ(*direct, *round) << *text << "\nfrom: " << e->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnparseRoundTrip,
                         ::testing::Values(8, 44, 1996, 271828));

}  // namespace
}  // namespace aql
