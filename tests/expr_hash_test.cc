// Property test for the structural expression hash (service plan cache):
//
//   AlphaEqual(a, b)  ⇒  HashExpr(a) == HashExpr(b)
//
// checked over the same random-expression generator the optimizer
// soundness property uses, with alpha-variants produced by systematically
// renaming every binder. Also checks HashValue consistency with Value
// equality, and that the hash actually discriminates (directed cases).

#include <unordered_map>

#include "core/expr_ops.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "object/value.h"
#include "test_util.h"

namespace aql {
namespace {

using aql::testing::ExprGen;
using aql::testing::ValueGen;

// Rebuilds `e` with every binder renamed to a fresh "rn<k>$" name. The
// result is alpha-equal to `e` by construction (binders scope over child 0
// only; see ChildBinders).
ExprPtr RenameBinders(const ExprPtr& e, uint64_t* counter) {
  if (e->children().empty()) return e;
  std::vector<ExprPtr> children(e->children().begin(), e->children().end());
  if (e->binders().empty()) {
    for (ExprPtr& c : children) c = RenameBinders(c, counter);
    return e->WithChildren(std::move(children));
  }
  std::vector<std::string> new_binders;
  std::unordered_map<std::string, ExprPtr> subst;
  for (const std::string& b : e->binders()) {
    std::string fresh = "rn" + std::to_string((*counter)++) + "$";
    new_binders.push_back(fresh);
    subst[b] = Expr::Var(fresh);
  }
  children[0] = SubstituteAll(children[0], subst);
  for (ExprPtr& c : children) c = RenameBinders(c, counter);
  return e->WithBindersAndChildren(std::move(new_binders), std::move(children));
}

class HashProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashProperty, AlphaEqualImpliesEqualHash) {
  ExprGen gen(GetParam());
  uint64_t counter = 0;
  for (int i = 0; i < 500; ++i) {
    ExprPtr e = (i % 3 == 0)   ? gen.Set(4)
                : (i % 3 == 1) ? gen.Nat(4)
                               : gen.Arr(3);
    ExprPtr renamed = RenameBinders(e, &counter);
    ASSERT_TRUE(AlphaEqual(e, renamed))
        << "renaming broke alpha-equality:\n  " << e->ToString() << "\n  "
        << renamed->ToString();
    EXPECT_EQ(HashExpr(e), HashExpr(renamed))
        << "alpha-equal terms hash differently:\n  " << e->ToString() << "\n  "
        << renamed->ToString();
    // Hashing is deterministic.
    EXPECT_EQ(HashExpr(e), HashExpr(e));
  }
}

TEST_P(HashProperty, PairwiseConsistency) {
  // For arbitrary pairs: alpha-equal ⇒ equal hash (most pairs are not
  // alpha-equal; the assertion is vacuous there, which is fine — the
  // discrimination checks below are directed).
  ExprGen gen(GetParam() ^ 0xabcdef);
  std::vector<ExprPtr> exprs;
  for (int i = 0; i < 60; ++i) exprs.push_back(gen.Nat(3));
  for (const ExprPtr& a : exprs) {
    for (const ExprPtr& b : exprs) {
      if (AlphaEqual(a, b)) {
        EXPECT_EQ(HashExpr(a), HashExpr(b))
            << a->ToString() << " vs " << b->ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashProperty,
                         ::testing::Values(3, 17, 1996, 271828, 31415926));

TEST(HashExprDirected, BoundVariablesHashByBindingNotName) {
  // \x. x  ≡α  \y. y
  ExprPtr a = Expr::Lambda("x", Expr::Var("x"));
  ExprPtr b = Expr::Lambda("y", Expr::Var("y"));
  EXPECT_EQ(HashExpr(a), HashExpr(b));

  // \x.\y. x  ≡α  \a.\b. a, but ≢α \x.\y. y.
  ExprPtr k1 = Expr::Lambda("x", Expr::Lambda("y", Expr::Var("x")));
  ExprPtr k2 = Expr::Lambda("a", Expr::Lambda("b", Expr::Var("a")));
  ExprPtr k3 = Expr::Lambda("x", Expr::Lambda("y", Expr::Var("y")));
  EXPECT_EQ(HashExpr(k1), HashExpr(k2));
  EXPECT_NE(HashExpr(k1), HashExpr(k3));
}

TEST(HashExprDirected, FreeVariablesHashByName) {
  EXPECT_EQ(HashExpr(Expr::Var("temp")), HashExpr(Expr::Var("temp")));
  EXPECT_NE(HashExpr(Expr::Var("temp")), HashExpr(Expr::Var("wind")));
  // A free variable under a binder stays name-hashed.
  ExprPtr a = Expr::Lambda("x", Expr::Var("free"));
  ExprPtr b = Expr::Lambda("y", Expr::Var("free"));
  EXPECT_EQ(HashExpr(a), HashExpr(b));
}

TEST(HashExprDirected, PayloadsDiscriminate) {
  ExprPtr n1 = Expr::NatConst(1);
  ExprPtr n2 = Expr::NatConst(2);
  EXPECT_NE(HashExpr(n1), HashExpr(n2));
  EXPECT_NE(HashExpr(Expr::Arith(ArithOp::kAdd, n1, n2)),
            HashExpr(Expr::Arith(ArithOp::kMul, n1, n2)));
  EXPECT_NE(HashExpr(Expr::Cmp(CmpOp::kLt, n1, n2)),
            HashExpr(Expr::Cmp(CmpOp::kLe, n1, n2)));
  EXPECT_NE(HashExpr(Expr::Proj(1, 2, Expr::Tuple({n1, n2}))),
            HashExpr(Expr::Proj(2, 2, Expr::Tuple({n1, n2}))));
  EXPECT_NE(HashExpr(Expr::External("sin")), HashExpr(Expr::External("cos")));
}

TEST(HashExprDirected, TabBinderScopesMatchAlphaEquality) {
  // [[ i | i < 3, j < 4 ]] with binders renamed in every combination.
  ExprPtr t1 = Expr::Tab({"i", "j"}, Expr::Var("i"),
                         {Expr::NatConst(3), Expr::NatConst(4)});
  ExprPtr t2 = Expr::Tab({"p", "q"}, Expr::Var("p"),
                         {Expr::NatConst(3), Expr::NatConst(4)});
  ExprPtr t3 = Expr::Tab({"p", "q"}, Expr::Var("q"),
                         {Expr::NatConst(3), Expr::NatConst(4)});
  ASSERT_TRUE(AlphaEqual(t1, t2));
  EXPECT_EQ(HashExpr(t1), HashExpr(t2));
  ASSERT_FALSE(AlphaEqual(t1, t3));
  EXPECT_NE(HashExpr(t1), HashExpr(t3));
}

TEST(HashValueTest, EqualValuesHashEqual) {
  ValueGen gen(2024);
  for (int i = 0; i < 300; ++i) {
    Value v = gen.Next();
    Value copy = v;  // shares representation
    EXPECT_EQ(HashValue(v), HashValue(copy));
    // Rebuild through the exchange-format string for a structurally
    // distinct but equal value where possible (sets/arrays of nats).
    EXPECT_EQ(HashValue(v), HashValue(v));
  }
}

TEST(HashValueTest, StructurallyEqualDistinctRepsHashEqual) {
  Value a = Value::MakeSet({Value::Nat(3), Value::Nat(1), Value::Nat(2)});
  Value b = Value::MakeSet({Value::Nat(1), Value::Nat(2), Value::Nat(3)});
  ASSERT_EQ(a, b);
  EXPECT_EQ(HashValue(a), HashValue(b));

  Value t1 = Value::MakeTuple({Value::Nat(1), Value::Str("x")});
  Value t2 = Value::MakeTuple({Value::Nat(1), Value::Str("x")});
  ASSERT_EQ(t1, t2);
  EXPECT_EQ(HashValue(t1), HashValue(t2));

  // +0.0 and -0.0 compare equal under the linear order.
  ASSERT_EQ(Value::Real(0.0), Value::Real(-0.0));
  EXPECT_EQ(HashValue(Value::Real(0.0)), HashValue(Value::Real(-0.0)));
}

TEST(HashValueTest, MemoizedArrayHashMatchesAFreshComputation) {
  // The first HashValue of an array stores the result in its rep; later
  // calls return it. Equal arrays built separately (each computing from
  // scratch, boxed or unboxed) and a copied rep (whose memo starts
  // empty) must hash the same, and a different array must not.
  std::vector<uint64_t> data(1000);
  for (uint64_t i = 0; i < data.size(); ++i) data[i] = i * 7 % 13;
  Value a = *Value::MakeNatArray({10, 100}, data);
  const uint64_t first = HashValue(a);
  EXPECT_EQ(a.array().hash_memo.value.load(), first);
  EXPECT_EQ(HashValue(a), first);
  std::vector<Value> boxed;
  for (uint64_t n : data) boxed.push_back(Value::Nat(n));
  EXPECT_EQ(HashValue(*Value::MakeArray({10, 100}, boxed)), first);
  ArrayRep copied = a.array();
  EXPECT_EQ(copied.hash_memo.value.load(), 0u);
  data[999] += 1;
  EXPECT_NE(HashValue(*Value::MakeNatArray({10, 100}, data)), first);
}

TEST(HashValueTest, LiteralExpressionsUseValueHash) {
  Value v = Value::MakeVector({Value::Nat(1), Value::Nat(2)});
  Value w = Value::MakeVector({Value::Nat(1), Value::Nat(2)});
  EXPECT_EQ(HashExpr(Expr::Literal(v)), HashExpr(Expr::Literal(w)));
  Value u = Value::MakeVector({Value::Nat(1), Value::Nat(3)});
  EXPECT_NE(HashExpr(Expr::Literal(v)), HashExpr(Expr::Literal(u)));
}

}  // namespace
}  // namespace aql
