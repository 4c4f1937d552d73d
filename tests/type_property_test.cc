// Property tests for the type layer: random types round-trip through
// print -> parse, unification is reflexive/symmetric on them, and
// instantiated schemes stay structurally consistent.

#include <random>

#include "base/strings.h"
#include "gtest/gtest.h"
#include "types/type.h"
#include "types/unify.h"

namespace aql {
namespace {

class TypeGen {
 public:
  explicit TypeGen(uint64_t seed) : rng_(seed) {}

  TypePtr Next(int depth) {
    if (depth <= 0) return Scalar();
    switch (rng_() % 8) {
      case 0:
      case 1:
        return Scalar();
      case 2: {
        size_t k = 2 + rng_() % 3;
        std::vector<TypePtr> fields;
        for (size_t i = 0; i < k; ++i) fields.push_back(Next(depth - 1));
        return Type::Product(std::move(fields));
      }
      case 3:
        return Type::Set(Next(depth - 1));
      case 4:
        return Type::Array(Next(depth - 1), 1 + rng_() % 4);
      case 5:
        return Type::Arrow(Next(depth - 1), Next(depth - 1));
      case 6:
        return Type::Base(StrCat("b", rng_() % 3));
      default:
        return Type::Set(Type::Set(Next(depth - 2 < 0 ? 0 : depth - 2)));
    }
  }

 private:
  TypePtr Scalar() {
    switch (rng_() % 4) {
      case 0: return Type::Bool();
      case 1: return Type::Nat();
      case 2: return Type::Real();
      default: return Type::String();
    }
  }
  std::mt19937_64 rng_;
};

class TypeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TypeRoundTrip, ParseOfPrintIsIdentity) {
  TypeGen gen(GetParam());
  for (int i = 0; i < 300; ++i) {
    TypePtr t = gen.Next(4);
    auto back = ParseType(t->ToString());
    ASSERT_TRUE(back.ok()) << t->ToString() << ": " << back.status().ToString();
    EXPECT_TRUE(Type::Equals(t, *back)) << t->ToString() << " vs "
                                        << (*back)->ToString();
  }
}

TEST_P(TypeRoundTrip, UnificationIsReflexiveOnGroundTypes) {
  TypeGen gen(GetParam() + 99);
  for (int i = 0; i < 200; ++i) {
    TypePtr t = gen.Next(3);
    TypeUnifier u;
    EXPECT_TRUE(u.Unify(t, t).ok()) << t->ToString();
    // A fresh variable unifies with anything and resolves to it.
    TypePtr v = u.Fresh();
    ASSERT_TRUE(u.Unify(v, t).ok());
    EXPECT_TRUE(Type::Equals(u.Resolve(v), t)) << t->ToString();
  }
}

TEST_P(TypeRoundTrip, DistinctStructuresDoNotUnify) {
  TypeGen gen(GetParam() + 7);
  int mismatches = 0;
  for (int i = 0; i < 200; ++i) {
    TypePtr a = gen.Next(3);
    TypePtr b = gen.Next(3);
    TypeUnifier u;
    bool unified = u.Unify(a, b).ok();
    bool equal = Type::Equals(a, b);
    // Ground types unify iff equal.
    EXPECT_EQ(unified, equal) << a->ToString() << " vs " << b->ToString();
    if (!equal) ++mismatches;
  }
  EXPECT_GT(mismatches, 150) << "generator should rarely repeat";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypeRoundTrip, ::testing::Values(1, 42, 1996, 161803));

TEST(TypeSchemes, VariablesParseAndShareByName) {
  auto scheme = ParseType("'a * {'a} -> {'a * 'b}");
  ASSERT_TRUE(scheme.ok());
  const TypePtr& s = *scheme;
  ASSERT_TRUE(s->is(TypeKind::kArrow));
  // 'a in the domain product and in the codomain set must be the SAME var.
  const TypePtr& dom_a = s->from()->fields()[0];
  const TypePtr& codom_pair = s->to()->elem();
  ASSERT_TRUE(dom_a->is(TypeKind::kVar));
  EXPECT_EQ(dom_a->var_id(), codom_pair->fields()[0]->var_id());
  EXPECT_NE(dom_a->var_id(), codom_pair->fields()[1]->var_id()) << "'b is distinct";
  EXPECT_FALSE(s->IsGround());
}

TEST(TypeSchemes, VarSyntaxErrors) {
  EXPECT_FALSE(ParseType("'").ok());
  EXPECT_FALSE(ParseType("' a").ok());
}

}  // namespace
}  // namespace aql
