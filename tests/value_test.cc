// Tests for the complex-object runtime (src/object/value.*): construction,
// the definable linear order <_t, canonical sets, arrays, and printing.

#include "object/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace aql {
namespace {

TEST(ValueBasics, KindsAndAccessors) {
  EXPECT_EQ(Value::Bool(true).kind(), ValueKind::kBool);
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Nat(42).nat_value(), 42u);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).real_value(), 2.5);
  EXPECT_EQ(Value::Str("abc").str_value(), "abc");
  EXPECT_TRUE(Value::Bottom().is_bottom());
  EXPECT_TRUE(Value().is_bottom()) << "default value must be bottom";
}

TEST(ValueBasics, TupleFields) {
  Value t = Value::MakeTuple({Value::Nat(1), Value::Str("x"), Value::Bool(false)});
  ASSERT_EQ(t.kind(), ValueKind::kTuple);
  ASSERT_EQ(t.tuple_fields().size(), 3u);
  EXPECT_EQ(t.tuple_fields()[1].str_value(), "x");
}

TEST(ValueSets, CanonicalizationSortsAndDeduplicates) {
  Value s = Value::MakeSet({Value::Nat(3), Value::Nat(1), Value::Nat(3), Value::Nat(2)});
  ASSERT_EQ(s.set().elems.size(), 3u);
  EXPECT_EQ(s.set().elems[0].nat_value(), 1u);
  EXPECT_EQ(s.set().elems[1].nat_value(), 2u);
  EXPECT_EQ(s.set().elems[2].nat_value(), 3u);
  // Already ascending input (MakeSet skips the sort) still deduplicates.
  EXPECT_EQ(Value::MakeSet({Value::Nat(1), Value::Nat(2), Value::Nat(2), Value::Nat(5)}).ToString(),
            "{1, 2, 5}");
}

TEST(ValueSets, StructuralEqualityIgnoresInsertionOrder) {
  Value a = Value::MakeSet({Value::Nat(1), Value::Nat(2)});
  Value b = Value::MakeSet({Value::Nat(2), Value::Nat(1), Value::Nat(2)});
  EXPECT_EQ(a, b);
}

TEST(ValueSets, ContainsUsesBinarySearch) {
  std::vector<Value> elems;
  for (uint64_t i = 0; i < 100; i += 2) elems.push_back(Value::Nat(i));
  Value s = Value::MakeSet(std::move(elems));
  EXPECT_TRUE(s.SetContains(Value::Nat(42)));
  EXPECT_FALSE(s.SetContains(Value::Nat(43)));
}

TEST(ValueSets, UnionMergesAndDeduplicates) {
  Value a = Value::MakeSet({Value::Nat(1), Value::Nat(3)});
  Value b = Value::MakeSet({Value::Nat(2), Value::Nat(3)});
  Value u = Value::SetUnion(a, b);
  ASSERT_EQ(u.set().elems.size(), 3u);
  EXPECT_EQ(u, Value::MakeSet({Value::Nat(1), Value::Nat(2), Value::Nat(3)}));
}

TEST(ValueSets, UnionWithEmpty) {
  Value a = Value::MakeSet({Value::Nat(1)});
  EXPECT_EQ(Value::SetUnion(a, Value::EmptySet()), a);
  EXPECT_EQ(Value::SetUnion(Value::EmptySet(), a), a);
}

TEST(ValueArrays, RowMajorFlattening) {
  auto arr = Value::MakeArray({2, 3}, {Value::Nat(0), Value::Nat(1), Value::Nat(2),
                                       Value::Nat(3), Value::Nat(4), Value::Nat(5)});
  ASSERT_TRUE(arr.ok());
  const ArrayRep& a = arr->array();
  EXPECT_EQ(a.Flatten({1, 2}), 5u);
  EXPECT_EQ(a.Flatten({0, 2}), 2u);
  EXPECT_TRUE(a.InBounds({1, 2}));
  EXPECT_FALSE(a.InBounds({2, 0}));
  EXPECT_FALSE(a.InBounds({0}));  // wrong arity
}

TEST(ValueArrays, DimensionMismatchRejected) {
  auto bad = Value::MakeArray({2, 3}, {Value::Nat(0)});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValueArrays, ZeroLengthDimension) {
  auto arr = Value::MakeArray({0}, {});
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr->array().TotalSize(), 0u);
  auto arr2 = Value::MakeArray({3, 0}, {});
  ASSERT_TRUE(arr2.ok());
}

TEST(ValueOrder, KindRankOrdering) {
  // bottom < bool < nat < real < string < tuple < set < array.
  std::vector<Value> ascending = {
      Value::Bottom(),
      Value::Bool(true),
      Value::Nat(999),
      Value::Real(-1e9),
      Value::Str(""),
      Value::MakeTuple({Value::Nat(0), Value::Nat(0)}),
      Value::EmptySet(),
      Value::MakeVector({}),
  };
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(Value::Compare(ascending[i], ascending[i + 1]), 0)
        << "at index " << i;
  }
}

TEST(ValueOrder, LexicographicWithinKind) {
  EXPECT_LT(Value::Nat(1), Value::Nat(2));
  EXPECT_LT(Value::Str("ab"), Value::Str("b"));
  EXPECT_LT(Value::MakeTuple({Value::Nat(1), Value::Nat(9)}),
            Value::MakeTuple({Value::Nat(2), Value::Nat(0)}));
  // Arrays: dims first, then content.
  EXPECT_LT(Value::MakeVector({Value::Nat(9)}),
            Value::MakeVector({Value::Nat(0), Value::Nat(0)}));
}

// Property: Compare is a total order (antisymmetric, transitive, total)
// over randomly generated values.
class ValueOrderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderProperty, TotalOrderLaws) {
  testing::ValueGen gen(GetParam());
  std::vector<Value> vs;
  for (int i = 0; i < 24; ++i) vs.push_back(gen.Next());
  for (const Value& a : vs) {
    EXPECT_EQ(Value::Compare(a, a), 0);
    for (const Value& b : vs) {
      int ab = Value::Compare(a, b);
      int ba = Value::Compare(b, a);
      EXPECT_EQ(ab == 0, ba == 0);
      EXPECT_EQ(ab < 0, ba > 0);
      for (const Value& c : vs) {
        if (ab <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderProperty,
                         ::testing::Values(1, 7, 42, 1996, 20260706));

// NaN sorts above every other real and equals every NaN, whatever its
// sign; -0.0 equals 0.0. Before, NaN compared equal to every real, so the
// order was not transitive and std::sort's comparator was not a strict
// weak order.
TEST(ValueOrder, NaNIsAboveEveryRealAndEqualToEveryNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> reals = {-std::numeric_limits<double>::infinity(), -1.0, -0.0,
                                     0.0, 0.5, std::numeric_limits<double>::infinity()};
  for (double r : reals) {
    EXPECT_LT(Value::Compare(Value::Real(r), Value::Real(nan)), 0) << r;
    EXPECT_GT(Value::Compare(Value::Real(-nan), Value::Real(r)), 0) << r;
  }
  EXPECT_EQ(Value::Compare(Value::Real(nan), Value::Real(-nan)), 0);
  EXPECT_EQ(Value::Compare(Value::Real(-0.0), Value::Real(0.0)), 0);
  EXPECT_EQ(CompareReals(nan, 1.0), 1);
  EXPECT_EQ(CompareReals(1.0, -nan), -1);
  // Real arrays order by the same rule, element by element.
  Value with_nan = *Value::MakeRealArray({2}, {nan, 1.0});
  Value with_one = *Value::MakeRealArray({2}, {1.0, 1.0});
  EXPECT_GT(Value::Compare(with_nan, with_one), 0);
  EXPECT_EQ(Value::Compare(with_nan, *Value::MakeRealArray({2}, {-nan, 1.0})), 0);
}

TEST(ValueSets, NaNSetIsTheSameForEveryInputOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> in = {1.0, nan, 2.0, 0.5};
  std::sort(in.begin(), in.end(), [](double a, double b) { return CompareReals(a, b) < 0; });
  const Value want = Value::MakeSet({Value::Real(0.5), Value::Real(1.0), Value::Real(2.0),
                                     Value::Real(nan)});
  ASSERT_EQ(want.set().elems.size(), 4u);
  do {
    std::vector<Value> elems;
    for (double d : in) elems.push_back(Value::Real(d));
    Value got = Value::MakeSet(std::move(elems));
    EXPECT_TRUE(testing::SameBits(got, want)) << got.ToString();
  } while (std::next_permutation(
      in.begin(), in.end(), [](double a, double b) { return CompareReals(a, b) < 0; }));
}

TEST(ValueSets, EqualElementsKeepTheLeastBitsWhateverTheOrder) {
  // 0.0 and -0.0 (and +NaN and -NaN) are one element; the set keeps the
  // member with the least bits, from MakeSet and SetUnion alike, and
  // inside tuples too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [a, b] : std::vector<std::pair<double, double>>{{-0.0, 0.0}, {-nan, nan}}) {
    const Value want = Value::MakeSet({Value::Real(b)});
    EXPECT_TRUE(testing::SameBits(Value::MakeSet({Value::Real(a), Value::Real(b)}), want));
    EXPECT_TRUE(testing::SameBits(Value::MakeSet({Value::Real(b), Value::Real(a)}), want));
    EXPECT_TRUE(testing::SameBits(
        Value::SetUnion(Value::MakeSet({Value::Real(a)}), Value::MakeSet({Value::Real(b)})),
        want));
    EXPECT_TRUE(testing::SameBits(
        Value::SetUnion(Value::MakeSet({Value::Real(b)}), Value::MakeSet({Value::Real(a)})),
        want));
    const Value pair_a = Value::MakeTuple({Value::Nat(1), Value::Real(a)});
    const Value pair_b = Value::MakeTuple({Value::Nat(1), Value::Real(b)});
    EXPECT_TRUE(testing::SameBits(Value::MakeSet({pair_a, Value::Nat(0), pair_b}),
                                  Value::MakeSet({Value::Nat(0), pair_b})));
  }
}

TEST(ValueHash, EveryNaNHashesAlike) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t payload;
  std::memcpy(&payload, &nan, sizeof payload);
  payload |= 1;  // another quiet NaN, same sign
  double other;
  std::memcpy(&other, &payload, sizeof other);
  ASSERT_TRUE(std::isnan(other));
  EXPECT_EQ(HashValue(Value::Real(nan)), HashValue(Value::Real(-nan)));
  EXPECT_EQ(HashValue(Value::Real(nan)), HashValue(Value::Real(other)));
  EXPECT_EQ(HashValue(*Value::MakeRealArray({2}, {nan, 0.0})),
            HashValue(*Value::MakeRealArray({2}, {-nan, -0.0})));
}

TEST(ValuePrint, ExchangeFormat) {
  EXPECT_EQ(Value::Nat(5).ToString(), "5");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Str("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Bottom().ToString(), "bottom");
  EXPECT_EQ(Value::MakeTuple({Value::Nat(1), Value::Nat(2)}).ToString(), "(1, 2)");
  EXPECT_EQ(Value::MakeSet({Value::Nat(2), Value::Nat(1)}).ToString(), "{1, 2}");
  EXPECT_EQ(Value::MakeVector({Value::Nat(1), Value::Nat(2)}).ToString(), "[[2; 1, 2]]");
}

TEST(ValuePrint, RealAlwaysReparsesAsReal) {
  EXPECT_EQ(Value::Real(85).ToString(), "85.0");
  EXPECT_NE(Value::Real(0.1).ToString().find('.'), std::string::npos);
}

TEST(ValuePrint, DisplayFormMatchesPaperSession) {
  // Section 4.2 shows arrays printed as [[(0):0, (1):31, ...]].
  Value months = Value::MakeVector({Value::Nat(0), Value::Nat(31), Value::Nat(28)});
  EXPECT_EQ(months.ToDisplayString(), "[[(0):0, (1):31, (2):28]]");
  Value m2 = *Value::MakeArray({2, 2}, {Value::Nat(1), Value::Nat(2), Value::Nat(3),
                                        Value::Nat(4)});
  EXPECT_EQ(m2.ToDisplayString(), "[[(0,0):1, (0,1):2, (1,0):3, (1,1):4]]");
}

TEST(ValuePrint, DisplayElision) {
  std::vector<Value> elems;
  for (uint64_t i = 0; i < 10; ++i) elems.push_back(Value::Nat(i));
  Value v = Value::MakeVector(std::move(elems));
  EXPECT_EQ(v.ToDisplayString(2), "[[(0):0, (1):1, ...]]");
}

}  // namespace
}  // namespace aql
