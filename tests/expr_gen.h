// Grammar-directed generator for closed, well-typed core expressions,
// shared by the property tests (optimizer soundness, expression hashing).
// Shapes: nat expressions, bool expressions, {nat} sets, and [[nat]]_1
// arrays, with nat variables bound by Sum / BigUnion / Tab binders;
// fold-bodied rank-1/rank-2 tabulations over inlined nat or real literal
// arrays (FoldTab), the shape of matmul, conv1 and window_sum; and set
// comprehensions of the group-by and join shapes (Comprehension): nest,
// equi-joins, tabulated filters and index_k over (key, value) pair sets.

#ifndef AQL_TESTS_EXPR_GEN_H_
#define AQL_TESTS_EXPR_GEN_H_

#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "core/expr.h"
#include "object/value.h"

namespace aql {
namespace testing {

class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  ExprPtr Nat(int depth) {
    if (depth <= 0) return Leaf();
    switch (rng_() % 10) {
      case 0:
      case 1:
        return Leaf();
      case 2:
        return Expr::Arith(RandArith(), Nat(depth - 1), Nat(depth - 1));
      case 3:
        return Expr::If(Bool(depth - 1), Nat(depth - 1), Nat(depth - 1));
      case 4: {
        ExprPtr src = Set(depth - 1);  // source sees the OUTER scope
        std::string v = Push();
        ExprPtr body = Nat(depth - 1);
        Pop();
        return Expr::Sum(v, std::move(body), std::move(src));
      }
      case 5:
        return Expr::Subscript(Arr(depth - 1), Nat(depth - 1));
      case 6:
        return Expr::Dim(1, Arr(depth - 1));
      case 7:
        return Expr::Get(Set(depth - 1));
      case 8: {
        // let v = nat in nat (exercises beta).
        std::string v = Push();
        ExprPtr body = Nat(depth - 1);
        Pop();
        return Expr::Let(v, Nat(depth - 1), body);
      }
      default:
        return Expr::Proj(1 + rng_() % 2, 2,
                          Expr::Tuple({Nat(depth - 1), Nat(depth - 1)}));
    }
  }

  ExprPtr Bool(int depth) {
    if (depth <= 0 || rng_() % 4 == 0) return Expr::BoolConst(rng_() % 2 == 0);
    return Expr::Cmp(RandCmp(), Nat(depth - 1), Nat(depth - 1));
  }

  ExprPtr Set(int depth) {
    if (depth <= 0) return Expr::Gen(Expr::NatConst(rng_() % 4));
    switch (rng_() % 6) {
      case 0:
        return Expr::EmptySet();
      case 1:
        return Expr::Singleton(Nat(depth - 1));
      case 2:
        return Expr::Union(Set(depth - 1), Set(depth - 1));
      case 3: {
        ExprPtr src = Set(depth - 1);  // source sees the OUTER scope
        std::string v = Push();
        ExprPtr body = Set(depth - 1);
        Pop();
        return Expr::BigUnion(v, std::move(body), std::move(src));
      }
      case 4:
        return Expr::Gen(Nat(depth - 1));
      default:
        return Expr::If(Bool(depth - 1), Set(depth - 1), Set(depth - 1));
    }
  }

  ExprPtr Arr(int depth) {
    if (depth <= 0 || rng_() % 3 == 0) {
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

  // [[ Sum{ body | k in gen(n) } | i < d1 (, j < d2) ]]: n is a constant,
  // 0 or a tab binder; the body multiplies, adds or nests sums over reads
  // of inlined literal arrays at binder sums, which leave the array's
  // range at some cells (⊥). Real folds read arrays seeded with NaN, -0.0,
  // 1e16 and 1.0, so any change of summation order shows in the bits.
  ExprPtr FoldTab(bool real) {
    const size_t rank = 1 + rng_() % 2;
    std::vector<std::string> binders;
    std::vector<ExprPtr> bounds;
    for (size_t j = 0; j < rank; ++j) {
      binders.push_back(Push());
      bounds.push_back(Expr::NatConst(1 + rng_() % 5));
    }
    ExprPtr body = FoldSum(real, 1);
    for (size_t j = 0; j < rank; ++j) Pop();
    return Expr::Tab(std::move(binders), std::move(body), std::move(bounds));
  }

  // A closed set comprehension over sets of (key, value) pairs, as the
  // unoptimized core the surface forms desugar to: nest (group-by, then
  // optionally a per-group Sum), an equi-join of two sets (sometimes with
  // a second filter nested in its then-branch), a tabulation of a filter
  // over one let-bound set (Cells), or index_1/index_2 over a
  // comprehension. Keys are nats, reals (NaN, -0.0 and 0.0 among them) or
  // (nat, real) tuples; values nats or reals. Sources are literal sets
  // (possibly empty), comprehensions over gen, or unions of the two (so
  // equal pairs are emitted twice). Some keys or probes are ⊥ (nat
  // division by zero, an out-of-range subscript) or errors (a zero-trip
  // real Sum plus a real) at some elements, and some then-branches are ⊥.
  ExprPtr Comprehension() {
    switch (rng_() % 4) {
      case 0:
        return Nest();
      case 1:
        return Join();
      case 2:
        return Cells();
      default:
        return IndexOver(1 + rng_() % 2);
    }
  }

 private:
  enum class KeyKind { kNat, kReal, kTuple };

  KeyKind RandKey() {
    switch (rng_() % 3) {
      case 0: return KeyKind::kNat;
      case 1: return KeyKind::kReal;
      default: return KeyKind::kTuple;
    }
  }

  // Reals whose order and equality are easy to get wrong: NaN (twice,
  // with different signs), -0.0 next to 0.0. The first four are the
  // pairs that compare equal with different bits; with `mixed_signs` off
  // only one of each pair is drawn. A pair may hold such mixed reals in
  // one component only: a set keeps the least-bits member of each class
  // of equal pairs, and once the optimizer fuses the set away a
  // projection of the other component would see the bits of the member
  // the set dropped.
  double KeyRealOf(bool mixed_signs) {
    static constexpr double kReals[] = {-std::numeric_limits<double>::quiet_NaN(),
                                        -0.0,
                                        std::numeric_limits<double>::quiet_NaN(),
                                        0.0,
                                        1.0,
                                        2.5};
    constexpr size_t kN = sizeof(kReals) / sizeof(kReals[0]);
    return mixed_signs ? kReals[rng_() % kN] : kReals[2 + rng_() % (kN - 2)];
  }
  double KeyReal() { return KeyRealOf(true); }

  Value KeyValue(KeyKind kind) {
    switch (kind) {
      case KeyKind::kNat: return Value::Nat(rng_() % 4);
      case KeyKind::kReal: return Value::Real(KeyReal());
      default: return Value::MakeTuple({Value::Nat(rng_() % 3), Value::Real(KeyReal())});
    }
  }
  // Values hold mixed-sign reals only beside nat keys.
  Value ValValue(KeyKind kind, bool real) {
    return real ? Value::Real(KeyRealOf(kind == KeyKind::kNat)) : Value::Nat(rng_() % 5);
  }

  ExprPtr RealVector(uint64_t n, bool mixed_signs) {
    std::vector<double> data;
    for (uint64_t i = 0; i < n; ++i) data.push_back(KeyRealOf(mixed_signs));
    return Expr::Literal(*Value::MakeRealArray({n}, std::move(data)));
  }

  // K(v) / W(v) of a pair comprehension over v in gen(n).
  ExprPtr KeyOf(KeyKind kind, const std::string& v) {
    ExprPtr mod3 = Expr::Arith(ArithOp::kMod, Expr::Var(v), Expr::NatConst(3));
    switch (kind) {
      case KeyKind::kNat: return mod3;
      case KeyKind::kReal:
        return Expr::Subscript(RealVector(5, true),
                               Expr::Arith(ArithOp::kMod, Expr::Var(v), Expr::NatConst(5)));
      default:
        return Expr::Tuple({mod3, Expr::Subscript(RealVector(5, true),
                                                  Expr::Arith(ArithOp::kMod, Expr::Var(v),
                                                              Expr::NatConst(5)))});
    }
  }
  ExprPtr ValOf(KeyKind kind, bool real, const std::string& v) {
    if (real) {
      return Expr::Subscript(RealVector(5, kind == KeyKind::kNat),
                             Expr::Arith(ArithOp::kMod, Expr::Var(v), Expr::NatConst(5)));
    }
    return Expr::Arith(ArithOp::kMod, Expr::Arith(ArithOp::kMul, Expr::Var(v), Expr::Var(v)),
                       Expr::NatConst(5));
  }

  // A set of (key, value) pairs, never ⊥: the optimizer may drop a let
  // whose body does not need its value, which is a legal refinement of a
  // ⊥ argument but would not be the tree walker's answer.
  ExprPtr PairSource(KeyKind kind, bool real) {
    switch (rng_() % 5) {
      case 0:
        return Expr::EmptySet();
      case 1:
      case 2: {
        std::vector<Value> pairs;
        const uint64_t n = rng_() % 9;
        for (uint64_t i = 0; i < n; ++i) {
          pairs.push_back(Value::MakeTuple({KeyValue(kind), ValValue(kind, real)}));
        }
        return Expr::Literal(Value::MakeSet(std::move(pairs)));
      }
      case 3: {
        // Sometimes long enough that a 4-thread run's chunks of the outer
        // loop see the inner source twice.
        const uint64_t n = rng_() % 3 == 0 ? 24 + rng_() % 24 : rng_() % 9;
        std::string v = Push();
        ExprPtr pair = Expr::Singleton(Expr::Tuple({KeyOf(kind, v), ValOf(kind, real, v)}));
        // Half the time the body is itself a filter with a constant probe.
        ExprPtr body = rng_() % 2 == 0
                           ? pair
                           : Expr::If(Expr::Cmp(CmpOp::kEq,
                                                Expr::Arith(ArithOp::kMod, Expr::Var(v),
                                                            Expr::NatConst(2)),
                                                Expr::NatConst(rng_() % 2)),
                                      pair, Expr::EmptySet());
        Pop();
        return Expr::BigUnion(v, std::move(body), Expr::Gen(Expr::NatConst(n)));
      }
      default: {
        ExprPtr a = PairSource(kind, real);
        return Expr::Union(std::move(a), PairSource(kind, real));
      }
    }
  }

  // The key and probe of a filter `K(b) = P(a)` over pairs b (inner) and
  // a (outer): the plain projections, or variants that are ⊥ or errors at
  // some elements, or compare a part of the key. An erring probe only
  // where the inner source is never empty while the outer loop runs:
  // the optimizer takes the zero-trip real Sum for total and hoists the
  // probe out of the inner loop, which is only the same answer when that
  // loop runs.
  std::pair<ExprPtr, ExprPtr> KeyAndProbe(KeyKind kind, const std::string& b,
                                          const std::string& a, bool erring_probe) {
    auto key = [](const std::string& x) { return Expr::Proj(1, 2, Expr::Var(x)); };
    if (kind == KeyKind::kTuple && rng_() % 2 == 0) {
      return {Expr::Proj(1, 2, key(b)), Expr::Proj(1, 2, key(a))};
    }
    if (kind != KeyKind::kNat) return {key(b), key(a)};
    // 1.5 * (key + extra) + 0.5 as a real Sum: with extra 0 an EvalError
    // when the key is 0 (the zero-trip Sum is the nat 0), with extra 1
    // always defined.
    auto real_key = [this, &key](const std::string& x, uint64_t extra) {
      std::string k = Push();
      ExprPtr trips = extra == 0 ? key(x)
                                 : Expr::Arith(ArithOp::kAdd, key(x), Expr::NatConst(extra));
      ExprPtr sum = Expr::Sum(k, Expr::RealConst(1.5), Expr::Gen(std::move(trips)));
      Pop();
      return Expr::Arith(ArithOp::kAdd, std::move(sum), Expr::RealConst(0.5));
    };
    auto div = [&key](const std::string& x) {  // ⊥ when the key is 0
      return Expr::Arith(ArithOp::kDiv, Expr::NatConst(4), key(x));
    };
    switch (rng_() % 6) {
      case 0: return {div(b), div(a)};  // ⊥ keys: the index is unusable
      case 1: return {key(b), div(a)};  // ⊥ probes
      case 2:                           // erring keys (and probes)
        return {real_key(b, 0), real_key(a, erring_probe ? 0 : 1)};
      case 3:  // erring probes over defined keys
        return erring_probe ? std::pair{real_key(b, 1), real_key(a, 0)}
                            : std::pair{real_key(b, 0), real_key(a, 1)};
      case 4:
        return {Expr::Arith(ArithOp::kMod, key(b), Expr::NatConst(2)), key(a)};
      default:
        return {key(b), key(a)};
    }
  }

  ExprPtr Filter(ExprPtr k, ExprPtr p, ExprPtr then_branch) {
    ExprPtr cond = rng_() % 2 == 0 ? Expr::Cmp(CmpOp::kEq, std::move(k), std::move(p))
                                   : Expr::Cmp(CmpOp::kEq, std::move(p), std::move(k));
    return Expr::If(std::move(cond), std::move(then_branch), Expr::EmptySet());
  }

  // {pi2 b}, or {pi2 b / pi2 a} (⊥ when a's nat value is 0).
  ExprPtr GroupMember(bool real, const std::string& b, const std::string& a) {
    ExprPtr vb = Expr::Proj(2, 2, Expr::Var(b));
    if (real || rng_() % 3 != 0) return Expr::Singleton(std::move(vb));
    return Expr::Singleton(
        Expr::Arith(ArithOp::kDiv, std::move(vb), Expr::Proj(2, 2, Expr::Var(a))));
  }

  // nest!S = { (pi1 a, { pi2 b | b <- S, K(b) = P(a) }) | a <- S }, as a
  // let of S; then, half the time, { (pi1 g, Sum{ s | s in pi2 g }) | g }.
  ExprPtr Nest() {
    const KeyKind kind = RandKey();
    const bool real = rng_() % 2 == 0;
    ExprPtr src = PairSource(kind, real);
    std::string x = Push();
    std::string a = Push();
    std::string b = Push();
    auto [k, p] = KeyAndProbe(kind, b, a, /*erring_probe=*/true);
    ExprPtr inner =
        Expr::BigUnion(b, Filter(std::move(k), std::move(p), GroupMember(real, b, a)),
                       Expr::Var(x));
    Pop();
    ExprPtr outer = Expr::BigUnion(
        a, Expr::Singleton(Expr::Tuple({Expr::Proj(1, 2, Expr::Var(a)), std::move(inner)})),
        Expr::Var(x));
    Pop();
    Pop();
    ExprPtr nest = Expr::Let(x, std::move(src), std::move(outer));
    if (rng_() % 2 == 0) return nest;
    std::string g = Push();
    std::string s = Push();
    ExprPtr sum = Expr::Sum(s, Expr::Var(s), Expr::Proj(2, 2, Expr::Var(g)));
    Pop();
    ExprPtr agg = Expr::Singleton(Expr::Tuple({Expr::Proj(1, 2, Expr::Var(g)), std::move(sum)}));
    Pop();
    return Expr::BigUnion(g, std::move(agg), std::move(nest));
  }

  // { (pi2 a, pi2 b) | a <- S1, b <- S2, K(b) = P(a) } with S2 let-bound or
  // inline; a third of the time the then-branch filters S2 once more
  // ({ (pi2 a, pi2 c) | c <- S2, pi1 c = pi1 b }).
  ExprPtr Join() {
    const KeyKind kind = RandKey();
    const bool real = rng_() % 2 == 0;
    ExprPtr left = PairSource(kind, real);
    ExprPtr right = PairSource(kind, real);
    const bool let = rng_() % 2 == 0;
    std::string y = Push();
    ExprPtr right_ref = let ? Expr::Var(y) : right;
    std::string a = Push();
    std::string b = Push();
    auto [k, p] = KeyAndProbe(kind, b, a, /*erring_probe=*/false);
    ExprPtr then_branch;
    if (rng_() % 3 == 0) {
      std::string c = Push();
      then_branch = Expr::BigUnion(
          c,
          Filter(Expr::Proj(1, 2, Expr::Var(c)), Expr::Proj(1, 2, Expr::Var(b)),
                 Expr::Singleton(Expr::Tuple({Expr::Proj(2, 2, Expr::Var(a)),
                                              Expr::Proj(2, 2, Expr::Var(c))}))),
          right_ref);
      Pop();
    } else {
      then_branch = Expr::Singleton(
          Expr::Tuple({Expr::Proj(2, 2, Expr::Var(a)), Expr::Proj(2, 2, Expr::Var(b))}));
    }
    ExprPtr inner =
        Expr::BigUnion(b, Filter(std::move(k), std::move(p), std::move(then_branch)), right_ref);
    Pop();
    ExprPtr outer = Expr::BigUnion(a, std::move(inner), std::move(left));
    Pop();
    Pop();
    return let ? Expr::Let(y, std::move(right), std::move(outer)) : outer;
  }

  // [[ { pi2 b | b <- S, K(b) = P(i) } | i < n ]] with S let-bound: a ⊥
  // key or probe makes one cell ⊥ and the next cell probes the same set
  // again (a tabulation is the one construct that keeps going past a ⊥),
  // so an index over ⊥ keys would answer where the scan gives ⊥.
  ExprPtr Cells() {
    const bool real = rng_() % 2 == 0;
    ExprPtr src = PairSource(KeyKind::kNat, real);
    std::string y = Push();
    std::string i = Push();
    std::string b = Push();
    ExprPtr kb = Expr::Proj(1, 2, Expr::Var(b));
    ExprPtr k, p;
    switch (rng_() % 4) {
      case 0:  // ⊥ keys at key 0
        k = Expr::Arith(ArithOp::kDiv, Expr::NatConst(4), kb);
        p = Expr::Var(i);
        break;
      case 1:  // ⊥ probe at i = 0
        k = kb;
        p = Expr::Arith(ArithOp::kDiv, Expr::NatConst(4), Expr::Var(i));
        break;
      case 2:
        k = Expr::Arith(ArithOp::kMod, kb, Expr::NatConst(2));
        p = Expr::Arith(ArithOp::kMod, Expr::Var(i), Expr::NatConst(2));
        break;
      default:
        k = kb;
        p = Expr::Var(i);
    }
    ExprPtr member = Expr::Proj(2, 2, Expr::Var(b));
    if (!real && rng_() % 3 == 0) {  // ⊥ at i = 0
      member = Expr::Arith(ArithOp::kDiv, std::move(member), Expr::Var(i));
    }
    ExprPtr body = Expr::BigUnion(
        b, Filter(std::move(k), std::move(p), Expr::Singleton(std::move(member))),
        Expr::Var(y));
    Pop();
    Pop();
    Pop();
    return Expr::Let(
        y, std::move(src),
        Expr::Tab({i}, std::move(body), {Expr::NatConst(1 + rng_() % 5)}));
  }

  // index_1 / index_2 over a comprehension of nat-keyed pairs:
  // { (key, pi2 v) | v <- S } with key pi1 v, pi1 v % 3, pi1 v / pi2 v
  // (⊥ at a zero nat value) or, for rank 2, (pi1 v % 2, pi1 v / 2).
  ExprPtr IndexOver(size_t rank) {
    const bool real = rng_() % 2 == 0;
    ExprPtr src = PairSource(KeyKind::kNat, real);
    std::string v = Push();
    ExprPtr kv = Expr::Proj(1, 2, Expr::Var(v));
    ExprPtr key;
    if (rank == 2) {
      key = Expr::Tuple({Expr::Arith(ArithOp::kMod, kv, Expr::NatConst(2)),
                         Expr::Arith(ArithOp::kDiv, kv, Expr::NatConst(2))});
    } else {
      switch (rng_() % 3) {
        case 0: key = kv; break;
        case 1: key = Expr::Arith(ArithOp::kMod, kv, Expr::NatConst(3)); break;
        default:
          key = real ? kv : Expr::Arith(ArithOp::kDiv, kv, Expr::Proj(2, 2, Expr::Var(v)));
      }
    }
    ExprPtr body = Expr::Singleton(Expr::Tuple({key, Expr::Proj(2, 2, Expr::Var(v))}));
    Pop();
    return Expr::Index(rank, Expr::BigUnion(v, std::move(body), std::move(src)));
  }

  ExprPtr FoldSum(bool real, int depth) {
    ExprPtr n;
    switch (rng_() % 3) {
      case 0: n = Expr::NatConst(1 + rng_() % 5); break;
      case 1: n = Expr::NatConst(0); break;
      default: n = Expr::Var(scope_[rng_() % scope_.size()]); break;
    }
    std::string k = Push();
    ExprPtr body = FoldBody(real, depth);
    Pop();
    return Expr::Sum(k, std::move(body), Expr::Gen(std::move(n)));
  }

  ExprPtr FoldBody(bool real, int depth) {
    switch (rng_() % 4) {
      case 0:
        if (depth > 0) return FoldSum(real, depth - 1);
        return ArrayRead(real);
      case 1:
        return Expr::Arith(ArithOp::kMul, ArrayRead(real), ArrayRead(real));
      case 2:
        return Expr::Arith(ArithOp::kAdd, ArrayRead(real),
                           real ? Expr::RealConst(RealElem()) : Leaf());
      default:
        return ArrayRead(real);
    }
  }

  // A[p] or A[(p, q)] over an inlined literal array with extents 1..5,
  // each index part a binder, a binder sum or a constant.
  ExprPtr ArrayRead(bool real) {
    const size_t rank = 1 + rng_() % 2;
    std::vector<uint64_t> dims;
    uint64_t total = 1;
    for (size_t j = 0; j < rank; ++j) {
      dims.push_back(1 + rng_() % 5);
      total *= dims.back();
    }
    Value arr;
    if (real) {
      std::vector<double> data;
      for (uint64_t i = 0; i < total; ++i) data.push_back(RealElem());
      arr = *Value::MakeRealArray(dims, std::move(data));
    } else {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < total; ++i) data.push_back(rng_() % 10);
      arr = *Value::MakeNatArray(dims, std::move(data));
    }
    std::vector<ExprPtr> parts;
    for (size_t j = 0; j < rank; ++j) {
      switch (rng_() % 3) {
        case 0: parts.push_back(Expr::Var(scope_[rng_() % scope_.size()])); break;
        case 1:
          parts.push_back(Expr::Arith(ArithOp::kAdd,
                                      Expr::Var(scope_[rng_() % scope_.size()]),
                                      Expr::Var(scope_[rng_() % scope_.size()])));
          break;
        default: parts.push_back(Expr::NatConst(rng_() % 3)); break;
      }
    }
    ExprPtr idx = rank == 1 ? parts[0] : Expr::Tuple(std::move(parts));
    return Expr::Subscript(Expr::Literal(std::move(arr)), std::move(idx));
  }

  double RealElem() {
    static constexpr double kElems[] = {
        std::numeric_limits<double>::quiet_NaN(), -0.0, 1e16, 1.0, -1e16, 0.5, -3.0};
    return kElems[rng_() % (sizeof(kElems) / sizeof(kElems[0]))];
  }

  ExprPtr Leaf() {
    if (!scope_.empty() && rng_() % 2 == 0) {
      return Expr::Var(scope_[rng_() % scope_.size()]);
    }
    return Expr::NatConst(rng_() % 10);
  }

  std::string Push() {
    std::string v = StrCat("v", next_var_++);
    scope_.push_back(v);
    return v;
  }
  void Pop() { scope_.pop_back(); }

  ArithOp RandArith() {
    switch (rng_() % 5) {
      case 0: return ArithOp::kAdd;
      case 1: return ArithOp::kMonus;
      case 2: return ArithOp::kMul;
      case 3: return ArithOp::kDiv;
      default: return ArithOp::kMod;
    }
  }
  CmpOp RandCmp() {
    switch (rng_() % 6) {
      case 0: return CmpOp::kEq;
      case 1: return CmpOp::kNe;
      case 2: return CmpOp::kLt;
      case 3: return CmpOp::kLe;
      case 4: return CmpOp::kGt;
      default: return CmpOp::kGe;
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::string> scope_;
  int next_var_ = 0;
};

}  // namespace testing
}  // namespace aql

#endif  // AQL_TESTS_EXPR_GEN_H_
