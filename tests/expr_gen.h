// Grammar-directed generator for closed, well-typed core expressions,
// shared by the property tests (optimizer soundness, expression hashing).
// Shapes: nat expressions, bool expressions, {nat} sets, and [[nat]]_1
// arrays, with nat variables bound by Sum / BigUnion / Tab binders; and
// fold-bodied rank-1/rank-2 tabulations over inlined nat or real literal
// arrays (FoldTab), the shape of matmul, conv1 and window_sum.

#ifndef AQL_TESTS_EXPR_GEN_H_
#define AQL_TESTS_EXPR_GEN_H_

#include <limits>
#include <random>
#include <string>
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

 private:
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
