// Grammar-directed generator for closed, well-typed core expressions,
// shared by the property tests (optimizer soundness, expression hashing).
// Shapes: nat expressions, bool expressions, {nat} sets, and [[nat]]_1
// arrays, with nat variables bound by Sum / BigUnion / Tab binders.

#ifndef AQL_TESTS_EXPR_GEN_H_
#define AQL_TESTS_EXPR_GEN_H_

#include <random>
#include <string>
#include <vector>

#include "base/strings.h"
#include "core/expr.h"

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

 private:
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
