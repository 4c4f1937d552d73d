// Core calculus AST: every construct of NRCA (paper Fig. 1).
//
// The surface language (src/surface) desugars comprehensions, patterns, and
// blocks into this calculus; the type checker, optimizer, and evaluator all
// operate on it. Expressions are immutable trees behind shared_ptr, so the
// rewriting optimizer shares unchanged subtrees freely.
//
// Construct inventory and child/binder layout:
//
//   kVar        x                      name
//   kLambda     \x. e                  binders=[x]        children=[e]
//   kApply      e1(e2)                                    children=[e1, e2]
//   kTuple      (e1, ..., ek)  k>=2                       children=[e1..ek]
//   kProj       pi_{i,k}(e)            index_i, arity_k   children=[e]
//   kEmptySet   {}
//   kSingleton  {e}                                       children=[e]
//   kUnion      e1 U e2                                   children=[e1, e2]
//   kBigUnion   U{ e1 | x in e2 }      binders=[x]        children=[e1, e2]
//   kGet        get(e)                                    children=[e]
//   kBoolConst  true / false           bool_const
//   kIf         if e1 then e2 else e3                     children=[e1,e2,e3]
//   kCmp        e1 op e2  (=,<,>,<=,>=,<>)  cmp_op        children=[e1, e2]
//   kNatConst   n                      nat_const
//   kRealConst  r                      real_const           (base-type literal)
//   kStrConst   "s"                    str_const            (base-type literal)
//   kArith      e1 op e2  (+,-.,*,/,%) arith_op           children=[e1, e2]
//   kGen        gen(e) = {0..e-1}                         children=[e]
//   kSum        Sum{ e1 | x in e2 }    binders=[x]        children=[e1, e2]
//   kTab        [[ e | i1<e1,..,ik<ek ]] binders=[i1..ik] children=[e,e1..ek]
//   kSubscript  e1[e2]                                    children=[e1, e2]
//   kDim        dim_k(e)               arity_k            children=[e]
//   kIndex      index_k(e)             arity_k            children=[e]
//   kDense      [[n1..nk; v0..vm]]     arity_k            children=[n1..nk,
//                                                          v0..vm]
//   kBottom     error value of any type
//   kLiteral    an already-evaluated complex object       literal
//   kExternal   registered external primitive             name
//
// Arithmetic on naturals follows the paper: '-' is monus (truncated), '/'
// is integer division. The same operators are overloaded at type real with
// ordinary semantics (the paper folds real arithmetic into external
// primitives; we promote it to the calculus since every example needs it).

#ifndef AQL_CORE_EXPR_H_
#define AQL_CORE_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "object/value.h"

namespace aql {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kVar,
  kLambda,
  kApply,
  kTuple,
  kProj,
  kEmptySet,
  kSingleton,
  kUnion,
  kBigUnion,
  kGet,
  kBoolConst,
  kIf,
  kCmp,
  kNatConst,
  kRealConst,
  kStrConst,
  kArith,
  kGen,
  kSum,
  kTab,
  kSubscript,
  kDim,
  kIndex,
  kDense,
  kBottom,
  kLiteral,
  kExternal,
};

const char* ExprKindName(ExprKind kind);

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kMonus, kMul, kDiv, kMod };

const char* CmpOpName(CmpOp op);      // "=", "<>", "<", "<=", ">", ">="
const char* ArithOpName(ArithOp op);  // "+", "-", "*", "/", "%"

class Expr : public std::enable_shared_from_this<Expr> {
 public:
  // ---- Factories ----
  static ExprPtr Var(std::string name);
  static ExprPtr Lambda(std::string param, ExprPtr body);
  static ExprPtr Apply(ExprPtr fn, ExprPtr arg);
  static ExprPtr Tuple(std::vector<ExprPtr> fields);
  static ExprPtr Proj(size_t i, size_t k, ExprPtr e);  // 1-based i, 1<=i<=k
  static ExprPtr EmptySet();
  static ExprPtr Singleton(ExprPtr e);
  static ExprPtr Union(ExprPtr a, ExprPtr b);
  static ExprPtr BigUnion(std::string var, ExprPtr body, ExprPtr source);
  static ExprPtr Get(ExprPtr e);
  static ExprPtr BoolConst(bool b);
  static ExprPtr If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr Cmp(CmpOp op, ExprPtr a, ExprPtr b);
  static ExprPtr NatConst(uint64_t n);
  static ExprPtr RealConst(double d);
  static ExprPtr StrConst(std::string s);
  static ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b);
  static ExprPtr Gen(ExprPtr e);
  static ExprPtr Sum(std::string var, ExprPtr body, ExprPtr source);
  static ExprPtr Tab(std::vector<std::string> index_vars, ExprPtr body,
                     std::vector<ExprPtr> bounds);
  static ExprPtr Subscript(ExprPtr array, ExprPtr index);
  static ExprPtr Dim(size_t rank, ExprPtr array);
  static ExprPtr Index(size_t rank, ExprPtr set);
  static ExprPtr Dense(size_t rank, std::vector<ExprPtr> dims, std::vector<ExprPtr> elems);
  static ExprPtr Bottom();
  static ExprPtr Literal(Value v);
  static ExprPtr External(std::string name);

  // `let x = bound in body` encoded as (\x. body)(bound).
  static ExprPtr Let(std::string var, ExprPtr bound, ExprPtr body) {
    return Apply(Lambda(std::move(var), std::move(body)), std::move(bound));
  }

  // ---- Accessors ----
  ExprKind kind() const { return kind_; }
  bool is(ExprKind k) const { return kind_ == k; }

  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  const std::vector<std::string>& binders() const { return binders_; }
  const std::string& binder() const { return binders_[0]; }

  const std::string& var_name() const { return name_; }       // kVar, kExternal
  const std::string& str_const() const { return name_; }      // kStrConst
  bool bool_const() const { return nat_const_ != 0; }         // kBoolConst
  uint64_t nat_const() const { return nat_const_; }           // kNatConst
  double real_const() const { return real_const_; }           // kRealConst
  CmpOp cmp_op() const { return cmp_op_; }
  ArithOp arith_op() const { return arith_op_; }
  size_t proj_index() const { return index_i_; }              // kProj (1-based)
  size_t proj_arity() const { return arity_k_; }              // kProj
  size_t rank() const { return arity_k_; }                    // kDim/kIndex/kDense/kTab
  const Value& literal() const { return literal_; }           // kLiteral

  // Tab helpers: children_[0] is the body; children_[1..k] are bounds.
  const ExprPtr& tab_body() const { return children_[0]; }
  size_t tab_rank() const { return binders_.size(); }
  const ExprPtr& tab_bound(size_t j) const { return children_[1 + j]; }  // 0-based j

  // Dense helpers.
  size_t dense_rank() const { return arity_k_; }
  const ExprPtr& dense_dim(size_t j) const { return children_[j]; }
  size_t dense_value_count() const { return children_.size() - arity_k_; }
  const ExprPtr& dense_value(size_t j) const { return children_[arity_k_ + j]; }

  // Number of AST nodes; used by the optimizer's size budget and benches.
  size_t TreeSize() const;

  // Calculus-style rendering, e.g. "U{ {x} | x in gen(5) }",
  // "[[ A[i] | i < len(A) ]]".
  std::string ToString() const;
  // The same, with every array literal rendered by shape as
  // `<array d1 ... dk>`: O(term) text that reads no element, so a plan
  // over an inlined val or a tiled readval prints without touching data.
  std::string ToPlanString() const;

  // Rebuilds this node with new children (same kind/binders/payload).
  // Used by generic bottom-up rewriting.
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;

  // Rebuilds this node with new binder names AND children.
  ExprPtr WithBindersAndChildren(std::vector<std::string> binders,
                                 std::vector<ExprPtr> children) const;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:

  ExprKind kind_;
  std::vector<ExprPtr> children_;
  std::vector<std::string> binders_;
  std::string name_;
  uint64_t nat_const_ = 0;
  double real_const_ = 0;
  CmpOp cmp_op_ = CmpOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  size_t index_i_ = 0;
  size_t arity_k_ = 0;
  Value literal_;
};

// For each child position of `e`, the binder names in scope for that child
// introduced by `e` itself. Drives capture-avoiding traversals generically.
std::vector<std::vector<std::string>> ChildBinders(const Expr& e);

}  // namespace aql

#endif  // AQL_CORE_EXPR_H_
