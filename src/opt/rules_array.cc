// Array normalization rules (paper §5): partial-function beta, eta, and
// domain extraction for tabulations, plus folding over dense literals and
// materialized array values.

#include "core/expr_ops.h"
#include "opt/analysis.h"
#include "opt/rules.h"

namespace aql {

namespace {

// beta^p:  [[e1 | i1<b1,...,ik<bk]][e3]
//   ~> if e3.1 < b1 then ... if e3.k < bk then e1{i := e3} else bottom ...
// Exactly the paper's rule: the index expression is substituted into both
// the bound check and the body (the language is pure, so the duplicate
// evaluation can only cost time, and the constraint-elimination phase
// usually deletes the check anyway).
//
// "Only cost time" is exactly what the cost gate arbitrates: a
// loop-carrying index (itself a tabulation, sum, or comprehension) is
// re-evaluated once per bound check and once per body occurrence, which
// can dwarf the materialize-then-subscript plan the rule deletes. When a
// gate is installed and the index is not loop-free, the rule fires only
// if the estimate says the duplicated plan is cheaper. A loop-free index
// keeps the paper's unconditional behavior — the §5 derivations (where
// the index is a binder variable) never consult the gate.
ExprPtr RuleBetaP(const ExprPtr& e, const CostGate& gate) {
  if (!e->is(ExprKind::kSubscript)) return nullptr;
  const ExprPtr& tab = e->child(0);
  if (!tab->is(ExprKind::kTab)) return nullptr;
  const ExprPtr& idx = e->child(1);
  size_t k = tab->tab_rank();

  // Per-dimension index expressions: the tuple components when the index
  // is a syntactic tuple, projections of the index otherwise.
  std::vector<ExprPtr> parts = IndexParts(idx, k, /*project=*/true);

  std::unordered_map<std::string, ExprPtr> subst;
  for (size_t j = 0; j < k; ++j) subst[tab->binders()[j]] = parts[j];
  ExprPtr out = SubstituteAll(tab->tab_body(), subst);
  for (size_t j = k; j-- > 0;) {
    out = Expr::If(Expr::Cmp(CmpOp::kLt, parts[j], tab->tab_bound(j)), std::move(out),
                   Expr::Bottom());
  }
  if (gate && !LoopFree(idx) && !gate("beta_p", e, out)) return nullptr;
  return out;
}

// eta^p:  [[ e[i1,...,ik] | i1 < dim_1(e), ..., ik < dim_k(e) ]]  ~>  e
// (e alpha-equal everywhere, no ij free in e).
ExprPtr RuleEtaP(const ExprPtr& e) {
  if (!e->is(ExprKind::kTab)) return nullptr;
  size_t k = e->tab_rank();
  const ExprPtr& body = e->tab_body();
  if (!body->is(ExprKind::kSubscript)) return nullptr;
  const ExprPtr& arr = body->child(0);
  const ExprPtr& idx = body->child(1);

  // Body index must be exactly (i1,...,ik).
  if (k == 1) {
    if (!idx->is(ExprKind::kVar) || idx->var_name() != e->binders()[0]) return nullptr;
  } else {
    if (!idx->is(ExprKind::kTuple) || idx->children().size() != k) return nullptr;
    for (size_t j = 0; j < k; ++j) {
      const ExprPtr& c = idx->child(j);
      if (!c->is(ExprKind::kVar) || c->var_name() != e->binders()[j]) return nullptr;
    }
  }
  // No binder may occur free in the array expression.
  for (const std::string& b : e->binders()) {
    if (OccursFree(arr, b)) return nullptr;
  }
  // Bound j must be dim_j,k of (an alpha-equal copy of) the array — or,
  // when the array is a materialized literal whose dims have already been
  // constant-folded, the matching constant.
  for (size_t j = 0; j < k; ++j) {
    const ExprPtr& bound = e->tab_bound(j);
    if (bound->is(ExprKind::kNatConst) && arr->is(ExprKind::kLiteral) &&
        arr->literal().kind() == ValueKind::kArray) {
      const ArrayRep& rep = arr->literal().array();
      if (rep.dims.size() == k && rep.dims[j] == bound->nat_const()) continue;
      return nullptr;
    }
    ExprPtr dim_expr;
    if (k == 1) {
      if (!bound->is(ExprKind::kDim) || bound->rank() != 1) return nullptr;
      dim_expr = bound->child(0);
    } else {
      if (!bound->is(ExprKind::kProj) || bound->proj_index() != j + 1 ||
          bound->proj_arity() != k) {
        return nullptr;
      }
      const ExprPtr& inner = bound->child(0);
      if (!inner->is(ExprKind::kDim) || inner->rank() != k) return nullptr;
      dim_expr = inner->child(0);
    }
    if (!AlphaEqual(dim_expr, arr)) return nullptr;
  }
  return arr;
}

// delta^p:  dim_k([[e | i1<b1,...,ik<bk]])  ~>  (b1,...,bk)
// Unconditional under partial-function array semantics; gated on the
// error-freedom of the body when strict arrays are configured (the
// paper's soundness caveat).
ExprPtr RuleDeltaP(const ExprPtr& e, bool strict_arrays) {
  if (!e->is(ExprKind::kDim)) return nullptr;
  const ExprPtr& tab = e->child(0);
  if (!tab->is(ExprKind::kTab) || tab->tab_rank() != e->rank()) return nullptr;
  if (strict_arrays && !ErrorFree(tab->tab_body())) return nullptr;
  if (e->rank() == 1) return tab->tab_bound(0);
  std::vector<ExprPtr> bounds;
  bounds.reserve(e->rank());
  for (size_t j = 0; j < e->rank(); ++j) bounds.push_back(tab->tab_bound(j));
  return Expr::Tuple(std::move(bounds));
}

// A fully constant dense literal folds to a materialized array value, so
// downstream uses are O(1) lookups instead of per-use re-construction
// (and beta treats the array as an atomic argument).
ExprPtr RuleDenseFold(const ExprPtr& e) {
  if (!e->is(ExprKind::kDense)) return nullptr;
  uint64_t product = 1;
  std::vector<uint64_t> dims;
  dims.reserve(e->dense_rank());
  for (size_t j = 0; j < e->dense_rank(); ++j) {
    if (!e->dense_dim(j)->is(ExprKind::kNatConst)) return nullptr;
    dims.push_back(e->dense_dim(j)->nat_const());
    product *= dims.back();
  }
  if (product != e->dense_value_count()) return Expr::Bottom();
  std::vector<Value> elems;
  elems.reserve(e->dense_value_count());
  for (size_t j = 0; j < e->dense_value_count(); ++j) {
    const ExprPtr& v = e->dense_value(j);
    switch (v->kind()) {
      case ExprKind::kBoolConst: elems.push_back(Value::Bool(v->bool_const())); break;
      case ExprKind::kNatConst: elems.push_back(Value::Nat(v->nat_const())); break;
      case ExprKind::kRealConst: elems.push_back(Value::Real(v->real_const())); break;
      case ExprKind::kStrConst: elems.push_back(Value::Str(v->str_const())); break;
      case ExprKind::kLiteral: elems.push_back(v->literal()); break;
      case ExprKind::kBottom: elems.push_back(Value::Bottom()); break;
      default: return nullptr;  // non-constant element
    }
  }
  auto arr = Value::MakeArray(std::move(dims), std::move(elems));
  if (!arr.ok()) return nullptr;
  return Expr::Literal(std::move(arr).value());
}

// dim over a dense literal with constant dimensions that match the value
// count (otherwise the dense literal denotes bottom and must be kept).
ExprPtr RuleDimDense(const ExprPtr& e) {
  if (!e->is(ExprKind::kDim)) return nullptr;
  const ExprPtr& d = e->child(0);
  if (!d->is(ExprKind::kDense) || d->dense_rank() != e->rank()) return nullptr;
  uint64_t product = 1;
  std::vector<ExprPtr> dims;
  for (size_t j = 0; j < d->dense_rank(); ++j) {
    if (!d->dense_dim(j)->is(ExprKind::kNatConst)) return nullptr;
    product *= d->dense_dim(j)->nat_const();
    dims.push_back(d->dense_dim(j));
  }
  if (product != d->dense_value_count()) return nullptr;
  if (e->rank() == 1) return dims[0];
  return Expr::Tuple(std::move(dims));
}

// Subscripting and dim distribute over conditionals, exposing beta^p /
// delta^p redexes hidden behind an if (e.g. the guarded tabulations the
// ODMG update/insert macros produce):
//   (if c then a else b)[i] ~> if c then a[i] else b[i]
ExprPtr RuleSubscriptOverIf(const ExprPtr& e) {
  if (!e->is(ExprKind::kSubscript) || !e->child(0)->is(ExprKind::kIf)) return nullptr;
  const ExprPtr& cond = e->child(0);
  return Expr::If(cond->child(0), Expr::Subscript(cond->child(1), e->child(1)),
                  Expr::Subscript(cond->child(2), e->child(1)));
}

ExprPtr RuleDimOverIf(const ExprPtr& e) {
  if (!e->is(ExprKind::kDim) || !e->child(0)->is(ExprKind::kIf)) return nullptr;
  const ExprPtr& cond = e->child(0);
  return Expr::If(cond->child(0), Expr::Dim(e->rank(), cond->child(1)),
                  Expr::Dim(e->rank(), cond->child(2)));
}

// Strict constructs applied to the bottom constant are bottom.
ExprPtr RuleBottomStrict(const ExprPtr& e) {
  // A conditional is strict in its test only (eval/evaluator.cc): the
  // branches are not evaluated when the test is bottom.
  if (e->is(ExprKind::kIf)) {
    return e->child(0)->is(ExprKind::kBottom) ? Expr::Bottom() : nullptr;
  }
  switch (e->kind()) {
    case ExprKind::kSubscript:
    case ExprKind::kDim:
    case ExprKind::kProj:
    case ExprKind::kGet:
    case ExprKind::kArith:
    case ExprKind::kCmp:
    case ExprKind::kGen:
    case ExprKind::kSingleton:
    case ExprKind::kUnion:
    case ExprKind::kIndex:
      break;
    default:
      return nullptr;
  }
  for (const ExprPtr& c : e->children()) {
    if (c->is(ExprKind::kBottom)) return Expr::Bottom();
  }
  return nullptr;
}

// dim over a materialized array value.
ExprPtr RuleDimLiteral(const ExprPtr& e) {
  if (!e->is(ExprKind::kDim)) return nullptr;
  const ExprPtr& l = e->child(0);
  if (!l->is(ExprKind::kLiteral) || l->literal().kind() != ValueKind::kArray) {
    return nullptr;
  }
  const ArrayRep& a = l->literal().array();
  if (a.dims.size() != e->rank()) return nullptr;
  if (e->rank() == 1) return Expr::NatConst(a.dims[0]);
  std::vector<ExprPtr> dims;
  for (uint64_t d : a.dims) dims.push_back(Expr::NatConst(d));
  return Expr::Tuple(std::move(dims));
}

// Constant subscript of a dense literal or a materialized array.
ExprPtr RuleSubscriptConst(const ExprPtr& e) {
  if (!e->is(ExprKind::kSubscript)) return nullptr;
  const ExprPtr& arr = e->child(0);
  const ExprPtr& idx = e->child(1);

  std::vector<uint64_t> index;
  if (idx->is(ExprKind::kNatConst)) {
    index.push_back(idx->nat_const());
  } else if (idx->is(ExprKind::kTuple)) {
    for (const ExprPtr& c : idx->children()) {
      if (!c->is(ExprKind::kNatConst)) return nullptr;
      index.push_back(c->nat_const());
    }
  } else {
    return nullptr;
  }

  if (arr->is(ExprKind::kLiteral) && arr->literal().kind() == ValueKind::kArray) {
    const ArrayRep& a = arr->literal().array();
    if (a.dims.size() != index.size()) return nullptr;
    if (!a.InBounds(index)) return Expr::Bottom();
    return Expr::Literal(a.At(a.Flatten(index)));
  }
  if (arr->is(ExprKind::kDense) && arr->dense_rank() == index.size()) {
    uint64_t product = 1;
    std::vector<uint64_t> dims;
    for (size_t j = 0; j < arr->dense_rank(); ++j) {
      if (!arr->dense_dim(j)->is(ExprKind::kNatConst)) return nullptr;
      dims.push_back(arr->dense_dim(j)->nat_const());
      product *= dims.back();
    }
    if (product != arr->dense_value_count()) return nullptr;  // denotes bottom
    ArrayRep shape;
    shape.dims = std::move(dims);
    if (!shape.InBounds(index)) return Expr::Bottom();
    // The selected element replaces the subscript only if the dropped
    // elements cannot carry host-level effects — always true here.
    return arr->dense_value(shape.Flatten(index));
  }
  return nullptr;
}

}  // namespace

std::vector<Rule> ArrayRules(bool strict_arrays, const CostGate& gate) {
  return {
      {"dense_fold", RuleDenseFold},
      {"beta_p", [gate](const ExprPtr& e) { return RuleBetaP(e, gate); }},
      {"eta_p", RuleEtaP},
      {"delta_p",
       [strict_arrays](const ExprPtr& e) { return RuleDeltaP(e, strict_arrays); }},
      {"dim_dense", RuleDimDense},
      {"dim_literal", RuleDimLiteral},
      {"subscript_const", RuleSubscriptConst},
      {"subscript_over_if", RuleSubscriptOverIf},
      {"dim_over_if", RuleDimOverIf},
      {"bottom_strict", RuleBottomStrict},
  };
}

}  // namespace aql
