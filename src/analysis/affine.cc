#include "analysis/affine.h"

#include <algorithm>
#include <numeric>

#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {
namespace analysis {
namespace {

// Overflow-checked uint64 helpers. Nat arithmetic in the evaluator wraps
// (uint64), so every numeric claim below is guarded: an interval is only
// asserted when the operands' intervals prove no wrap can occur, and the
// monus/div/mod form rules additionally require bounded operands (a
// wrapped operand value breaks the pointwise-dominance argument).
bool CheckedAdd(uint64_t a, uint64_t b, uint64_t* out) {
  if (a > UINT64_MAX - b) return false;
  *out = a + b;
  return true;
}

bool CheckedMul(uint64_t a, uint64_t b, uint64_t* out) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *out = a * b;
  return true;
}

uint64_t Monus(uint64_t a, uint64_t b) { return a >= b ? a - b : 0; }

// Canonicalizes a term list: sorted by var, merged, zero coefficients
// dropped. Returns false on coefficient overflow.
bool NormalizeTerms(std::vector<AffineCoeff>* terms) {
  std::sort(terms->begin(), terms->end(),
            [](const AffineCoeff& a, const AffineCoeff& b) { return a.var < b.var; });
  std::vector<AffineCoeff> out;
  for (const AffineCoeff& t : *terms) {
    if (t.coeff == 0) continue;
    if (!out.empty() && out.back().var == t.var) {
      if (!CheckedAdd(out.back().coeff, t.coeff, &out.back().coeff)) return false;
    } else {
      out.push_back(t);
    }
  }
  *terms = std::move(out);
  return true;
}

// Interval hull / combination rules on the (bounded, lo, hi) component.
// Each rule is wrap-safe: it claims nothing unless the operand intervals
// prove the runtime operation cannot overflow.
void IntervalAdd(const AffineVal& a, const AffineVal& b, AffineVal* out) {
  uint64_t lo, hi;
  if (a.bounded && b.bounded && CheckedAdd(a.hi, b.hi, &hi) &&
      CheckedAdd(a.lo, b.lo, &lo)) {
    out->bounded = true;
    out->lo = lo;
    out->hi = hi;
  }
}

void IntervalMul(const AffineVal& a, const AffineVal& b, AffineVal* out) {
  uint64_t lo, hi;
  if (a.bounded && b.bounded && CheckedMul(a.hi, b.hi, &hi) &&
      CheckedMul(a.lo, b.lo, &lo)) {
    out->bounded = true;
    out->lo = lo;
    out->hi = hi;
  }
}

void IntervalMonus(const AffineVal& a, const AffineVal& b, AffineVal* out) {
  // x ∸ y never wraps; a bound on x bounds the result outright.
  if (!a.bounded) return;
  out->bounded = true;
  out->lo = b.bounded ? Monus(a.lo, b.hi) : 0;
  out->hi = b.bounded ? Monus(a.hi, b.lo) : a.hi;
}

void IntervalDiv(const AffineVal& a, const AffineVal& b, AffineVal* out) {
  // y = 0 is ⊥ (claim vacuous), so the runtime divisor is >= max(1, lo_b).
  if (!a.bounded) return;
  out->bounded = true;
  out->lo = b.bounded && b.hi >= 1 ? a.lo / b.hi : 0;
  out->hi = a.hi / std::max<uint64_t>(1, b.bounded ? b.lo : 1);
}

void IntervalMod(const AffineVal& a, const AffineVal& b, AffineVal* out) {
  // x % y < y when defined; and x % y <= x. The y-side bound is wrap-safe
  // even when x is unbounded (the runtime result is < the runtime y).
  if (b.bounded && b.hi >= 1) {
    out->bounded = true;
    out->lo = 0;
    out->hi = b.hi - 1;
    if (a.bounded) out->hi = std::min(out->hi, a.hi);
  } else if (a.bounded) {
    out->bounded = true;
    out->lo = 0;
    out->hi = a.hi;
  }
}

// Recomputes the interval of an affine FORM from the binder facts: value
// in [c0, c0 + Σ ci·(ub_i − 1)] when every variable carries a constant
// `var < ub` fact. Tighter than operand-interval combination exactly on
// the relational wins (cancellation, exact division), so the result is
// intersected with whatever interval the caller already has.
void TightenFromForm(AffineVal* v, const SymEnv& env) {
  if (!v->affine) return;
  uint64_t lo = v->c0;
  uint64_t hi = v->c0;
  for (const AffineCoeff& t : v->terms) {
    const ExprPtr* ub = env.Lookup(t.var);
    if (ub == nullptr || !(*ub)->is(ExprKind::kNatConst)) return;
    uint64_t n = (*ub)->nat_const();
    // An empty binder range (ub = 0) means the loop body never runs;
    // keep [c0, c0] — every claim is vacuous at that program point.
    uint64_t span;
    if (!CheckedMul(t.coeff, Monus(n, 1), &span)) return;
    if (!CheckedAdd(hi, span, &hi)) return;
  }
  if (!v->bounded) {
    v->bounded = true;
    v->lo = lo;
    v->hi = hi;
  } else {
    v->lo = std::max(v->lo, lo);
    v->hi = std::min(v->hi, hi);
  }
}

// Join at conditionals: identical forms survive, intervals take the hull.
AffineVal AffineJoin(const AffineVal& a, const AffineVal& b) {
  AffineVal out;
  if (a.affine && b.affine && a.c0 == b.c0 && a.terms.size() == b.terms.size()) {
    bool same = true;
    for (size_t i = 0; i < a.terms.size(); ++i) {
      if (a.terms[i].var != b.terms[i].var || a.terms[i].coeff != b.terms[i].coeff) {
        same = false;
      }
    }
    if (same) {
      out.affine = true;
      out.c0 = a.c0;
      out.terms = a.terms;
    }
  }
  if (a.bounded && b.bounded) {
    out.bounded = true;
    out.lo = std::min(a.lo, b.lo);
    out.hi = std::max(a.hi, b.hi);
  }
  return out;
}

AffineVal VarForm(const std::string& name) {
  AffineVal v;
  v.affine = true;
  v.terms.push_back({name, 1});
  return v;
}

AffineVal BinderForm(const std::string& name, const SymEnv& env) {
  AffineVal v = VarForm(name);
  const ExprPtr* ub = env.Lookup(name);
  if (ub != nullptr && (*ub)->is(ExprKind::kNatConst)) {
    uint64_t n = (*ub)->nat_const();
    v.bounded = true;
    v.lo = 0;
    v.hi = Monus(n, 1);  // n = 0: empty range, claims vacuous
  }
  return v;
}

// The shared arithmetic transfer: form rules first, interval rules for
// whatever the forms cannot carry, then the form-derived interval
// tightening. `env` supplies binder bounds for the tightening step.
AffineVal ArithTransfer(ArithOp op, const AffineVal& a, const AffineVal& b,
                        const SymEnv& env) {
  AffineVal out;
  switch (op) {
    case ArithOp::kAdd: {
      if (auto f = AffineAdd(a, b)) out = *f;
      IntervalAdd(a, b, &out);
      break;
    }
    case ArithOp::kMul: {
      if (a.IsConst()) {
        if (auto f = AffineMulConst(b, a.c0)) out = *f;
      } else if (b.IsConst()) {
        if (auto f = AffineMulConst(a, b.c0)) out = *f;
      }
      IntervalMul(a, b, &out);
      break;
    }
    case ArithOp::kMonus: {
      // Form exactness needs both operands wrap-free (bounded): then the
      // coefficient dominance in AffineMonus proves x >= y pointwise and
      // monus coincides with subtraction.
      if (a.bounded && b.bounded) {
        if (auto f = AffineMonus(a, b)) out = *f;
      }
      IntervalMonus(a, b, &out);
      break;
    }
    case ArithOp::kDiv: {
      // Exact division: a constant divisor d >= 1 dividing c0 and every
      // coefficient divides the VALUE, so x / d = (c0/d) + Σ (ci/d)·bi.
      // Needs a bounded (wrap-free) numerator.
      if (b.IsConst() && b.c0 >= 1 && a.affine && a.bounded) {
        uint64_t d = b.c0;
        bool divisible = a.c0 % d == 0;
        for (const AffineCoeff& t : a.terms) divisible = divisible && t.coeff % d == 0;
        if (divisible) {
          out.affine = true;
          out.c0 = a.c0 / d;
          for (const AffineCoeff& t : a.terms) out.terms.push_back({t.var, t.coeff / d});
          NormalizeTerms(&out.terms);  // cannot fail: coefficients shrank
        }
      }
      IntervalDiv(a, b, &out);
      break;
    }
    case ArithOp::kMod: {
      if (b.IsConst() && b.c0 >= 1 && a.affine && a.bounded) {
        uint64_t d = b.c0;
        if (a.hi < d) {
          // The value never reaches the divisor: x % d = x, form and all.
          out = a;
        } else {
          // Alignment collapse: d | ci for every i makes the value
          // ≡ c0 (mod d), i.e. a compile-time constant.
          bool aligned = true;
          for (const AffineCoeff& t : a.terms) aligned = aligned && t.coeff % d == 0;
          if (aligned) out = AffineVal::Const(a.c0 % d);
        }
      }
      if (!out.bounded) IntervalMod(a, b, &out);
      break;
    }
  }
  TightenFromForm(&out, env);
  return out;
}

// Fallback interval for constructs the affine transfer does not model:
// inherit the non-relational prover's bound so the domain is never weaker
// than ConstUpperBound.
AffineVal TopWithCub(const ExprPtr& e, const SymEnv& env) {
  AffineVal v;
  if (std::optional<uint64_t> ub = ConstUpperBound(e, env)) {
    v.bounded = true;
    v.lo = 0;
    v.hi = Monus(*ub, 1);
  }
  return v;
}

}  // namespace

std::string RenderArrayExpr(const ExprPtr& arr) {
  if (arr->is(ExprKind::kLiteral) && arr->literal().kind() != ValueKind::kArray) {
    return "<literal>";
  }
  std::string s = arr->ToPlanString();
  if (s.size() > 40) s = s.substr(0, 37) + "...";
  return s;
}

// ---------- AffineVal ----------

AffineVal AffineVal::Const(uint64_t c) {
  AffineVal v;
  v.affine = true;
  v.c0 = c;
  v.bounded = true;
  v.lo = c;
  v.hi = c;
  return v;
}

uint64_t AffineVal::Modulus() const {
  if (!affine) return 1;
  uint64_t g = 0;
  for (const AffineCoeff& t : terms) g = std::gcd(g, t.coeff);
  return g;  // 0 for a constant form: exact
}

std::string AffineVal::ToString() const {
  std::string s;
  if (affine) {
    for (const AffineCoeff& t : terms) {
      if (!s.empty()) s += " + ";
      if (t.coeff != 1) s += std::to_string(t.coeff) + "*";
      s += t.var;
    }
    if (c0 != 0 || terms.empty()) {
      if (!s.empty()) s += " + ";
      s += std::to_string(c0);
    }
  } else {
    s = "top";
  }
  if (bounded && !(IsConst() && lo == hi)) {
    s += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  return s;
}

bool operator==(const AffineVal& a, const AffineVal& b) {
  if (a.affine != b.affine || a.bounded != b.bounded) return false;
  if (a.affine) {
    if (a.c0 != b.c0 || a.terms.size() != b.terms.size()) return false;
    for (size_t i = 0; i < a.terms.size(); ++i) {
      if (a.terms[i].var != b.terms[i].var || a.terms[i].coeff != b.terms[i].coeff) {
        return false;
      }
    }
  }
  if (a.bounded && (a.lo != b.lo || a.hi != b.hi)) return false;
  return true;
}

std::optional<AffineVal> AffineAdd(const AffineVal& a, const AffineVal& b) {
  if (!a.affine || !b.affine) return std::nullopt;
  AffineVal out;
  out.affine = true;
  if (!CheckedAdd(a.c0, b.c0, &out.c0)) return std::nullopt;
  out.terms = a.terms;
  out.terms.insert(out.terms.end(), b.terms.begin(), b.terms.end());
  if (!NormalizeTerms(&out.terms)) return std::nullopt;
  return out;
}

std::optional<AffineVal> AffineMulConst(const AffineVal& a, uint64_t k) {
  if (!a.affine) return std::nullopt;
  if (k == 0) return AffineVal::Const(0);
  AffineVal out;
  out.affine = true;
  if (!CheckedMul(a.c0, k, &out.c0)) return std::nullopt;
  for (const AffineCoeff& t : a.terms) {
    uint64_t c;
    if (!CheckedMul(t.coeff, k, &c)) return std::nullopt;
    out.terms.push_back({t.var, c});
  }
  return out;
}

std::optional<AffineVal> AffineMonus(const AffineVal& a, const AffineVal& b) {
  if (!a.affine || !b.affine) return std::nullopt;
  if (a.c0 < b.c0) return std::nullopt;
  AffineVal out;
  out.affine = true;
  out.c0 = a.c0 - b.c0;
  // Every b-term must be dominated by a matching a-term; then a >= b
  // pointwise (over true nat values) and the difference is affine.
  std::vector<AffineCoeff> remaining = b.terms;
  for (const AffineCoeff& t : a.terms) {
    uint64_t sub = 0;
    for (AffineCoeff& r : remaining) {
      if (r.var == t.var) {
        sub = r.coeff;
        r.coeff = 0;
      }
    }
    if (t.coeff < sub) return std::nullopt;
    if (t.coeff > sub) out.terms.push_back({t.var, t.coeff - sub});
  }
  for (const AffineCoeff& r : remaining) {
    if (r.coeff != 0) return std::nullopt;  // b mentions a var a lacks
  }
  NormalizeTerms(&out.terms);  // cannot fail: coefficients shrank
  return out;
}

AffineVal AffineOf(const ExprPtr& e, const SymEnv& env, int depth) {
  if (depth > 16) return AffineVal::Top();
  if (std::optional<uint64_t> n = NatConstOf(e)) return AffineVal::Const(*n);
  switch (e->kind()) {
    case ExprKind::kVar:
      return BinderForm(e->var_name(), env);
    case ExprKind::kArith: {
      AffineVal a = AffineOf(e->child(0), env, depth + 1);
      AffineVal b = AffineOf(e->child(1), env, depth + 1);
      return ArithTransfer(e->arith_op(), a, b, env);
    }
    case ExprKind::kIf: {
      AffineVal t = AffineOf(e->child(1), env, depth + 1);
      AffineVal f = AffineOf(e->child(2), env, depth + 1);
      AffineVal out = AffineJoin(t, f);
      if (!out.bounded) {
        AffineVal cub = TopWithCub(e, env);
        out.bounded = cub.bounded;
        out.lo = cub.lo;
        out.hi = cub.hi;
      }
      TightenFromForm(&out, env);
      return out;
    }
    default:
      return TopWithCub(e, env);
  }
}

std::optional<uint64_t> AffineUpperBound(const ExprPtr& e, const SymEnv& env) {
  AffineVal v = AffineOf(e, env);
  if (!v.bounded || v.hi == UINT64_MAX) return std::nullopt;
  return v.hi + 1;
}

// ---------- the AbsInterp domain ----------

AffineVal AffineDomain::FreeVar(const ExprPtr& var) {
  return VarForm(var->var_name());
}

AffineVal AffineDomain::BinderVal(const ExprPtr& parent, size_t child_index,
                                  size_t binder_index, const SymEnv& env) {
  (void)child_index;
  return BinderForm(parent->binders()[binder_index], env);
}

AffineVal AffineDomain::Transfer(const ExprPtr& e, const std::vector<Val>& kids,
                                 const SymEnv& env) {
  if (std::optional<uint64_t> n = NatConstOf(e)) return AffineVal::Const(*n);
  switch (e->kind()) {
    case ExprKind::kArith:
      return ArithTransfer(e->arith_op(), kids[0], kids[1], env);
    case ExprKind::kIf: {
      AffineVal out = AffineJoin(kids[1], kids[2]);
      if (!out.bounded) {
        AffineVal cub = TopWithCub(e, env);
        out.bounded = cub.bounded;
        out.lo = cub.lo;
        out.hi = cub.hi;
      }
      TightenFromForm(&out, env);
      return out;
    }
    default:
      return TopWithCub(e, env);
  }
}

// ---------- the reduced product ----------

std::string AffineAbsVal::ToString() const {
  return core.ToString() + " aff=" + aff.ToString();
}

AffineAbsVal AffineCoreDomains::FreeVar(const ExprPtr& var) {
  return {core_.FreeVar(var), aff_.FreeVar(var)};
}

AffineAbsVal AffineCoreDomains::BinderVal(const ExprPtr& parent, size_t child_index,
                                          size_t binder_index, const SymEnv& env) {
  return {core_.BinderVal(parent, child_index, binder_index, env),
          aff_.BinderVal(parent, child_index, binder_index, env)};
}

AffineAbsVal AffineCoreDomains::LetTransfer(const ExprPtr& apply, const Val& bound,
                                            const Val& body) {
  return {core_.LetTransfer(apply, bound.core, body.core), body.aff};
}

AffineAbsVal AffineCoreDomains::Transfer(const ExprPtr& e,
                                         const std::vector<Val>& kids,
                                         const SymEnv& env) {
  std::vector<AbsVal> core_kids;
  std::vector<AffineVal> aff_kids;
  core_kids.reserve(kids.size());
  aff_kids.reserve(kids.size());
  for (const Val& k : kids) {
    core_kids.push_back(k.core);
    aff_kids.push_back(k.aff);
  }
  AffineAbsVal out{core_.Transfer(e, core_kids, env),
                   aff_.Transfer(e, aff_kids, env)};

  // Reduction, core → affine: a rank-1 dim over a const-extent array is
  // that constant.
  if (e->is(ExprKind::kDim) && e->rank() == 1 && !kids.empty() &&
      kids[0].core.shape.kind == ShapeVal::Kind::kArray &&
      kids[0].core.shape.extents.size() == 1 &&
      kids[0].core.shape.extents[0].kind == Extent::Kind::kConst &&
      out.core.def.whole != Definedness::kBottom) {
    out.aff = AffineVal::Const(kids[0].core.shape.extents[0].value);
  }

  // Reduction, affine → core: a subscript whose every index part has an
  // affine range inside the array's constant extents is in bounds, even
  // where the syntactic ProveLt gives up (cancellation, strides through
  // division, commuted compositions).
  if (e->is(ExprKind::kSubscript) && kids.size() == 2 &&
      out.core.def.whole == Definedness::kUnknown &&
      kids[0].core.shape.kind == ShapeVal::Kind::kArray &&
      kids[0].core.def.whole == Definedness::kDefined &&
      kids[0].core.def.elems_defined &&
      kids[1].core.def.whole == Definedness::kDefined) {
    const std::vector<Extent>& extents = kids[0].core.shape.extents;
    size_t k = extents.size();
    std::vector<ExprPtr> parts = IndexParts(e->child(1), k, /*project=*/false);
    bool all_proven = !parts.empty();
    for (size_t j = 0; all_proven && j < k; ++j) {
      if (extents[j].kind != Extent::Kind::kConst) {
        all_proven = false;
        break;
      }
      AffineVal idx = AffineOf(parts[j], env);
      all_proven = idx.bounded && idx.hi < extents[j].value;
    }
    if (all_proven) out.core.def.whole = Definedness::kDefined;
  }
  return out;
}

AffineAbsVal AnalyzeAffineAbs(const ExprPtr& e) {
  AffineCoreDomains domains;
  AbsInterp<AffineCoreDomains> interp(&domains);
  return interp.Analyze(e);
}

bool AffineWidens(const AffineAbsVal& pre, const AffineAbsVal& post,
                  std::string* why) {
  // Always-⊥ on either side: affine claims are vacuous, and the
  // kDefined-vs-kBottom axis belongs to AbsContradicts.
  if (pre.core.def.whole == Definedness::kBottom ||
      post.core.def.whole == Definedness::kBottom) {
    return false;
  }
  const AffineVal& a = pre.aff;
  const AffineVal& b = post.aff;
  auto explain = [why](std::string text) {
    if (why != nullptr) *why = std::move(text);
  };
  if (a.IsConst() && b.IsConst() && a.c0 != b.c0) {
    explain("affine constants disagree: " + a.ToString() + " vs " + b.ToString());
    return true;
  }
  if (a.bounded) {
    if (!b.bounded) {
      explain("interval widened: " + a.ToString() + " vs unbounded " + b.ToString());
      return true;
    }
    if (b.lo < a.lo || b.hi > a.hi) {
      explain("interval widened: " + a.ToString() + " vs " + b.ToString());
      return true;
    }
  }
  return false;
}

// ---------- syntactic single-binder matcher ----------

std::optional<Affine1D> MatchAffine1D(const ExprPtr& part) {
  // var | s*var | var*s  (s >= 1)
  auto scaled_var = [](const ExprPtr& x, Affine1D* out) {
    if (x->is(ExprKind::kVar)) {
      out->binder = x->var_name();
      out->stride = 1;
      return true;
    }
    if (x->is(ExprKind::kArith) && x->arith_op() == ArithOp::kMul) {
      const ExprPtr& a = x->child(0);
      const ExprPtr& b = x->child(1);
      std::optional<uint64_t> s;
      const Expr* v = nullptr;
      if (a->is(ExprKind::kVar) && (s = NatConstOf(b))) v = a.get();
      if (b->is(ExprKind::kVar) && (s = NatConstOf(a))) v = b.get();
      if (v != nullptr && *s >= 1) {
        out->binder = v->var_name();
        out->stride = *s;
        return true;
      }
    }
    return false;
  };
  Affine1D out;
  if (scaled_var(part, &out)) return out;
  if (part->is(ExprKind::kArith) && part->arith_op() == ArithOp::kAdd) {
    const ExprPtr& a = part->child(0);
    const ExprPtr& b = part->child(1);
    std::optional<uint64_t> c;
    if ((c = NatConstOf(b)) && scaled_var(a, &out)) {
      out.offset = *c;
      return out;
    }
    if ((c = NatConstOf(a)) && scaled_var(b, &out)) {
      out.offset = *c;
      return out;
    }
  }
  return std::nullopt;
}

// ---------- the rectangular access matcher ----------

bool RectAccess::UnitStride() const {
  return std::all_of(stride.begin(), stride.end(), [](uint64_t s) { return s == 1; });
}

bool RectAccess::Fits(const std::vector<uint64_t>& extent,
                      const std::vector<uint64_t>& dims) const {
  if (extent.size() != lower.size() || dims.size() != lower.size()) return false;
  for (size_t j = 0; j < lower.size(); ++j) {
    // One past the last touched coordinate, lower + stride·(extent − 1) + 1;
    // just the origin for a zero-trip dimension.
    uint64_t end = lower[j];
    if (extent[j] > 0) {
      uint64_t span;
      if (!CheckedMul(stride[j], extent[j] - 1, &span) ||
          !CheckedAdd(end, span, &end) || !CheckedAdd(end, 1, &end)) {
        return false;
      }
    }
    if (end > dims[j]) return false;
  }
  return true;
}

std::optional<RectAccess> MatchRectAccess(const ExprPtr& subscript,
                                          const std::vector<std::string>& binders) {
  if (!subscript->is(ExprKind::kSubscript)) return std::nullopt;
  const size_t k = binders.size();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (binders[i] == binders[j]) return std::nullopt;  // shadowing: ambiguous
    }
  }
  std::vector<ExprPtr> parts = IndexParts(subscript->child(1), k, /*project=*/false);
  if (parts.empty()) return std::nullopt;
  RectAccess out;
  out.base = subscript->child(0);
  for (size_t j = 0; j < k; ++j) {
    std::optional<Affine1D> m = MatchAffine1D(parts[j]);
    if (!m || m->binder != binders[j]) return std::nullopt;
    out.lower.push_back(m->offset);
    out.stride.push_back(m->stride);
  }
  return out;
}

// ---------- proof certificates ----------

void Proof::Add(std::string optimization, std::string site,
                std::vector<std::string> facts) {
  entries.push_back({std::move(optimization), std::move(site), std::move(facts)});
}

std::string Proof::ToString() const {
  std::string s;
  for (const ProofEntry& e : entries) {
    s += e.optimization + " @ " + e.site + "\n";
    for (const std::string& f : e.facts) s += "  - " + f + "\n";
  }
  return s;
}

}  // namespace analysis
}  // namespace aql
