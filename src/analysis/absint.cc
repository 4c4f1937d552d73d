#include "analysis/absint.h"

#include <algorithm>

#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {
namespace analysis {

// ---------- symbolic environment ----------

const ExprPtr* SymEnv::Lookup(const std::string& var) const {
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
    if (it->var == var) return &it->ub;
  }
  return nullptr;
}

SymEnv KillShadowed(const SymEnv& env, const std::vector<std::string>& binders) {
  SymEnv out;
  auto mentions_binder = [&](const ExprPtr& e) {
    for (const std::string& b : binders) {
      if (OccursFree(e, b)) return true;
    }
    return false;
  };
  for (const SymFact& f : env.facts) {
    if (std::find(binders.begin(), binders.end(), f.var) != binders.end()) continue;
    if (mentions_binder(f.ub)) continue;
    out.facts.push_back(f);
  }
  for (const ExprPtr& c : env.true_conds) {
    if (!mentions_binder(c)) out.true_conds.push_back(c);
  }
  return out;
}

void AddBinderFacts(const ExprPtr& e, size_t child_index, SymEnv* env) {
  switch (e->kind()) {
    case ExprKind::kTab:
      if (child_index == 0) {
        for (size_t j = 0; j < e->tab_rank(); ++j) {
          ExprPtr bound = e->tab_bound(j);
          // The bound is evaluated outside the binders; only keep it as
          // a fact if no sibling binder shadows a name inside it.
          bool shadowed = false;
          for (const std::string& b : e->binders()) {
            if (OccursFree(bound, b)) shadowed = true;
          }
          if (!shadowed) env->facts.push_back({e->binders()[j], bound});
        }
      }
      break;
    case ExprKind::kBigUnion:
    case ExprKind::kSum:
      if (child_index == 0 && e->child(1)->is(ExprKind::kGen)) {
        ExprPtr n = e->child(1)->child(0);
        if (!OccursFree(n, e->binder())) env->facts.push_back({e->binder(), n});
      }
      break;
    case ExprKind::kIf:
      if (child_index == 1) env->true_conds.push_back(e->child(0));
      break;
    default:
      break;
  }
}

std::optional<uint64_t> ConstUpperBound(const ExprPtr& e, const SymEnv& env,
                                        int depth) {
  if (depth > 16) return std::nullopt;
  switch (e->kind()) {
    case ExprKind::kNatConst: {
      uint64_t n = e->nat_const();
      if (n == UINT64_MAX) return std::nullopt;
      return n + 1;
    }
    case ExprKind::kVar: {
      const ExprPtr* ub = env.Lookup(e->var_name());
      if (ub && (*ub)->is(ExprKind::kNatConst)) return (*ub)->nat_const();
      return std::nullopt;
    }
    case ExprKind::kArith: {
      auto a = ConstUpperBound(e->child(0), env, depth + 1);
      auto b = ConstUpperBound(e->child(1), env, depth + 1);
      switch (e->arith_op()) {
        case ArithOp::kAdd:
          if (a && b && *a + *b > *a) return *a + *b - 1;  // (ua-1)+(ub-1)+1
          return std::nullopt;
        case ArithOp::kMul:
          if (!a || !b) return std::nullopt;
          if (*a <= 1 || *b <= 1) return 1;  // an operand < 1 is 0; product is 0
          if ((*a - 1) > UINT64_MAX / (*b - 1)) return std::nullopt;  // overflow
          return (*a - 1) * (*b - 1) + 1;
        case ArithOp::kMonus:
        case ArithOp::kDiv:
          return a;  // x - y <= x;  x / y <= x for y >= 1 (y = 0 is ⊥)
        case ArithOp::kMod:
          // When defined (y > 0): x % y < y <= ub(y)-1, and x % y <= x.
          if (b && *b >= 1) return a ? std::min(*a, *b - 1) : *b - 1;
          return a;
      }
      return std::nullopt;
    }
    case ExprKind::kIf: {
      auto t = ConstUpperBound(e->child(1), env, depth + 1);
      auto f = ConstUpperBound(e->child(2), env, depth + 1);
      if (t && f) return std::max(*t, *f);
      return std::nullopt;
    }
    case ExprKind::kProj:
      if (e->child(0)->is(ExprKind::kTuple) &&
          e->child(0)->children().size() == e->proj_arity()) {
        return ConstUpperBound(e->child(0)->child(e->proj_index() - 1), env,
                               depth + 1);
      }
      return std::nullopt;
    case ExprKind::kLiteral:
      if (e->literal().kind() == ValueKind::kNat &&
          e->literal().nat_value() < UINT64_MAX) {
        return e->literal().nat_value() + 1;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

bool ProveLt(const ExprPtr& a, const ExprPtr& b, const SymEnv& env, int depth) {
  if (depth > 16) return false;
  // A condition alpha-equal to `a < b` holds on this path.
  for (const ExprPtr& c : env.true_conds) {
    if (c->is(ExprKind::kCmp) && c->cmp_op() == CmpOp::kLt &&
        AlphaEqual(c->child(0), a) && AlphaEqual(c->child(1), b)) {
      return true;
    }
  }
  // Constant interval reasoning: a < ub(a) <= n = b.
  if (b->is(ExprKind::kNatConst)) {
    auto ub = ConstUpperBound(a, env);
    if (ub && *ub <= b->nat_const()) return true;
  }
  switch (a->kind()) {
    case ExprKind::kVar: {
      const ExprPtr* ub = env.Lookup(a->var_name());
      if (ub && AlphaEqual(*ub, b)) return true;  // a < ub = b, symbolically
      break;
    }
    case ExprKind::kArith:
      switch (a->arith_op()) {
        case ArithOp::kMod:
          // x % b < b whenever the mod is defined (b = 0 yields ⊥, so the
          // subscript never sees an index).
          if (AlphaEqual(a->child(1), b)) return true;
          return ProveLt(a->child(0), b, env, depth + 1);
        case ArithOp::kMonus:
        case ArithOp::kDiv:
          // x - y <= x and x / y <= x (y >= 1; y = 0 is ⊥).
          return ProveLt(a->child(0), b, env, depth + 1);
        default:
          break;
      }
      break;
    case ExprKind::kIf: {
      SymEnv then_env = env;
      then_env.true_conds.push_back(a->child(0));
      return ProveLt(a->child(1), b, then_env, depth + 1) &&
             ProveLt(a->child(2), b, env, depth + 1);
    }
    default:
      break;
  }
  return false;
}

ExprPtr DimExtentExpr(const ExprPtr& arr, size_t j, size_t k) {
  if (arr->is(ExprKind::kTab) && arr->tab_rank() == k) return arr->tab_bound(j);
  if (arr->is(ExprKind::kLiteral) && arr->literal().kind() == ValueKind::kArray) {
    const ArrayRep& rep = arr->literal().array();
    if (rep.dims.size() == k) return Expr::NatConst(rep.dims[j]);
  }
  if (arr->is(ExprKind::kDense) && arr->dense_rank() == k &&
      arr->dense_dim(j)->is(ExprKind::kNatConst)) {
    return arr->dense_dim(j);
  }
  if (k == 1) return Expr::Dim(1, arr);
  return Expr::Proj(j + 1, k, Expr::Dim(k, arr));
}

std::string AbsPathString(const std::vector<size_t>& path) {
  if (path.empty()) return "<root>";
  std::string out;
  for (size_t i : path) {
    if (!out.empty()) out += '.';
    out += std::to_string(i);
  }
  return out;
}

// ---------- lattice helpers ----------

namespace {

constexpr uint64_t kUnbounded = UINT64_MAX;

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnbounded || b == kUnbounded || a > kUnbounded / b) return kUnbounded;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  if (a == kUnbounded || b == kUnbounded || a + b < a) return kUnbounded;
  return a + b;
}

Extent JoinExtent(const Extent& a, const Extent& b) {
  if (a.kind == Extent::Kind::kConst && b.kind == Extent::Kind::kConst &&
      a.value == b.value) {
    return a;
  }
  if (a.kind == Extent::Kind::kSym && b.kind == Extent::Kind::kSym &&
      AlphaEqual(a.sym, b.sym)) {
    return a;
  }
  return Extent::Top();
}

ShapeVal JoinShape(const ShapeVal& a, const ShapeVal& b) {
  if (a.kind != b.kind) return ShapeVal::Top();
  if (a.kind != ShapeVal::Kind::kArray) return a;
  if (a.extents.size() != b.extents.size()) return ShapeVal::Top();
  std::vector<Extent> extents(a.extents.size());
  for (size_t j = 0; j < extents.size(); ++j) {
    extents[j] = JoinExtent(a.extents[j], b.extents[j]);
  }
  return ShapeVal::Array(std::move(extents));
}

Definedness JoinDef(Definedness a, Definedness b) {
  return a == b ? a : Definedness::kUnknown;
}

CardVal JoinCard(const CardVal& a, const CardVal& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// Strict meet of child definedness: any always-⊥ operand makes the whole
// always-⊥ (every construct below is strict in these operands), any
// unknown makes it unknown.
Definedness MeetStrict(std::initializer_list<Definedness> kids) {
  Definedness out = Definedness::kDefined;
  for (Definedness d : kids) {
    if (d == Definedness::kBottom) return Definedness::kBottom;
    if (d == Definedness::kUnknown) out = Definedness::kUnknown;
  }
  return out;
}

Definedness MeetStrictAll(const std::vector<AbsVal>& kids) {
  Definedness out = Definedness::kDefined;
  for (const AbsVal& k : kids) {
    out = MeetStrict({out, k.def.whole});
  }
  return out;
}

AbsVal Scalar(Definedness d) {
  AbsVal v;
  v.shape = ShapeVal::NotArray();
  v.def = {d, true};
  return v;
}

AbsVal TopVal() { return AbsVal{}; }

// An extent's value interval [lo, hi] for cardinality products.
void ExtentInterval(const Extent& x, const SymEnv& env, uint64_t* lo,
                    uint64_t* hi) {
  *lo = 0;
  *hi = kUnbounded;
  if (x.kind == Extent::Kind::kConst) {
    *lo = *hi = x.value;
  } else if (x.kind == Extent::Kind::kSym) {
    if (std::optional<uint64_t> ub = ConstUpperBound(x.sym, env)) *hi = *ub - 1;
  }
}

// True when the divisor of a nat div/mod can never be zero, judged
// syntactically on constants only (arithmetic like `1 + x` wraps, so it
// proves nothing). A real divisor is IEEE — never ⊥ — and mixed operands
// are a type error, not ⊥, so real constants count as safe too.
bool DivisorNonzero(const ExprPtr& e) {
  if (e->is(ExprKind::kNatConst)) return e->nat_const() != 0;
  if (e->is(ExprKind::kRealConst)) return true;
  if (e->is(ExprKind::kLiteral)) {
    const Value& v = e->literal();
    if (v.kind() == ValueKind::kNat) return v.nat_value() != 0;
    if (v.kind() == ValueKind::kReal) return true;
  }
  return false;
}

bool DivisorConstZero(const ExprPtr& e) { return NatConstOf(e) == uint64_t{0}; }

// Scans a literal array for per-point ⊥ holes (bounded; boxed payloads
// beyond the cap conservatively count as holed). Unboxed payloads —
// including kTiled slabs, whose elements are total by construction
// (storage zone maps track defined counts per tile) — never hold ⊥.
bool LiteralElemsDefined(const ArrayRep& rep) {
  if (rep.unboxed()) return true;
  constexpr size_t kScanCap = 4096;
  if (rep.elems.size() > kScanCap) return false;
  for (const Value& v : rep.elems) {
    if (v.is_bottom()) return false;
  }
  return true;
}

}  // namespace

// ---------- rendering ----------

Extent Extent::Sym(ExprPtr e) {
  if (e->is(ExprKind::kNatConst)) return Const(e->nat_const());
  Extent x;
  x.kind = Kind::kSym;
  x.sym = std::move(e);
  return x;
}

std::string Extent::ToString() const {
  switch (kind) {
    case Kind::kTop: return "?";
    case Kind::kConst: return std::to_string(value);
    case Kind::kSym: return sym->ToString();
  }
  return "?";
}

std::string ShapeVal::ToString() const {
  switch (kind) {
    case Kind::kTop: return "?";
    case Kind::kNotArray: return "scalar";
    case Kind::kArray: {
      std::string out = "[";
      for (size_t j = 0; j < extents.size(); ++j) {
        if (j > 0) out += " x ";
        out += extents[j].ToString();
      }
      return out + "]";
    }
  }
  return "?";
}

std::string CardVal::ToString() const {
  return StrCat("[", lo, ",", hi == kUnbounded ? std::string("inf") : std::to_string(hi),
                "]");
}

std::string AbsVal::ToString() const {
  const char* d = def.whole == Definedness::kDefined   ? "bottom-free"
                  : def.whole == Definedness::kBottom ? "always-bottom"
                                                      : "unknown";
  std::string out = StrCat("shape=", shape.ToString(), " def=", d);
  if (shape.kind == ShapeVal::Kind::kArray) {
    out += def.elems_defined ? " elems=hole-free" : " elems=unknown";
  }
  if (shape.kind != ShapeVal::Kind::kNotArray) out += StrCat(" card=", card.ToString());
  return out;
}

// ---------- the product domain ----------

AbsVal CoreDomains::FreeVar(const ExprPtr&) {
  // Per the ⊥-free-inputs premise, a free variable's value is never ⊥
  // itself — but it may be a partial array (holes) of unknown shape.
  AbsVal v;
  v.def = {Definedness::kDefined, false};
  return v;
}

AbsVal CoreDomains::BinderVal(const ExprPtr& parent, size_t child_index,
                              size_t binder_index, const SymEnv& env) {
  (void)env;
  // Tabulation binders are nats (loop indices); every other binder ranges
  // over elements of a set (Sum/BigUnion) or a lambda's argument — never
  // ⊥ (sets cannot contain ⊥; Apply is strict in its argument), but of
  // unknown shape and possibly a holed array.
  AbsVal v;
  if (parent->is(ExprKind::kTab) && child_index == 0) {
    (void)binder_index;
    return Scalar(Definedness::kDefined);
  }
  v.def = {Definedness::kDefined, false};
  return v;
}

AbsVal CoreDomains::LetTransfer(const ExprPtr& apply, const Val& bound,
                                const Val& body) {
  (void)apply;
  // Apply is strict in both operands: an always-⊥ binding forces ⊥; a
  // possibly-⊥ binding caps the body's claim at unknown.
  AbsVal out = body;
  if (bound.def.whole == Definedness::kBottom) {
    out.def.whole = Definedness::kBottom;
  } else if (bound.def.whole == Definedness::kUnknown &&
             out.def.whole == Definedness::kDefined) {
    out.def.whole = Definedness::kUnknown;
  }
  return out;
}

AbsVal CoreDomains::Transfer(const ExprPtr& e, const std::vector<Val>& kids,
                             const SymEnv& env) {
  switch (e->kind()) {
    case ExprKind::kNatConst:
    case ExprKind::kRealConst:
    case ExprKind::kBoolConst:
    case ExprKind::kStrConst:
      return Scalar(Definedness::kDefined);
    case ExprKind::kBottom: {
      AbsVal v;
      v.def.whole = Definedness::kBottom;
      return v;
    }
    case ExprKind::kVar:
      return FreeVar(e);  // bound occurrences are resolved by the interpreter
    case ExprKind::kLambda: {
      // The closure itself: a defined scalar value regardless of its body
      // (the body only runs at application sites).
      return Scalar(Definedness::kDefined);
    }
    case ExprKind::kExternal:
      return Scalar(Definedness::kDefined);
    case ExprKind::kApply: {
      // Strict in fn and arg; the result of an unknown function is ⊤.
      AbsVal v;
      Definedness d = MeetStrictAll(kids);
      if (d == Definedness::kBottom) v.def.whole = Definedness::kBottom;
      return v;
    }
    case ExprKind::kTuple: {
      AbsVal v = Scalar(MeetStrictAll(kids));
      return v;
    }
    case ExprKind::kProj: {
      // Strict; never ⊥ itself (arity mismatch is a Status error). The
      // projected field's shape is unknown (tuples are not tracked).
      AbsVal v;
      Definedness d = MeetStrictAll(kids);
      v.def.whole = d;
      return v;
    }
    case ExprKind::kEmptySet: {
      AbsVal v = Scalar(Definedness::kDefined);
      v.shape = ShapeVal::NotArray();
      v.card = {0, 0};
      return v;
    }
    case ExprKind::kSingleton: {
      AbsVal v;
      v.shape = ShapeVal::NotArray();
      v.def = {MeetStrictAll(kids), true};
      v.card = {1, 1};
      return v;
    }
    case ExprKind::kUnion: {
      AbsVal v;
      v.shape = ShapeVal::NotArray();
      v.def = {MeetStrictAll(kids), true};
      // |A ∪ B| ranges from max of the lower bounds (dedup can only
      // shrink toward the larger operand) to the sum of the uppers.
      v.card = {std::max(kids[0].card.lo, kids[1].card.lo),
                SatAdd(kids[0].card.hi, kids[1].card.hi)};
      return v;
    }
    case ExprKind::kGen: {
      AbsVal v;
      v.shape = ShapeVal::NotArray();
      v.def = {MeetStrictAll(kids), true};
      if (e->child(0)->is(ExprKind::kNatConst)) {
        uint64_t n = e->child(0)->nat_const();
        v.card = {n, n};
      } else if (std::optional<uint64_t> ub = ConstUpperBound(e->child(0), env)) {
        v.card = {0, *ub - 1};
      } else {
        v.card = {0, kUnbounded};
      }
      return v;
    }
    case ExprKind::kBigUnion:
    case ExprKind::kSum: {
      // kids[0] = body, kids[1] = source. Strict in the source and in
      // every body evaluation — but an always-⊥ body only forces ⊥ when
      // the source is provably non-empty (an empty loop never runs it).
      const AbsVal& body = kids[0];
      const AbsVal& src = kids[1];
      AbsVal v;
      v.shape = ShapeVal::NotArray();
      Definedness d;
      if (src.def.whole == Definedness::kBottom) {
        d = Definedness::kBottom;
      } else if (body.def.whole == Definedness::kBottom && src.card.lo >= 1 &&
                 src.def.whole == Definedness::kDefined) {
        d = Definedness::kBottom;
      } else {
        d = MeetStrict({src.def.whole, body.def.whole});
        if (body.def.whole == Definedness::kBottom) d = Definedness::kUnknown;
      }
      if (e->is(ExprKind::kSum)) {
        v = Scalar(d);
        return v;
      }
      v.def = {d, true};
      v.card = {0, SatMul(src.card.hi, body.card.hi)};
      return v;
    }
    case ExprKind::kGet: {
      // get({x}) = x; get of anything but a one-element set is ⊥.
      const AbsVal& s = kids[0];
      AbsVal v;
      if (s.def.whole == Definedness::kBottom) {
        v.def.whole = Definedness::kBottom;
        return v;
      }
      if (s.card.hi == 0 || s.card.lo >= 2) {
        // Provably empty, or provably at least two elements: always ⊥
        // (when the operand evaluates to a set at all).
        if (s.def.whole == Definedness::kDefined) {
          v.def.whole = Definedness::kBottom;
          return v;
        }
      }
      if (s.card.lo == 1 && s.card.hi == 1 &&
          s.def.whole == Definedness::kDefined) {
        // Surely a singleton; its element is never ⊥ (sets cannot hold
        // ⊥) but may be a holed array of unknown shape.
        v.def = {Definedness::kDefined, false};
        return v;
      }
      return v;
    }
    case ExprKind::kIf: {
      const AbsVal& c = kids[0];
      const AbsVal& t = kids[1];
      const AbsVal& f = kids[2];
      AbsVal v;
      if (c.def.whole == Definedness::kBottom ||
          (t.def.whole == Definedness::kBottom &&
           f.def.whole == Definedness::kBottom)) {
        v.def.whole = Definedness::kBottom;
        return v;
      }
      v.shape = JoinShape(t.shape, f.shape);
      v.card = JoinCard(t.card, f.card);
      v.def.elems_defined = t.def.elems_defined && f.def.elems_defined;
      v.def.whole = MeetStrict({c.def.whole, JoinDef(t.def.whole, f.def.whole)});
      // One definitely-⊥ branch caps the claim (the other may be taken).
      if (t.def.whole == Definedness::kBottom || f.def.whole == Definedness::kBottom) {
        if (v.def.whole == Definedness::kDefined) v.def.whole = Definedness::kUnknown;
      }
      return v;
    }
    case ExprKind::kCmp:
      return Scalar(MeetStrictAll(kids));
    case ExprKind::kArith: {
      Definedness d = MeetStrictAll(kids);
      if (e->arith_op() == ArithOp::kDiv || e->arith_op() == ArithOp::kMod) {
        if (DivisorConstZero(e->child(1))) {
          // nat/0 and nat%0 are ⊥ (a real numerator would be a type
          // error — no value — so the always-⊥ claim stands vacuously).
          AbsVal v;
          v.def.whole = Definedness::kBottom;
          return v;
        }
        if (d == Definedness::kDefined && !DivisorNonzero(e->child(1))) {
          d = Definedness::kUnknown;
        }
      }
      return Scalar(d);
    }
    case ExprKind::kTab: {
      // kids[0] = body, kids[1..] = bounds. Bounds are strict; a ⊥ body
      // value stays as a per-point hole (arrays are partial).
      AbsVal v;
      Definedness bounds = Definedness::kDefined;
      std::vector<Extent> extents;
      extents.reserve(e->tab_rank());
      uint64_t lo = 1, hi = 1;
      for (size_t j = 0; j < e->tab_rank(); ++j) {
        bounds = MeetStrict({bounds, kids[1 + j].def.whole});
        Extent x = Extent::Sym(e->tab_bound(j));
        uint64_t xlo, xhi;
        ExtentInterval(x, env, &xlo, &xhi);
        lo = SatMul(lo, xlo);
        hi = SatMul(hi, xhi);
        extents.push_back(std::move(x));
      }
      v.shape = ShapeVal::Array(std::move(extents));
      v.def.whole = bounds;
      v.def.elems_defined = kids[0].def.whole == Definedness::kDefined;
      v.card = {lo, hi};
      return v;
    }
    case ExprKind::kSubscript: {
      const AbsVal& arr = kids[0];
      const AbsVal& idx = kids[1];
      AbsVal v;
      Definedness d = MeetStrict({arr.def.whole, idx.def.whole});
      if (d == Definedness::kBottom) {
        v.def.whole = Definedness::kBottom;
        return v;
      }
      // In-range proof, per dimension, against the array's inferred
      // extents (falling back to the syntactic extent of the operand).
      size_t k = 0;
      if (arr.shape.kind == ShapeVal::Kind::kArray) {
        k = arr.shape.extents.size();
      } else if (e->child(1)->is(ExprKind::kTuple)) {
        k = e->child(1)->children().size();
      } else {
        k = 1;
      }
      if (k == 0) k = 1;
      std::vector<ExprPtr> parts = IndexParts(e->child(1), k, /*project=*/true);
      bool all_proven = true;
      bool any_const_oob = false;
      for (size_t j = 0; j < k; ++j) {
        bool proven = false;
        const Extent* x = arr.shape.kind == ShapeVal::Kind::kArray
                              ? &arr.shape.extents[j]
                              : nullptr;
        if (x != nullptr && x->kind == Extent::Kind::kConst) {
          ExprPtr c = Expr::NatConst(x->value);
          proven = ProveLt(parts[j], c, env);
          if (parts[j]->is(ExprKind::kNatConst) &&
              parts[j]->nat_const() >= x->value) {
            any_const_oob = true;
          }
        } else if (x != nullptr && x->kind == Extent::Kind::kSym) {
          proven = ProveLt(parts[j], x->sym, env);
        }
        if (!proven) proven = ProveLt(parts[j], DimExtentExpr(e->child(0), j, k), env);
        all_proven = all_proven && proven;
      }
      if (any_const_oob) {
        // A constant index at or past a constant extent: ⊥ whenever the
        // subscript evaluates (index ⊥ or array errors are covered by
        // strictness / the vacuous-claim convention).
        v.def.whole = Definedness::kBottom;
        return v;
      }
      if (d == Definedness::kDefined && all_proven && arr.def.elems_defined) {
        v.def.whole = Definedness::kDefined;
      }
      // The element's own shape/card are unknown.
      return v;
    }
    case ExprKind::kDim:
      return Scalar(MeetStrictAll(kids));
    case ExprKind::kIndex: {
      // index!k builds an array of *sets* — never holed — of dims
      // determined by the keys at run time.
      AbsVal v;
      Definedness d = MeetStrictAll(kids);
      v.def = {d, true};
      v.shape = ShapeVal::Array(std::vector<Extent>(e->rank(), Extent::Top()));
      return v;
    }
    case ExprKind::kDense: {
      // kids[0..rank) = dims (strict), the rest are element expressions
      // whose ⊥ stays as per-point holes. A run-time dims/count mismatch
      // is ⊥, so non-constant dims cap the claim at unknown.
      AbsVal v;
      size_t rank = e->dense_rank();
      Definedness dims_def = Definedness::kDefined;
      std::vector<Extent> extents;
      extents.reserve(rank);
      bool all_const = true;
      uint64_t volume = 1;
      for (size_t j = 0; j < rank; ++j) {
        dims_def = MeetStrict({dims_def, kids[j].def.whole});
        if (e->dense_dim(j)->is(ExprKind::kNatConst)) {
          uint64_t dim = e->dense_dim(j)->nat_const();
          extents.push_back(Extent::Const(dim));
          volume = volume * dim;  // wraps exactly like the runtime product
        } else {
          extents.push_back(Extent::Sym(e->dense_dim(j)));
          all_const = false;
        }
      }
      bool elems = true;
      for (size_t j = rank; j < kids.size(); ++j) {
        elems = elems && kids[j].def.whole == Definedness::kDefined;
      }
      v.shape = ShapeVal::Array(std::move(extents));
      v.def.elems_defined = elems;
      if (dims_def == Definedness::kBottom) {
        v.def.whole = Definedness::kBottom;
      } else if (all_const && volume != e->dense_value_count()) {
        v.def.whole =
            dims_def == Definedness::kDefined ? Definedness::kBottom
                                              : Definedness::kUnknown;
      } else if (all_const) {
        v.def.whole = dims_def;
        v.card = {volume, volume};
      } else {
        v.def.whole = Definedness::kUnknown;  // mismatch possible at run time
      }
      return v;
    }
    case ExprKind::kLiteral: {
      const Value& val = e->literal();
      AbsVal v;
      if (val.is_bottom()) {
        v.def.whole = Definedness::kBottom;
        return v;
      }
      v.def.whole = Definedness::kDefined;
      if (val.kind() == ValueKind::kArray) {
        const ArrayRep& rep = val.array();
        std::vector<Extent> extents;
        extents.reserve(rep.dims.size());
        uint64_t volume = 1;
        for (uint64_t dim : rep.dims) {
          extents.push_back(Extent::Const(dim));
          volume = SatMul(volume, dim);
        }
        v.shape = ShapeVal::Array(std::move(extents));
        v.def.elems_defined = LiteralElemsDefined(rep);
        v.card = {volume, volume};
      } else if (val.kind() == ValueKind::kSet) {
        v.shape = ShapeVal::NotArray();
        v.def.elems_defined = true;
        uint64_t n = val.set().elems.size();
        v.card = {n, n};
      } else {
        v = Scalar(Definedness::kDefined);
      }
      return v;
    }
  }
  return TopVal();
}

AbsVal AnalyzeAbs(const ExprPtr& e) {
  CoreDomains domain;
  AbsInterp<CoreDomains> interp(&domain);
  return interp.Analyze(e);
}

bool AbsContradicts(const AbsVal& a, const AbsVal& b, std::string* why) {
  auto fail = [why](std::string msg) {
    if (why) *why = std::move(msg);
    return true;
  };
  if (a.def.whole == Definedness::kDefined && b.def.whole == Definedness::kBottom) {
    return fail("definedness flipped: bottom-free became always-bottom");
  }
  // The reverse flip (always-⊥ becoming bottom-free) is NOT a
  // contradiction: the stock rules may refine ⊥ into a value — beta drops
  // a ⊥ argument whose binder is dead, dead-code removal deletes a ⊥
  // branch — and the optimizer's soundness contract only forbids making a
  // term *less* defined. When the pre-term is always-⊥ its shape and
  // cardinality claims are vacuous (it never yields an array or set), so
  // every remaining check is skipped too.
  if (a.def.whole == Definedness::kBottom) return false;
  if (a.shape.kind != ShapeVal::Kind::kTop && b.shape.kind != ShapeVal::Kind::kTop) {
    if (a.shape.kind != b.shape.kind) {
      return fail(StrCat("shape kind changed: ", a.shape.ToString(), " vs ",
                         b.shape.ToString()));
    }
    if (a.shape.kind == ShapeVal::Kind::kArray) {
      if (a.shape.extents.size() != b.shape.extents.size()) {
        return fail(StrCat("rank changed: ", a.shape.ToString(), " vs ",
                           b.shape.ToString()));
      }
      for (size_t j = 0; j < a.shape.extents.size(); ++j) {
        const Extent& x = a.shape.extents[j];
        const Extent& y = b.shape.extents[j];
        if (x.kind == Extent::Kind::kConst && y.kind == Extent::Kind::kConst &&
            x.value != y.value) {
          return fail(StrCat("extent ", j + 1, " changed: ", x.value, " vs ",
                             y.value));
        }
      }
    }
  }
  bool a_bounded = a.card.hi != UINT64_MAX;
  bool b_bounded = b.card.hi != UINT64_MAX;
  if ((a_bounded && b.card.lo > a.card.hi) || (b_bounded && a.card.lo > b.card.hi)) {
    return fail(StrCat("cardinalities disjoint: ", a.card.ToString(), " vs ",
                       b.card.ToString()));
  }
  return false;
}

}  // namespace analysis
}  // namespace aql
