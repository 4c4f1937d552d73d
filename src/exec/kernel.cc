#include "exec/kernel.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "analysis/absint.h"
#include "analysis/affine.h"
#include "base/cancel.h"
#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {
namespace exec {

namespace {

// The names visible in a tabulation body: the tabulation's binder slots
// (binder order), the compiler's scope for everything else, and the
// binders of the kernel sums enclosing the current node (innermost last),
// which shadow both.
struct SpecScope {
  const std::vector<size_t>& binder_slots;
  const SlotLookup& lookup;
  std::vector<std::string> sums;
};

// A variable becomes kBinder (a tabulation or sum binder: a nat loop
// index) or kSlot (any other frame slot).
bool BuildVar(const std::string& name, const SpecScope& scope, KernelSpec* out) {
  for (size_t d = scope.sums.size(); d-- > 0;) {
    if (scope.sums[d] == name) {
      out->op = KernelSpec::Op::kBinder;
      out->index = scope.binder_slots.size() + d;
      return true;
    }
  }
  Result<size_t> slot = scope.lookup(name);
  if (!slot.ok()) return false;
  // Innermost binding wins, and binder slots are the innermost scope
  // at the body, so a binder-slot hit is exactly a loop index.
  for (size_t j = 0; j < scope.binder_slots.size(); ++j) {
    if (scope.binder_slots[j] == slot.value()) {
      out->op = KernelSpec::Op::kBinder;
      out->index = j;
      return true;
    }
  }
  out->op = KernelSpec::Op::kSlot;
  out->index = slot.value();
  return true;
}

// The array operand of a subscript or dim: a non-binder frame slot (the
// array sits in a slot, resolved once at instantiation) or an inlined
// literal array (what a top-level val becomes after name resolution).
bool BuildArray(const Expr& arr, const SpecScope& scope, KernelSpec* out) {
  if (arr.is(ExprKind::kVar)) {
    // A binder is a nat, not an array.
    return BuildVar(arr.var_name(), scope, out) && out->op == KernelSpec::Op::kSlot;
  }
  if (arr.is(ExprKind::kLiteral) && arr.literal().kind() == ValueKind::kArray) {
    out->op = KernelSpec::Op::kLiteralArr;
    out->literal = arr.literal();
    return true;
  }
  return false;
}

// Resolves a kDim-rooted expression to a kDimOf spec leaf when the array
// operand is itself admissible. `rank`/`j` come from the surrounding
// kDim/kProj.
bool BuildDimOf(const Expr& arr, size_t rank, size_t j, const SpecScope& scope,
                KernelSpec* out) {
  out->op = KernelSpec::Op::kDimOf;
  out->nat = rank;
  out->index = j;
  out->kids.resize(1);
  return BuildArray(arr, scope, &out->kids[0]);
}

// Structural admission of the kernel fragment. Mirrors the runtime nodes
// of compiled.cc exactly where it matters: nat arithmetic wraps, monus
// truncates, nat div/mod by zero is ⊥, real div by zero is IEEE (not ⊥),
// comparisons are 3-way, reals through CompareReals (NaN above every other
// real and equal to every NaN, as in Value::Compare).
bool BuildSpec(const Expr& e, SpecScope* scope, KernelSpec* out) {
  switch (e.kind()) {
    case ExprKind::kNatConst:
      out->op = KernelSpec::Op::kNatConst;
      out->nat = e.nat_const();
      return true;
    case ExprKind::kRealConst:
      out->op = KernelSpec::Op::kRealConst;
      out->real = e.real_const();
      return true;
    case ExprKind::kBoolConst:
      out->op = KernelSpec::Op::kBoolConst;
      out->boolean = e.bool_const();
      return true;
    case ExprKind::kLiteral: {
      const Value& v = e.literal();
      switch (v.kind()) {
        case ValueKind::kNat:
          out->op = KernelSpec::Op::kNatConst;
          out->nat = v.nat_value();
          return true;
        case ValueKind::kReal:
          out->op = KernelSpec::Op::kRealConst;
          out->real = v.real_value();
          return true;
        case ValueKind::kBool:
          out->op = KernelSpec::Op::kBoolConst;
          out->boolean = v.bool_value();
          return true;
        default:
          return false;
      }
    }
    case ExprKind::kVar:
      return BuildVar(e.var_name(), *scope, out);
    case ExprKind::kArith: {
      out->op = KernelSpec::Op::kArith;
      out->arith = e.arith_op();
      out->kids.resize(2);
      return BuildSpec(*e.child(0), scope, &out->kids[0]) &&
             BuildSpec(*e.child(1), scope, &out->kids[1]);
    }
    case ExprKind::kCmp: {
      out->op = KernelSpec::Op::kCmp;
      out->cmp = e.cmp_op();
      out->kids.resize(2);
      return BuildSpec(*e.child(0), scope, &out->kids[0]) &&
             BuildSpec(*e.child(1), scope, &out->kids[1]);
    }
    case ExprKind::kIf: {
      out->op = KernelSpec::Op::kIf;
      out->kids.resize(3);
      return BuildSpec(*e.child(0), scope, &out->kids[0]) &&
             BuildSpec(*e.child(1), scope, &out->kids[1]) &&
             BuildSpec(*e.child(2), scope, &out->kids[2]);
    }
    case ExprKind::kSubscript: {
      out->op = KernelSpec::Op::kSubscript;
      out->kids.resize(1);
      if (!BuildArray(*e.child(0), *scope, &out->kids[0])) return false;
      const Expr& idx = *e.child(1);
      if (idx.is(ExprKind::kTuple)) {
        for (const ExprPtr& c : idx.children()) {
          out->kids.emplace_back();
          if (!BuildSpec(*c, scope, &out->kids.back())) return false;
        }
      } else {
        out->kids.emplace_back();
        if (!BuildSpec(idx, scope, &out->kids.back())) return false;
      }
      return true;
    }
    case ExprKind::kDim:
      // dim!1 a: the extent of a rank-1 array — what index arithmetic like
      // `A[(i + 1) % dim!1 A]` needs in scope. Higher ranks arrive through
      // the kProj case below.
      if (e.rank() != 1) return false;
      return BuildDimOf(*e.child(0), 1, 0, *scope, out);
    case ExprKind::kProj: {
      // pi_j(dim!k a): one extent of a rank-k array.
      const Expr& d = *e.child(0);
      if (!d.is(ExprKind::kDim) || d.rank() != e.proj_arity()) return false;
      return BuildDimOf(*d.child(0), d.rank(), e.proj_index() - 1, *scope, out);
    }
    case ExprKind::kSum: {
      // sum k < n. body: only a count over gen(n); the trip count is
      // evaluated outside the sum's binder, the body inside it.
      const ExprPtr& src = e.child(1);
      if (!src->is(ExprKind::kGen)) return false;
      out->op = KernelSpec::Op::kSum;
      out->index = scope->binder_slots.size() + scope->sums.size();
      out->kids.resize(2);
      if (!BuildSpec(*src->child(0), scope, &out->kids[0])) return false;
      scope->sums.push_back(e.binder());
      const bool ok = BuildSpec(*e.child(0), scope, &out->kids[1]);
      scope->sums.pop_back();
      return ok;
    }
    default:
      return false;
  }
}

}  // namespace

std::unique_ptr<KernelSpec> BuildKernelSpec(const Expr& body,
                                            const std::vector<size_t>& binder_slots,
                                            const SlotLookup& lookup) {
  auto spec = std::make_unique<KernelSpec>();
  SpecScope scope{binder_slots, lookup, {}};
  if (!BuildSpec(body, &scope, spec.get())) return nullptr;
  return spec;
}

// ---------- static proof annotation ----------

namespace {

// A nat div/mod divisor or a sum's trip count proven nonzero: a nonzero
// constant, or a control path that established `0 < d`. (A real divisor
// never needs this — IEEE division is total.)
bool ProvenNonzero(const ExprPtr& d, const analysis::SymEnv& env) {
  if (std::optional<uint64_t> n = NatConstOf(d)) return *n != 0;
  if (d->is(ExprKind::kRealConst)) return true;
  if (d->is(ExprKind::kLiteral) && d->literal().kind() == ValueKind::kReal) {
    return true;
  }
  return analysis::ProveLt(Expr::NatConst(0), d, env);
}

// Walks the body expression and its spec in lockstep (BuildSpec maps the
// admitted fragment one-to-one), attaching proofs under the environment
// of tabulation-binder bounds and enclosing guard conditions.
void AnnotateNode(const ExprPtr& e, const analysis::SymEnv& env, KernelSpec* spec,
                  analysis::Proof* proof) {
  switch (spec->op) {
    case KernelSpec::Op::kArith: {
      if (!e->is(ExprKind::kArith) || spec->kids.size() != 2) return;
      if (e->arith_op() == ArithOp::kDiv || e->arith_op() == ArithOp::kMod) {
        spec->div_safe = ProvenNonzero(e->child(1), env);
      }
      AnnotateNode(e->child(0), env, &spec->kids[0], proof);
      AnnotateNode(e->child(1), env, &spec->kids[1], proof);
      return;
    }
    case KernelSpec::Op::kCmp: {
      if (!e->is(ExprKind::kCmp) || spec->kids.size() != 2) return;
      AnnotateNode(e->child(0), env, &spec->kids[0], proof);
      AnnotateNode(e->child(1), env, &spec->kids[1], proof);
      return;
    }
    case KernelSpec::Op::kIf: {
      if (!e->is(ExprKind::kIf) || spec->kids.size() != 3) return;
      AnnotateNode(e->child(0), env, &spec->kids[0], proof);
      analysis::SymEnv then_env = env;
      then_env.true_conds.push_back(e->child(0));
      AnnotateNode(e->child(1), then_env, &spec->kids[1], proof);
      AnnotateNode(e->child(2), env, &spec->kids[2], proof);
      return;
    }
    case KernelSpec::Op::kSubscript: {
      if (!e->is(ExprKind::kSubscript) || spec->kids.size() < 2) return;
      size_t k = spec->kids.size() - 1;
      std::vector<ExprPtr> parts = IndexParts(e->child(1), k, /*project=*/false);
      if (parts.empty()) return;  // shape mismatch; leave unproven
      spec->idx_proven.assign(k, 0);
      spec->idx_ub.assign(k, 0);
      std::vector<std::string> affine_facts;
      for (size_t j = 0; j < k; ++j) {
        const ExprPtr ext = analysis::DimExtentExpr(e->child(0), j, k);
        spec->idx_proven[j] = analysis::ProveLt(parts[j], ext, env) ? 1 : 0;
        // Take the tighter of the syntactic and the relational bound: the
        // affine interval sees through cancellation (`i*2 - i`) and exact
        // division (`(i*4)/2`) that ConstUpperBound folds away to ⊤.
        const uint64_t cub = analysis::ConstUpperBound(parts[j], env).value_or(0);
        const std::optional<uint64_t> aub = analysis::AffineUpperBound(parts[j], env);
        uint64_t ub = cub;
        bool affine_used = false;
        if (aub.has_value() && (cub == 0 || *aub < cub)) {
          ub = *aub;
          affine_used = true;
        }
        spec->idx_ub[j] = ub;
        if (spec->idx_proven[j] == 0 && aub.has_value() &&
            ext->is(ExprKind::kNatConst) && *aub <= ext->nat_const()) {
          spec->idx_proven[j] = 1;
          affine_used = true;
        }
        if (affine_used) {
          std::string fact = StrCat("dim ", j, ": index ",
                                    analysis::AffineOf(parts[j], env).ToString());
          if (spec->idx_proven[j] && ext->is(ExprKind::kNatConst)) {
            fact += StrCat(" proves in-bounds vs extent ", ext->nat_const());
          } else {
            fact += StrCat(", affine upper bound ", ub);
          }
          affine_facts.push_back(std::move(fact));
        }
        AnnotateNode(parts[j], env, &spec->kids[1 + j], proof);
      }
      if (proof != nullptr && !affine_facts.empty()) {
        proof->Add("unchecked-kernel-bounds",
                   StrCat("subscript of ",
                          analysis::RenderArrayExpr(e->child(0))),
                   std::move(affine_facts));
      }
      return;
    }
    case KernelSpec::Op::kSum: {
      if (!e->is(ExprKind::kSum) || spec->kids.size() != 2) return;
      const ExprPtr& trips = e->child(1)->child(0);
      spec->trips_nonzero = ProvenNonzero(trips, env);
      AnnotateNode(trips, env, &spec->kids[0], proof);
      // The body sees the sum binder: facts it shadows die, `k < n` holds.
      analysis::SymEnv body_env = analysis::KillShadowed(env, {e->binder()});
      analysis::AddBinderFacts(e, 0, &body_env);
      AnnotateNode(e->child(0), body_env, &spec->kids[1], proof);
      return;
    }
    default:
      return;  // leaves (consts, binders, slots, kDimOf) carry no proofs
  }
}

}  // namespace

void AnnotateKernelSpec(const Expr& tab, KernelSpec* spec, analysis::Proof* proof) {
  if (!tab.is(ExprKind::kTab)) return;
  analysis::SymEnv env;
  ExprPtr tab_ptr = tab.shared_from_this();
  analysis::AddBinderFacts(tab_ptr, 0, &env);  // binders below their bounds
  AnnotateNode(tab.tab_body(), env, spec, proof);
}

// ---------- runtime instantiation ----------

bool Kernel::Build(const KernelSpec& spec, const Frame& frame, RtNode* out) {
  out->op = spec.op;
  switch (spec.op) {
    case KernelSpec::Op::kNatConst:
      out->type = Type::kNat;
      out->nat = spec.nat;
      return true;
    case KernelSpec::Op::kRealConst:
      out->type = Type::kReal;
      out->real = spec.real;
      return true;
    case KernelSpec::Op::kBoolConst:
      out->type = Type::kBool;
      out->boolean = spec.boolean ? 1 : 0;
      return true;
    case KernelSpec::Op::kBinder:
      out->type = Type::kNat;
      out->binder = spec.index;
      return true;
    case KernelSpec::Op::kSlot: {
      // Scalar slots freeze into constants for the whole loop (the
      // tabulation only rebinds its binder slots).
      if (spec.index >= frame.slots.size()) return false;
      const Value& v = frame.slots[spec.index];
      switch (v.kind()) {
        case ValueKind::kNat:
          out->op = KernelSpec::Op::kNatConst;
          out->type = Type::kNat;
          out->nat = v.nat_value();
          return true;
        case ValueKind::kReal:
          out->op = KernelSpec::Op::kRealConst;
          out->type = Type::kReal;
          out->real = v.real_value();
          return true;
        case ValueKind::kBool:
          out->op = KernelSpec::Op::kBoolConst;
          out->type = Type::kBool;
          out->boolean = v.bool_value() ? 1 : 0;
          return true;
        default:
          return false;
      }
    }
    case KernelSpec::Op::kArith: {
      out->arith = spec.arith;
      out->kids.resize(2);
      if (!Build(spec.kids[0], frame, &out->kids[0]) ||
          !Build(spec.kids[1], frame, &out->kids[1])) {
        return false;
      }
      if (out->kids[0].type != out->kids[1].type) return false;
      if (out->kids[0].type == Type::kBool) return false;
      out->type = out->kids[0].type;
      if ((spec.arith == ArithOp::kDiv || spec.arith == ArithOp::kMod) &&
          out->type == Type::kNat) {
        // ⊥ source: nat division by zero. Discharged by a static proof or
        // a divisor frozen to a nonzero constant at instantiation.
        bool safe = spec.div_safe || (out->kids[1].op == KernelSpec::Op::kNatConst &&
                                      out->kids[1].nat != 0);
        if (!safe) unchecked_ = false;
      }
      return true;
    }
    case KernelSpec::Op::kCmp: {
      out->cmp = spec.cmp;
      out->kids.resize(2);
      if (!Build(spec.kids[0], frame, &out->kids[0]) ||
          !Build(spec.kids[1], frame, &out->kids[1])) {
        return false;
      }
      if (out->kids[0].type != out->kids[1].type) return false;
      out->type = Type::kBool;
      return true;
    }
    case KernelSpec::Op::kIf: {
      out->kids.resize(3);
      for (size_t i = 0; i < 3; ++i) {
        if (!Build(spec.kids[i], frame, &out->kids[i])) return false;
      }
      if (out->kids[0].type != Type::kBool) return false;
      if (out->kids[1].type != out->kids[2].type) return false;
      out->type = out->kids[1].type;
      return true;
    }
    case KernelSpec::Op::kSubscript: {
      const Value* src;
      if (spec.kids[0].op == KernelSpec::Op::kLiteralArr) {
        src = &spec.kids[0].literal;
      } else {
        size_t slot = spec.kids[0].index;
        if (slot >= frame.slots.size()) return false;
        src = &frame.slots[slot];
      }
      const Value& v = *src;
      if (v.kind() != ValueKind::kArray) return false;
      const ArrayRep& a = v.array();
      if (!a.unboxed()) return false;
      size_t rank = spec.kids.size() - 1;
      if (a.dims.size() != rank) return false;
      pinned_.push_back(v);  // keep the buffer alive for the kernel
      out->arr = &pinned_.back().array();
      switch (a.payload) {
        case ArrayRep::Payload::kNats: out->type = Type::kNat; break;
        case ArrayRep::Payload::kReals: out->type = Type::kReal; break;
        case ArrayRep::Payload::kBools: out->type = Type::kBool; break;
        case ArrayRep::Payload::kBoxed: return false;
        // Tiled slabs have no flat buffer for the kernel to index; the
        // interpreter path (with its tile memo) handles them.
        case ArrayRep::Payload::kTiled: return false;
      }
      out->kids.resize(rank);
      for (size_t i = 0; i < rank; ++i) {
        if (!Build(spec.kids[1 + i], frame, &out->kids[i])) return false;
        if (out->kids[i].type != Type::kNat) return false;
        // ⊥ source: out-of-bounds index. Discharged by a symbolic proof
        // against the extent, by a constant bound validated against the
        // concrete extent, or by an index frozen to an in-range constant.
        bool safe =
            (i < spec.idx_proven.size() && spec.idx_proven[i] != 0) ||
            (i < spec.idx_ub.size() && spec.idx_ub[i] != 0 &&
             spec.idx_ub[i] <= a.dims[i]) ||
            (out->kids[i].op == KernelSpec::Op::kNatConst &&
             out->kids[i].nat < a.dims[i]);
        if (!safe) unchecked_ = false;
      }
      return true;
    }
    case KernelSpec::Op::kDimOf: {
      // The extent of an array slot: a plain nat, known in-range by
      // construction (never a ⊥ source). Unlike kSubscript the payload
      // may be boxed — only the dims vector is read.
      const Value* src;
      if (spec.kids[0].op == KernelSpec::Op::kLiteralArr) {
        src = &spec.kids[0].literal;
      } else {
        size_t slot = spec.kids[0].index;
        if (slot >= frame.slots.size()) return false;
        src = &frame.slots[slot];
      }
      const Value& v = *src;
      if (v.kind() != ValueKind::kArray) return false;
      const ArrayRep& a = v.array();
      if (a.dims.size() != spec.nat || spec.index >= a.dims.size()) return false;
      // Freeze the extent: dims are immutable for the kernel's lifetime.
      out->op = KernelSpec::Op::kNatConst;
      out->type = Type::kNat;
      out->nat = a.dims[spec.index];
      return true;
    }
    case KernelSpec::Op::kSum: {
      out->binder = spec.index;
      index_width_ = std::max(index_width_, spec.index + 1);
      out->kids.resize(2);
      if (!Build(spec.kids[0], frame, &out->kids[0]) ||
          !Build(spec.kids[1], frame, &out->kids[1])) {
        return false;
      }
      if (out->kids[0].type != Type::kNat || out->kids[1].type == Type::kBool) {
        return false;
      }
      out->type = out->kids[1].type;
      if (out->type == Type::kReal) {
        // ⊥-like source: a zero-trip real fold is the nat 0, which only
        // the generic path can place. Discharged by a static proof or a
        // trip count frozen to a nonzero constant.
        bool safe = spec.trips_nonzero || (out->kids[0].op == KernelSpec::Op::kNatConst &&
                                           out->kids[0].nat != 0);
        if (!safe) unchecked_ = false;
      }
      return true;
    }
    case KernelSpec::Op::kLiteralArr:
      return false;  // only legal as a kSubscript's array operand
  }
  return false;
}

std::unique_ptr<Kernel> Kernel::Instantiate(const KernelSpec& spec, const Frame& frame) {
  std::unique_ptr<Kernel> k(new Kernel());
  // The ArrayRep pointers taken while building stay valid as pinned_
  // grows: each rep is heap-owned by its Value's shared_ptr.
  if (!k->Build(spec, frame, &k->root_)) return nullptr;
  return k;
}

// ---------- evaluation ----------

namespace {

// A sum polls for cancellation every 4096 trips, so one long cell cannot
// outlive a deadline. Interrupts are sticky: the caller's next poll sees
// the same status and reports it.
inline bool SumInterrupted(uint64_t trip) {
  return (trip & 0xFFF) == 0xFFF && !CheckInterrupt().ok();
}

}  // namespace

bool Kernel::SubscriptFlat(const RtNode& n, uint64_t* idx, uint64_t* flat) {
  const ArrayRep& a = *n.arr;
  uint64_t f = 0;
  for (size_t i = 0; i < n.kids.size(); ++i) {
    uint64_t v;
    if (!NatAt(n.kids[i], idx, &v)) return false;
    if (v >= a.dims[i]) return false;  // out of bounds: ⊥
    f = f * a.dims[i] + v;
  }
  *flat = f;
  return true;
}

bool Kernel::NatAt(const RtNode& n, uint64_t* idx, uint64_t* out) {
  switch (n.op) {
    case KernelSpec::Op::kNatConst:
      *out = n.nat;
      return true;
    case KernelSpec::Op::kBinder:
      *out = idx[n.binder];
      return true;
    case KernelSpec::Op::kArith: {
      uint64_t x, y;
      if (!NatAt(n.kids[0], idx, &x) || !NatAt(n.kids[1], idx, &y)) return false;
      switch (n.arith) {
        case ArithOp::kAdd: *out = x + y; return true;
        case ArithOp::kMonus: *out = x >= y ? x - y : 0; return true;
        case ArithOp::kMul: *out = x * y; return true;
        case ArithOp::kDiv:
          if (y == 0) return false;
          *out = x / y;
          return true;
        case ArithOp::kMod:
          if (y == 0) return false;
          *out = x % y;
          return true;
      }
      return false;
    }
    case KernelSpec::Op::kIf: {
      uint8_t c;
      if (!BoolAt(n.kids[0], idx, &c)) return false;
      return NatAt(n.kids[c ? 1 : 2], idx, out);
    }
    case KernelSpec::Op::kSubscript: {
      uint64_t flat;
      if (!SubscriptFlat(n, idx, &flat)) return false;
      *out = n.arr->nats[flat];
      return true;
    }
    case KernelSpec::Op::kSum: {
      uint64_t trips;
      if (!NatAt(n.kids[0], idx, &trips)) return false;
      uint64_t total = 0;
      for (uint64_t t = 0; t < trips; ++t) {
        if (SumInterrupted(t)) return false;
        idx[n.binder] = t;
        uint64_t v;
        if (!NatAt(n.kids[1], idx, &v)) return false;
        total += v;
      }
      *out = total;
      return true;
    }
    default:
      return false;
  }
}

bool Kernel::RealAt(const RtNode& n, uint64_t* idx, double* out) {
  switch (n.op) {
    case KernelSpec::Op::kRealConst:
      *out = n.real;
      return true;
    case KernelSpec::Op::kArith: {
      double x, y;
      if (!RealAt(n.kids[0], idx, &x) || !RealAt(n.kids[1], idx, &y)) return false;
      switch (n.arith) {
        case ArithOp::kAdd: *out = x + y; return true;
        case ArithOp::kMonus: *out = x - y; return true;
        case ArithOp::kMul: *out = x * y; return true;
        case ArithOp::kDiv: *out = x / y; return true;  // IEEE inf, not ⊥
        case ArithOp::kMod: *out = std::fmod(x, y); return true;
      }
      return false;
    }
    case KernelSpec::Op::kIf: {
      uint8_t c;
      if (!BoolAt(n.kids[0], idx, &c)) return false;
      return RealAt(n.kids[c ? 1 : 2], idx, out);
    }
    case KernelSpec::Op::kSubscript: {
      uint64_t flat;
      if (!SubscriptFlat(n, idx, &flat)) return false;
      *out = n.arr->reals[flat];
      return true;
    }
    case KernelSpec::Op::kSum: {
      uint64_t trips;
      // Zero trips: the fold's value is the nat 0 (never 0.0); leave the
      // cell to the generic path.
      if (!NatAt(n.kids[0], idx, &trips) || trips == 0) return false;
      double total = 0;
      for (uint64_t t = 0; t < trips; ++t) {
        if (SumInterrupted(t)) return false;
        idx[n.binder] = t;
        double v;
        if (!RealAt(n.kids[1], idx, &v)) return false;
        total += v;
      }
      *out = total;
      return true;
    }
    default:
      return false;
  }
}

bool Kernel::BoolAt(const RtNode& n, uint64_t* idx, uint8_t* out) {
  switch (n.op) {
    case KernelSpec::Op::kBoolConst:
      *out = n.boolean;
      return true;
    case KernelSpec::Op::kCmp: {
      int c;
      switch (n.kids[0].type) {
        case Type::kNat: {
          uint64_t x, y;
          if (!NatAt(n.kids[0], idx, &x) || !NatAt(n.kids[1], idx, &y)) return false;
          c = x < y ? -1 : y < x ? 1 : 0;
          break;
        }
        case Type::kReal: {
          double x, y;
          if (!RealAt(n.kids[0], idx, &x) || !RealAt(n.kids[1], idx, &y)) return false;
          c = CompareReals(x, y);  // the order Value::Compare uses
          break;
        }
        case Type::kBool: {
          uint8_t x, y;
          if (!BoolAt(n.kids[0], idx, &x) || !BoolAt(n.kids[1], idx, &y)) return false;
          c = x < y ? -1 : y < x ? 1 : 0;
          break;
        }
        default:
          return false;
      }
      switch (n.cmp) {
        case CmpOp::kEq: *out = c == 0; return true;
        case CmpOp::kNe: *out = c != 0; return true;
        case CmpOp::kLt: *out = c < 0; return true;
        case CmpOp::kLe: *out = c <= 0; return true;
        case CmpOp::kGt: *out = c > 0; return true;
        case CmpOp::kGe: *out = c >= 0; return true;
      }
      return false;
    }
    case KernelSpec::Op::kIf: {
      uint8_t c;
      if (!BoolAt(n.kids[0], idx, &c)) return false;
      return BoolAt(n.kids[c ? 1 : 2], idx, out);
    }
    case KernelSpec::Op::kSubscript: {
      uint64_t flat;
      if (!SubscriptFlat(n, idx, &flat)) return false;
      *out = n.arr->bools[flat];
      return true;
    }
    default:
      return false;
  }
}

bool Kernel::EvalNat(uint64_t* idx, uint64_t* out) const {
  return NatAt(root_, idx, out);
}
bool Kernel::EvalReal(uint64_t* idx, double* out) const {
  return RealAt(root_, idx, out);
}
bool Kernel::EvalBool(uint64_t* idx, uint8_t* out) const {
  return BoolAt(root_, idx, out);
}

// ---------- unchecked evaluation ----------
//
// Mirrors the checked evaluators minus the ⊥ protocol: no per-dimension
// bounds tests, no zero-divisor tests, values returned directly. Only
// reachable behind unchecked() — instantiation proved every subscript
// in-range against the concrete extents and every nat divisor nonzero.

// Loop indices, constants and subscripts — the subscript parts and
// operands of typical fold bodies — are read without a recursive call.
inline uint64_t Kernel::NatKidU(const RtNode& k, uint64_t* idx) {
  switch (k.op) {
    case KernelSpec::Op::kBinder: return idx[k.binder];
    case KernelSpec::Op::kNatConst: return k.nat;
    case KernelSpec::Op::kSubscript: return k.arr->nats[FlatU(k, idx)];
    default: return NatAtU(k, idx);
  }
}
inline double Kernel::RealKidU(const RtNode& k, uint64_t* idx) {
  switch (k.op) {
    case KernelSpec::Op::kRealConst: return k.real;
    case KernelSpec::Op::kSubscript: return k.arr->reals[FlatU(k, idx)];
    default: return RealAtU(k, idx);
  }
}

uint64_t Kernel::FlatU(const RtNode& n, uint64_t* idx) {
  const ArrayRep& a = *n.arr;
  uint64_t f = 0;
  for (size_t i = 0; i < n.kids.size(); ++i) {
    f = f * a.dims[i] + NatKidU(n.kids[i], idx);
  }
  return f;
}

uint64_t Kernel::NatAtU(const RtNode& n, uint64_t* idx) {
  switch (n.op) {
    case KernelSpec::Op::kNatConst:
      return n.nat;
    case KernelSpec::Op::kBinder:
      return idx[n.binder];
    case KernelSpec::Op::kArith: {
      uint64_t x = NatKidU(n.kids[0], idx);
      uint64_t y = NatKidU(n.kids[1], idx);
      switch (n.arith) {
        case ArithOp::kAdd: return x + y;
        case ArithOp::kMonus: return x >= y ? x - y : 0;
        case ArithOp::kMul: return x * y;
        case ArithOp::kDiv: return x / y;
        case ArithOp::kMod: return x % y;
      }
      return 0;
    }
    case KernelSpec::Op::kIf:
      return NatAtU(n.kids[BoolAtU(n.kids[0], idx) ? 1 : 2], idx);
    case KernelSpec::Op::kSubscript:
      return n.arr->nats[FlatU(n, idx)];
    case KernelSpec::Op::kSum: {
      const uint64_t trips = NatAtU(n.kids[0], idx);
      uint64_t total = 0;
      for (uint64_t t = 0; t < trips; ++t) {
        if (SumInterrupted(t)) break;
        idx[n.binder] = t;
        total += NatKidU(n.kids[1], idx);
      }
      return total;
    }
    default:
      return 0;
  }
}

double Kernel::RealAtU(const RtNode& n, uint64_t* idx) {
  switch (n.op) {
    case KernelSpec::Op::kRealConst:
      return n.real;
    case KernelSpec::Op::kArith: {
      double x = RealKidU(n.kids[0], idx);
      double y = RealKidU(n.kids[1], idx);
      switch (n.arith) {
        case ArithOp::kAdd: return x + y;
        case ArithOp::kMonus: return x - y;
        case ArithOp::kMul: return x * y;
        case ArithOp::kDiv: return x / y;  // IEEE inf, not ⊥
        case ArithOp::kMod: return std::fmod(x, y);
      }
      return 0;
    }
    case KernelSpec::Op::kIf:
      return RealAtU(n.kids[BoolAtU(n.kids[0], idx) ? 1 : 2], idx);
    case KernelSpec::Op::kSubscript:
      return n.arr->reals[FlatU(n, idx)];
    case KernelSpec::Op::kSum: {
      const uint64_t trips = NatAtU(n.kids[0], idx);  // >= 1: unchecked() holds
      double total = 0;
      for (uint64_t t = 0; t < trips; ++t) {
        if (SumInterrupted(t)) break;
        idx[n.binder] = t;
        total += RealKidU(n.kids[1], idx);
      }
      return total;
    }
    default:
      return 0;
  }
}

uint8_t Kernel::BoolAtU(const RtNode& n, uint64_t* idx) {
  switch (n.op) {
    case KernelSpec::Op::kBoolConst:
      return n.boolean;
    case KernelSpec::Op::kCmp: {
      int c = 0;
      switch (n.kids[0].type) {
        case Type::kNat: {
          uint64_t x = NatAtU(n.kids[0], idx);
          uint64_t y = NatAtU(n.kids[1], idx);
          c = x < y ? -1 : y < x ? 1 : 0;
          break;
        }
        case Type::kReal: {
          double x = RealAtU(n.kids[0], idx);
          double y = RealAtU(n.kids[1], idx);
          c = CompareReals(x, y);  // the order Value::Compare uses
          break;
        }
        case Type::kBool: {
          uint8_t x = BoolAtU(n.kids[0], idx);
          uint8_t y = BoolAtU(n.kids[1], idx);
          c = x < y ? -1 : y < x ? 1 : 0;
          break;
        }
      }
      switch (n.cmp) {
        case CmpOp::kEq: return c == 0;
        case CmpOp::kNe: return c != 0;
        case CmpOp::kLt: return c < 0;
        case CmpOp::kLe: return c <= 0;
        case CmpOp::kGt: return c > 0;
        case CmpOp::kGe: return c >= 0;
      }
      return 0;
    }
    case KernelSpec::Op::kIf:
      return BoolAtU(n.kids[BoolAtU(n.kids[0], idx) ? 1 : 2], idx);
    case KernelSpec::Op::kSubscript:
      return n.arr->bools[FlatU(n, idx)];
    default:
      return 0;
  }
}

uint64_t Kernel::EvalNatUnchecked(uint64_t* idx) const {
  return NatAtU(root_, idx);
}
double Kernel::EvalRealUnchecked(uint64_t* idx) const {
  return RealAtU(root_, idx);
}
uint8_t Kernel::EvalBoolUnchecked(uint64_t* idx) const {
  return BoolAtU(root_, idx);
}

}  // namespace exec
}  // namespace aql
