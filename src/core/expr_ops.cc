#include "core/expr_ops.h"

#include <algorithm>
#include <cstring>

namespace aql {

namespace {

void CollectFreeVars(const ExprPtr& e, std::set<std::string>* bound,
                     std::set<std::string>* free) {
  if (e->is(ExprKind::kVar)) {
    if (!bound->count(e->var_name())) free->insert(e->var_name());
    return;
  }
  auto child_binders = ChildBinders(*e);
  for (size_t i = 0; i < e->children().size(); ++i) {
    std::vector<std::string> added;
    for (const std::string& b : child_binders[i]) {
      if (bound->insert(b).second) added.push_back(b);
    }
    CollectFreeVars(e->child(i), bound, free);
    for (const std::string& b : added) bound->erase(b);
  }
}

}  // namespace

std::set<std::string> FreeVars(const ExprPtr& e) {
  std::set<std::string> bound, free;
  CollectFreeVars(e, &bound, &free);
  return free;
}

bool OccursFree(const ExprPtr& e, const std::string& name) {
  return FreeVars(e).count(name) > 0;
}

std::string FreshName(const std::string& base, const std::set<std::string>& avoid) {
  // Strip any existing $n suffix so renaming a renamed variable stays tidy.
  std::string stem = base;
  size_t dollar = stem.find('$');
  if (dollar != std::string::npos) stem = stem.substr(0, dollar);
  for (uint64_t n = 0;; ++n) {
    std::string candidate = stem + "$" + std::to_string(n);
    if (!avoid.count(candidate)) return candidate;
  }
}

namespace {

ExprPtr SubstituteImpl(const ExprPtr& e,
                       const std::unordered_map<std::string, ExprPtr>& subst,
                       const std::set<std::string>& subst_free) {
  if (subst.empty()) return e;
  if (e->is(ExprKind::kVar)) {
    auto it = subst.find(e->var_name());
    return it != subst.end() ? it->second : e;
  }
  if (e->binders().empty()) {
    // No binders: substitute in every child.
    bool changed = false;
    std::vector<ExprPtr> children;
    children.reserve(e->children().size());
    for (const ExprPtr& c : e->children()) {
      ExprPtr nc = SubstituteImpl(c, subst, subst_free);
      changed |= (nc.get() != c.get());
      children.push_back(std::move(nc));
    }
    return changed ? e->WithChildren(std::move(children)) : e;
  }

  // Binder-introducing node. The binders scope over child 0 only (Lambda,
  // BigUnion, Sum, Tab all follow this layout).
  auto child_binders = ChildBinders(*e);
  std::vector<std::string> binders = e->binders();

  // Drop substitutions shadowed by our binders for the body.
  std::unordered_map<std::string, ExprPtr> body_subst = subst;
  for (const std::string& b : binders) body_subst.erase(b);

  // Rename binders that would capture free variables of the replacements.
  std::set<std::string> body_subst_free;
  for (const auto& [_, rep] : body_subst) {
    auto fv = FreeVars(rep);
    body_subst_free.insert(fv.begin(), fv.end());
  }
  ExprPtr body = e->child(0);
  for (std::string& b : binders) {
    if (body_subst_free.count(b)) {
      std::set<std::string> avoid = body_subst_free;
      auto body_fv = FreeVars(body);
      avoid.insert(body_fv.begin(), body_fv.end());
      for (const std::string& other : binders) avoid.insert(other);
      std::string fresh = FreshName(b, avoid);
      std::unordered_map<std::string, ExprPtr> rename{{b, Expr::Var(fresh)}};
      body = SubstituteImpl(body, rename, {b});
      b = fresh;
    }
  }
  ExprPtr new_body = SubstituteImpl(body, body_subst, body_subst_free);

  std::vector<ExprPtr> children;
  children.reserve(e->children().size());
  children.push_back(std::move(new_body));
  for (size_t i = 1; i < e->children().size(); ++i) {
    children.push_back(SubstituteImpl(e->child(i), subst, subst_free));
  }
  (void)child_binders;
  return e->WithBindersAndChildren(std::move(binders), std::move(children));
}

}  // namespace

ExprPtr Substitute(const ExprPtr& e, const std::string& var, const ExprPtr& replacement) {
  std::unordered_map<std::string, ExprPtr> subst{{var, replacement}};
  return SubstituteAll(e, subst);
}

ExprPtr SubstituteAll(const ExprPtr& e,
                      const std::unordered_map<std::string, ExprPtr>& subst) {
  std::set<std::string> subst_free;
  for (const auto& [_, rep] : subst) {
    auto fv = FreeVars(rep);
    subst_free.insert(fv.begin(), fv.end());
  }
  return SubstituteImpl(e, subst, subst_free);
}

namespace {

bool AlphaEqualImpl(const ExprPtr& a, const ExprPtr& b,
                    std::unordered_map<std::string, std::string>* a_to_b,
                    std::unordered_map<std::string, std::string>* b_to_a) {
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ExprKind::kVar: {
      auto it = a_to_b->find(a->var_name());
      if (it != a_to_b->end()) return it->second == b->var_name();
      // Free variable: must match exactly and not be bound on the other side.
      auto rit = b_to_a->find(b->var_name());
      if (rit != b_to_a->end()) return false;
      return a->var_name() == b->var_name();
    }
    case ExprKind::kBoolConst:
      return a->bool_const() == b->bool_const();
    case ExprKind::kNatConst:
      return a->nat_const() == b->nat_const();
    case ExprKind::kRealConst:
      return a->real_const() == b->real_const();
    case ExprKind::kStrConst:
      return a->str_const() == b->str_const();
    case ExprKind::kCmp:
      if (a->cmp_op() != b->cmp_op()) return false;
      break;
    case ExprKind::kArith:
      if (a->arith_op() != b->arith_op()) return false;
      break;
    case ExprKind::kProj:
      if (a->proj_index() != b->proj_index() || a->proj_arity() != b->proj_arity()) {
        return false;
      }
      break;
    case ExprKind::kDim:
    case ExprKind::kIndex:
    case ExprKind::kDense:
      if (a->rank() != b->rank()) return false;
      break;
    case ExprKind::kLiteral:
      return a->literal() == b->literal();
    case ExprKind::kExternal:
      return a->var_name() == b->var_name();
    default:
      break;
  }
  if (a->children().size() != b->children().size()) return false;
  if (a->binders().size() != b->binders().size()) return false;

  auto child_binders_a = ChildBinders(*a);
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (child_binders_a[i].empty()) {
      if (!AlphaEqualImpl(a->child(i), b->child(i), a_to_b, b_to_a)) return false;
    } else {
      // Pair up binder names for the scope of this child.
      std::vector<std::pair<std::string, std::string>> saved_ab, saved_ba;
      for (size_t j = 0; j < a->binders().size(); ++j) {
        const std::string& ba = a->binders()[j];
        const std::string& bb = b->binders()[j];
        auto ita = a_to_b->find(ba);
        saved_ab.emplace_back(ba, ita == a_to_b->end() ? std::string() : ita->second);
        auto itb = b_to_a->find(bb);
        saved_ba.emplace_back(bb, itb == b_to_a->end() ? std::string() : itb->second);
        (*a_to_b)[ba] = bb;
        (*b_to_a)[bb] = ba;
      }
      bool ok = AlphaEqualImpl(a->child(i), b->child(i), a_to_b, b_to_a);
      for (auto& [k, v] : saved_ab) {
        if (v.empty()) {
          a_to_b->erase(k);
        } else {
          (*a_to_b)[k] = v;
        }
      }
      for (auto& [k, v] : saved_ba) {
        if (v.empty()) {
          b_to_a->erase(k);
        } else {
          (*b_to_a)[k] = v;
        }
      }
      if (!ok) return false;
    }
  }
  return true;
}

}  // namespace

bool AlphaEqual(const ExprPtr& a, const ExprPtr& b) {
  std::unordered_map<std::string, std::string> a_to_b, b_to_a;
  return AlphaEqualImpl(a, b, &a_to_b, &b_to_a);
}

namespace {

inline uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// `bound` maps a binder name to the stack of binding ids it shadows; ids
// are assigned in traversal order, so two alpha-equivalent terms assign
// identical ids to corresponding binders (mirroring AlphaEqualImpl, which
// pairs up binder names child by child).
uint64_t HashExprImpl(const ExprPtr& e,
                      std::unordered_map<std::string, std::vector<uint64_t>>* bound,
                      uint64_t* next_binding_id) {
  uint64_t h = 0x100001b3ull + static_cast<uint64_t>(e->kind());
  switch (e->kind()) {
    case ExprKind::kVar: {
      auto it = bound->find(e->var_name());
      if (it != bound->end() && !it->second.empty()) {
        return HashMix(h, it->second.back());  // bound: hash the binding id
      }
      return HashMix(h, HashString(e->var_name()));  // free: hash the name
    }
    case ExprKind::kBoolConst:
      return HashMix(h, e->bool_const() ? 1 : 0);
    case ExprKind::kNatConst:
      return HashMix(h, e->nat_const());
    case ExprKind::kRealConst: {
      double d = e->real_const();
      if (d == 0.0) d = 0.0;  // +0.0 and -0.0 compare equal
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return HashMix(h, bits);
    }
    case ExprKind::kStrConst:
      return HashMix(h, HashString(e->str_const()));
    case ExprKind::kCmp:
      h = HashMix(h, static_cast<uint64_t>(e->cmp_op()));
      break;
    case ExprKind::kArith:
      h = HashMix(h, static_cast<uint64_t>(e->arith_op()));
      break;
    case ExprKind::kProj:
      h = HashMix(HashMix(h, e->proj_index()), e->proj_arity());
      break;
    case ExprKind::kDim:
    case ExprKind::kIndex:
    case ExprKind::kDense:
      h = HashMix(h, e->rank());
      break;
    case ExprKind::kLiteral:
      return HashMix(h, HashValue(e->literal()));
    case ExprKind::kExternal:
      return HashMix(h, HashString(e->var_name()));
    default:
      break;
  }
  h = HashMix(h, e->binders().size());

  auto child_binders = ChildBinders(*e);
  for (size_t i = 0; i < e->children().size(); ++i) {
    if (child_binders[i].empty()) {
      h = HashMix(h, HashExprImpl(e->child(i), bound, next_binding_id));
    } else {
      // Assign each binder a fresh id for the scope of this child, exactly
      // as AlphaEqualImpl pairs up all binders of the node.
      for (const std::string& b : e->binders()) {
        (*bound)[b].push_back((*next_binding_id)++);
      }
      h = HashMix(h, HashExprImpl(e->child(i), bound, next_binding_id));
      for (const std::string& b : e->binders()) {
        auto it = bound->find(b);
        it->second.pop_back();
        if (it->second.empty()) bound->erase(it);
      }
    }
  }
  return h;
}

}  // namespace

uint64_t HashExpr(const ExprPtr& e) {
  std::unordered_map<std::string, std::vector<uint64_t>> bound;
  uint64_t next_binding_id = 1;
  return HashExprImpl(e, &bound, &next_binding_id);
}

uint64_t ApproxExprBytes(const ExprPtr& e) {
  uint64_t b = sizeof(Expr) + sizeof(ExprPtr);
  switch (e->kind()) {
    case ExprKind::kVar:
    case ExprKind::kExternal:
      b += e->var_name().size();
      break;
    case ExprKind::kStrConst:
      b += e->str_const().size();
      break;
    case ExprKind::kLiteral:
      b += ApproxValueBytes(e->literal());
      break;
    default:
      break;
  }
  for (const std::string& binder : e->binders()) b += binder.size();
  for (const ExprPtr& c : e->children()) b += ApproxExprBytes(c);
  return b;
}

std::vector<ExprPtr> IndexParts(const ExprPtr& idx, size_t k, bool project) {
  if (k == 1) return {idx};
  if (idx->is(ExprKind::kTuple) && idx->children().size() == k) {
    return idx->children();
  }
  std::vector<ExprPtr> parts;
  if (project) {
    for (size_t j = 0; j < k; ++j) parts.push_back(Expr::Proj(j + 1, k, idx));
  }
  return parts;
}

std::optional<uint64_t> NatConstOf(const ExprPtr& e) {
  if (e->is(ExprKind::kNatConst)) return e->nat_const();
  if (e->is(ExprKind::kLiteral) && e->literal().kind() == ValueKind::kNat) {
    return e->literal().nat_value();
  }
  return std::nullopt;
}

}  // namespace aql
