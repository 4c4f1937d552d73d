// Code motion (paper §5: "Later phases include I/O optimizations and code
// motion"): loop-invariant hoisting.
//
// A loop body that recomputes an expensive, binder-independent expression
// per iteration — per element of a tabulation, per member of a big union
// or sum — is rewritten to evaluate it once:
//
//   [[ ... S ... | i < n ]]   ~>   let v = S in [[ ... v ... | i < n ]]
//
// for maximal subexpressions S that (a) do not mention the loop binders,
// (b) are not atomic, (c) actually iterate (LoopFree is false), and
// (d) are provably error-free — hoisting evaluates S even when the loop
// would have run zero iterations (or, for tabulations, would have stored
// the error at a single point), so an erroring S would make the program
// less defined. OptimizerConfig::aggressive_code_motion drops gate (d)
// for users who accept error-timing changes in exchange for speed.
//
// All alpha-equal occurrences of S anywhere in the node (body and bounds)
// share the one binding, so the rule doubles as loop-level common
// subexpression elimination.
//
// One exception keeps §5's index loops intact: a `gen(e)` that is the
// source of a Sum stays in place (its argument `e` may still move). A Sum
// over `gen(e)` is a counted loop in both the exec backend and the typed
// kernels (docs/EXEC.md §3) — hoisting the gen would materialize the
// index set once and leave the sum ranging over a let-bound variable,
// which neither the kernels nor the zone-map fold can read as a range.
// Gens feeding big unions are ordinary candidates.

#include <atomic>
#include <set>

#include "core/expr_ops.h"
#include "opt/analysis.h"
#include "opt/rules.h"

namespace aql {

namespace {

bool IsLoop(const ExprPtr& e) {
  return e->is(ExprKind::kTab) || e->is(ExprKind::kBigUnion) || e->is(ExprKind::kSum);
}

// Child `i` of `e` is the `gen(n)` source of a Sum: a counted loop that
// stays in place (only `n` may be hoisted).
bool IsSumGen(const Expr& e, size_t i) {
  return e.is(ExprKind::kSum) && i == 1 && e.child(1)->is(ExprKind::kGen);
}

bool IsHoistCandidate(const ExprPtr& e, const std::set<std::string>& loop_binders,
                      bool aggressive) {
  switch (e->kind()) {
    case ExprKind::kVar:
    case ExprKind::kBoolConst:
    case ExprKind::kNatConst:
    case ExprKind::kRealConst:
    case ExprKind::kStrConst:
    case ExprKind::kLiteral:
    case ExprKind::kBottom:
    case ExprKind::kEmptySet:
    case ExprKind::kLambda:  // a value; nothing to save
      return false;
    default:
      break;
  }
  if (LoopFree(e)) return false;  // cheap: duplication is O(1) per use
  if (!aggressive && !ErrorFree(e)) return false;
  for (const std::string& b : loop_binders) {
    if (OccursFree(e, b)) return false;
  }
  return true;
}

// Collects maximal hoistable subtrees of `e`, outermost first. Does not
// descend into a candidate (it is hoisted whole). `blocked` accumulates
// every binder crossed on the way down — the loop's own binders plus any
// lambda/loop binder inside the body — since a candidate mentioning one of
// those cannot move above its binding site.
void CollectCandidates(const ExprPtr& e, std::set<std::string>* blocked,
                       bool aggressive, std::vector<ExprPtr>* out) {
  if (IsHoistCandidate(e, *blocked, aggressive)) {
    for (const ExprPtr& seen : *out) {
      if (AlphaEqual(seen, e)) return;
    }
    out->push_back(e);
    return;
  }
  auto child_binders = ChildBinders(*e);
  for (size_t i = 0; i < e->children().size(); ++i) {
    if (IsSumGen(*e, i)) {
      CollectCandidates(e->child(1)->child(0), blocked, aggressive, out);
      continue;
    }
    std::vector<std::string> added;
    for (const std::string& b : child_binders[i]) {
      if (blocked->insert(b).second) added.push_back(b);
    }
    CollectCandidates(e->child(i), blocked, aggressive, out);
    for (const std::string& b : added) blocked->erase(b);
  }
}

// Replaces alpha-equal occurrences of `target` with `replacement`,
// skipping scopes that rebind a free variable of the target and the gen
// sources of Sums (a big union's `gen(n)` candidate must not turn a Sum
// over the same range into a sum over a variable).
ExprPtr ReplaceAll(const ExprPtr& e, const ExprPtr& target, const ExprPtr& replacement,
                   const std::set<std::string>& target_fv) {
  if (AlphaEqual(e, target)) return replacement;
  if (e->children().empty()) return e;
  auto child_binders = ChildBinders(*e);
  std::vector<ExprPtr> children;
  children.reserve(e->children().size());
  bool changed = false;
  for (size_t i = 0; i < e->children().size(); ++i) {
    if (IsSumGen(*e, i)) {
      const ExprPtr& gen = e->child(1);
      ExprPtr n = ReplaceAll(gen->child(0), target, replacement, target_fv);
      ExprPtr nc = n.get() == gen->child(0).get() ? gen : gen->WithChildren({n});
      changed |= (nc.get() != gen.get());
      children.push_back(std::move(nc));
      continue;
    }
    bool captured = false;
    for (const std::string& b : child_binders[i]) {
      if (target_fv.count(b)) {
        captured = true;
        break;
      }
    }
    ExprPtr nc = captured ? e->child(i)
                          : ReplaceAll(e->child(i), target, replacement, target_fv);
    changed |= (nc.get() != e->child(i).get());
    children.push_back(std::move(nc));
  }
  return changed ? e->WithChildren(std::move(children)) : e;
}

// Every name occurring in e, bound or free: fresh hoist variables must
// avoid them all, or an inner hoist's binder would capture an outer one.
void CollectAllNames(const ExprPtr& e, std::set<std::string>* out) {
  if (e->is(ExprKind::kVar)) out->insert(e->var_name());
  for (const std::string& b : e->binders()) out->insert(b);
  for (const ExprPtr& c : e->children()) CollectAllNames(c, out);
}

ExprPtr RuleHoistLoopInvariant(const ExprPtr& e, bool aggressive,
                               const CostGate& gate) {
  if (!IsLoop(e)) return nullptr;
  std::set<std::string> blocked(e->binders().begin(), e->binders().end());
  std::vector<ExprPtr> candidates;
  CollectCandidates(e->child(0), &blocked, aggressive, &candidates);
  if (candidates.empty()) return nullptr;

  std::set<std::string> avoid;
  CollectAllNames(e, &avoid);
  // A process-wide counter keeps hoist variables unique across separate
  // firings too (nested loops are rewritten in separate engine steps).
  static std::atomic<uint64_t> counter{0};

  ExprPtr node = e;
  std::vector<std::pair<std::string, ExprPtr>> lets;
  for (const ExprPtr& s : candidates) {
    std::string v;
    do {
      v = "cm$" + std::to_string(counter.fetch_add(1));
    } while (avoid.count(v));
    avoid.insert(v);
    std::set<std::string> s_fv = FreeVars(s);
    ExprPtr replaced = ReplaceAll(node, s, Expr::Var(v), s_fv);
    if (replaced.get() == node.get()) continue;  // nothing replaceable
    node = std::move(replaced);
    lets.emplace_back(v, s);
  }
  if (lets.empty()) return nullptr;
  for (size_t i = lets.size(); i-- > 0;) {
    node = Expr::Let(lets[i].first, lets[i].second, node);
  }
  // Materializing pays only when the loop actually repeats the saved
  // work: with a cost gate installed, a provably single-trip (or empty)
  // loop keeps its body inline rather than spending a let frame.
  if (gate && !gate("hoist_loop_invariant", e, node)) return nullptr;
  return node;
}

// inline_let_cost — the materialize-vs-inline decision taken the other
// way. Beta (rules_nrc.cc) declines to inline a binding whose argument is
// non-atomic and used under a loop; that policy is syntactic and cannot
// see trip counts. When the cost model proves the loop around the use
// iterates at most once, re-inlining saves the frame. Purely cost-driven:
// never fires without a gate, and the gate's strict-improvement contract
// makes a hoist/inline cycle impossible (each firing shrinks the
// estimate; undoing a firing would have to grow it back).
ExprPtr RuleInlineLetCost(const ExprPtr& e, const CostGate& gate) {
  if (!gate) return nullptr;
  if (!e->is(ExprKind::kApply)) return nullptr;
  const ExprPtr& fn = e->child(0);
  if (!fn->is(ExprKind::kLambda)) return nullptr;
  const ExprPtr& arg = e->child(1);
  const ExprPtr& body = fn->child(0);
  ExprPtr inlined = Substitute(body, fn->binder(), arg);
  if (!gate("inline_let_cost", e, inlined)) return nullptr;
  return inlined;
}

}  // namespace

std::vector<Rule> CodeMotionRules(bool aggressive, const CostGate& gate) {
  return {
      {"hoist_loop_invariant",
       [aggressive, gate](const ExprPtr& e) {
         return RuleHoistLoopInvariant(e, aggressive, gate);
       }},
      {"inline_let_cost",
       [gate](const ExprPtr& e) { return RuleInlineLetCost(e, gate); }},
  };
}

}  // namespace aql
