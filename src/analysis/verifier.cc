#include "analysis/verifier.h"

#include <algorithm>
#include <functional>
#include <map>

#include "analysis/affine.h"
#include "base/strings.h"
#include "core/expr_ops.h"
#include "opt/rewriter.h"

namespace aql {
namespace analysis {

namespace {

constexpr size_t kMaxPinpointReplays = 256;  // firing-trace replay budget
constexpr size_t kMaxRemovalRules = 64;      // leave-one-out replay budget

std::string PathString(const std::vector<size_t>& path) {
  if (path.empty()) return "<root>";
  std::string out;
  for (size_t i : path) {
    if (!out.empty()) out += '.';
    out += std::to_string(i);
  }
  return out;
}

// Clipped rendering for messages: large terms would swamp the report.
std::string Snippet(const ExprPtr& e) {
  std::string s = e->ToString();
  if (s.size() > 120) s = s.substr(0, 117) + "...";
  return s;
}

void AddViolation(VerifierReport* report, VerifyPass pass, const std::string& phase,
                  std::string rule, std::string path, std::string message) {
  report->violations.push_back(Violation{pass, phase, std::move(rule),
                                         std::move(path), std::move(message)});
}

// ---- ScopeCheck ----

// Structural well-formedness of one node: the child/binder layout every
// construct must have (core/expr.h's inventory). A rule that rebuilds
// nodes by hand can get this wrong in ways the factories would reject.
std::string ShapeError(const Expr& e) {
  size_t n = e.children().size();
  size_t b = e.binders().size();
  auto want = [&](size_t children, size_t binders) -> std::string {
    if (n == children && b == binders) return "";
    return StrCat(ExprKindName(e.kind()), " node has ", n, " children and ", b,
                  " binders; expected ", children, " and ", binders);
  };
  switch (e.kind()) {
    case ExprKind::kVar:
    case ExprKind::kExternal:
      if (e.var_name().empty()) return "variable with empty name";
      return want(0, 0);
    case ExprKind::kEmptySet:
    case ExprKind::kBoolConst:
    case ExprKind::kNatConst:
    case ExprKind::kRealConst:
    case ExprKind::kStrConst:
    case ExprKind::kBottom:
    case ExprKind::kLiteral:
      return want(0, 0);
    case ExprKind::kLambda:
      return want(1, 1);
    case ExprKind::kApply:
    case ExprKind::kUnion:
    case ExprKind::kCmp:
    case ExprKind::kArith:
    case ExprKind::kSubscript:
      return want(2, 0);
    case ExprKind::kIf:
      return want(3, 0);
    case ExprKind::kSingleton:
    case ExprKind::kGet:
    case ExprKind::kGen:
      return want(1, 0);
    case ExprKind::kBigUnion:
    case ExprKind::kSum:
      return want(2, 1);
    case ExprKind::kTuple:
      if (n < 2) return StrCat("tuple of arity ", n, "; expected >= 2");
      return b == 0 ? "" : "tuple with binders";
    case ExprKind::kProj:
      if (n != 1 || b != 0) return want(1, 0);
      if (e.proj_arity() < 2 || e.proj_index() < 1 || e.proj_index() > e.proj_arity()) {
        return StrCat("projection pi_{", e.proj_index(), ",", e.proj_arity(),
                      "} out of range");
      }
      return "";
    case ExprKind::kTab:
      if (b < 1) return "tabulation with no binders";
      if (n != 1 + b) {
        return StrCat("tabulation of rank ", b, " has ", n,
                      " children; expected ", 1 + b);
      }
      return "";
    case ExprKind::kDim:
    case ExprKind::kIndex:
      if (n != 1 || b != 0) return want(1, 0);
      return e.rank() >= 1 ? "" : "dim/index of rank 0";
    case ExprKind::kDense:
      if (e.rank() < 1) return "dense literal of rank 0";
      if (n < e.rank()) {
        return StrCat("dense literal of rank ", e.rank(), " has only ", n,
                      " children");
      }
      return "";
  }
  return "";
}

struct ScopeWalker {
  const std::set<std::string>* allowed;
  const std::string* phase;
  VerifierReport* report;
  size_t reported = 0;

  void Walk(const ExprPtr& e, std::vector<std::string>* bound,
            std::vector<size_t>* path) {
    if (reported >= 16) return;  // one broken rule floods; cap the noise
    std::string shape = ShapeError(*e);
    if (!shape.empty()) {
      AddViolation(report, VerifyPass::kScope, *phase, "", PathString(*path),
                   std::move(shape));
      ++reported;
    }
    for (const std::string& b : e->binders()) {
      if (b.empty()) {
        AddViolation(report, VerifyPass::kScope, *phase, "", PathString(*path),
                     StrCat("empty binder name on ", ExprKindName(e->kind())));
        ++reported;
      }
    }
    if (e->is(ExprKind::kVar)) {
      const std::string& name = e->var_name();
      bool is_bound =
          std::find(bound->rbegin(), bound->rend(), name) != bound->rend();
      if (!is_bound && !allowed->count(name)) {
        AddViolation(report, VerifyPass::kScope, *phase, "", PathString(*path),
                     StrCat("unbound variable ", name,
                            " (not free in the pre-phase term)"));
        ++reported;
      }
      return;
    }
    auto child_binders = ChildBinders(*e);
    for (size_t i = 0; i < e->children().size(); ++i) {
      for (const std::string& b : child_binders[i]) bound->push_back(b);
      path->push_back(i);
      Walk(e->child(i), bound, path);
      path->pop_back();
      bound->resize(bound->size() - child_binders[i].size());
    }
  }
};

// ---- TypePreservation ----

// One-way matching: `specific` must equal `general` after substituting
// general's type variables. Bindings must be consistent.
bool MatchGeneral(const TypePtr& general, const TypePtr& specific,
                  std::map<uint64_t, TypePtr>* binding) {
  if (general->is(TypeKind::kVar)) {
    auto [it, inserted] = binding->emplace(general->var_id(), specific);
    return inserted || Type::Equals(it->second, specific);
  }
  if (specific->is(TypeKind::kVar)) return false;  // would specialize
  if (general->kind() != specific->kind()) return false;
  switch (general->kind()) {
    case TypeKind::kBool:
    case TypeKind::kNat:
    case TypeKind::kReal:
    case TypeKind::kString:
      return true;
    case TypeKind::kBase:
      return general->base_name() == specific->base_name();
    case TypeKind::kProduct: {
      if (general->fields().size() != specific->fields().size()) return false;
      for (size_t i = 0; i < general->fields().size(); ++i) {
        if (!MatchGeneral(general->fields()[i], specific->fields()[i], binding)) {
          return false;
        }
      }
      return true;
    }
    case TypeKind::kSet:
      return MatchGeneral(general->elem(), specific->elem(), binding);
    case TypeKind::kArray:
      return general->rank() == specific->rank() &&
             MatchGeneral(general->elem(), specific->elem(), binding);
    case TypeKind::kArrow:
      return MatchGeneral(general->from(), specific->from(), binding) &&
             MatchGeneral(general->to(), specific->to(), binding);
    case TypeKind::kVar:
      return false;  // handled above
  }
  return false;
}

// ---- NormalFormCheck helpers ----

// One extra sweep of the phase's rules over `post`: a true fixpoint fires
// nothing. Reports the first rule that still applies and where.
bool StillFires(const ExprPtr& post, const std::vector<Rule>& rules,
                const RewriteOptions& rewrite_options, std::string* rule,
                std::string* site) {
  bool fired = false;
  RewriteOptions opts = rewrite_options;
  opts.max_passes = 1;
  opts.on_firing = [&](const std::string& r, const ExprPtr& before, const ExprPtr&) {
    if (!fired && rule) {
      *rule = r;
      if (site) *site = Snippet(before);
    }
    fired = true;
  };
  RewriteFixpoint(post, rules, opts, nullptr);
  return fired;
}

// Mirrors rules_constraint.cc's ReplaceCheck: is there a residual
// `var < bound` check, alpha-equal to the one a tabulation/gen binder
// guarantees, that the §5 elimination rules should have removed?
bool HasResidualCheck(const ExprPtr& e, const ExprPtr& target,
                      const std::set<std::string>& target_fv) {
  if (AlphaEqual(e, target)) return true;
  auto child_binders = ChildBinders(*e);
  for (size_t i = 0; i < e->children().size(); ++i) {
    bool captured = false;
    for (const std::string& b : child_binders[i]) {
      if (target_fv.count(b)) captured = true;
    }
    if (captured) continue;  // the rules stop here too (side condition)
    if (HasResidualCheck(e->child(i), target, target_fv)) return true;
  }
  return false;
}

struct NormalFormWalker {
  const std::string* phase;
  VerifierReport* report;
  bool check_constraints = false;
  size_t reported = 0;

  void Walk(const ExprPtr& e, std::vector<size_t>* path) {
    if (reported >= 16) return;
    Check(e, *path);
    for (size_t i = 0; i < e->children().size(); ++i) {
      path->push_back(i);
      Walk(e->child(i), path);
      path->pop_back();
    }
  }

  void Flag(const std::vector<size_t>& path, std::string message) {
    AddViolation(report, VerifyPass::kNormalForm, *phase, "", PathString(path),
                 std::move(message));
    ++reported;
  }

  void Check(const ExprPtr& e, const std::vector<size_t>& path) {
    switch (e->kind()) {
      case ExprKind::kIf:
        if (e->child(0)->is(ExprKind::kBoolConst)) {
          Flag(path, "constant conditional survived normalization");
        }
        break;
      case ExprKind::kProj:
        if (e->child(0)->is(ExprKind::kTuple) &&
            e->child(0)->children().size() == e->proj_arity()) {
          Flag(path, "projection of a literal tuple survived normalization");
        }
        break;
      case ExprKind::kUnion:
        if (e->child(0)->is(ExprKind::kEmptySet) ||
            e->child(1)->is(ExprKind::kEmptySet)) {
          Flag(path, "union with {} operand survived normalization");
        }
        break;
      case ExprKind::kBigUnion: {
        const ExprPtr& src = e->child(1);
        if (src->is(ExprKind::kBigUnion)) {
          Flag(path,
               "comprehension-of-comprehension vertical left unfused");
        } else if (src->is(ExprKind::kUnion) || src->is(ExprKind::kIf) ||
                   src->is(ExprKind::kEmptySet)) {
          Flag(path, StrCat("big union over ", ExprKindName(src->kind()),
                            " survived normalization"));
        }
        if (check_constraints) CheckBinderGuards(e, path);
        break;
      }
      case ExprKind::kSum:
        if (check_constraints) CheckBinderGuards(e, path);
        break;
      case ExprKind::kTab:
        if (check_constraints) CheckBinderGuards(e, path);
        break;
      default:
        break;
    }
  }

  // Post-constraint-elimination: no bound check the §5 rules target may
  // remain (redundant tabulation/gen binder guards).
  void CheckBinderGuards(const ExprPtr& e, const std::vector<size_t>& path) {
    auto residual = [&](const ExprPtr& body, const std::string& var,
                        const ExprPtr& bound) {
      ExprPtr target = Expr::Cmp(CmpOp::kLt, Expr::Var(var), bound);
      std::set<std::string> fv = FreeVars(bound);
      fv.insert(var);
      if (HasResidualCheck(body, target, fv)) {
        Flag(path, StrCat("provably-redundant bound check ", Snippet(target),
                          " survived constraint elimination"));
      }
    };
    if (e->is(ExprKind::kTab)) {
      for (size_t j = 0; j < e->tab_rank(); ++j) {
        residual(e->tab_body(), e->binders()[j], e->tab_bound(j));
      }
    } else if (e->child(1)->is(ExprKind::kGen)) {
      residual(e->child(0), e->binder(), e->child(1)->child(0));
    }
  }
};

void MergeStats(const RewriteStats& in, RewriteStats* out) {
  if (!out) return;
  for (const auto& [rule, count] : in.firings) out->firings[rule] += count;
  out->passes += in.passes;
  out->hit_budget |= in.hit_budget;
}

}  // namespace

const char* VerifyPassName(VerifyPass pass) {
  switch (pass) {
    case VerifyPass::kScope: return "scope";
    case VerifyPass::kTypePreservation: return "type-preservation";
    case VerifyPass::kNormalForm: return "normal-form";
    case VerifyPass::kBounds: return "bounds";
    case VerifyPass::kAbsint: return "absint";
    case VerifyPass::kAffine: return "affine";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::string out = StrCat("[", VerifyPassName(pass), "] phase ", phase);
  if (!rule.empty()) out += StrCat(", rule ", rule);
  out += StrCat(", at ", path, ": ", message);
  return out;
}

std::string VerifierReport::ToString() const {
  std::string out;
  if (violations.empty()) {
    out = StrCat("IR verification: OK (", phases_checked.size(),
                 " phase(s) checked)\n");
  } else {
    out = StrCat("IR verification: ", violations.size(), " violation(s)\n");
    for (const Violation& v : violations) out += StrCat("  ", v.ToString(), "\n");
  }
  for (const std::string& p : phases_checked) out += StrCat("  phase ", p, "\n");
  out += bounds.ToString();
  if (!absint.empty()) out += StrCat("absint: ", absint, "\n");
  return out;
}

void ScopeCheck(const ExprPtr& e, const std::set<std::string>& allowed_free,
                const std::string& phase, VerifierReport* report) {
  ScopeWalker walker{&allowed_free, &phase, report};
  std::vector<std::string> bound;
  std::vector<size_t> path;
  walker.Walk(e, &bound, &path);
}

bool TypeGeneralizes(const TypePtr& post, const TypePtr& pre) {
  std::map<uint64_t, TypePtr> binding;
  return MatchGeneral(post, pre, &binding);
}

Verifier::Verifier(TypeChecker::ExternalLookup external_lookup)
    : Verifier(std::move(external_lookup), Options{}) {}

Verifier::Verifier(TypeChecker::ExternalLookup external_lookup, Options options)
    : external_lookup_(std::move(external_lookup)), options_(options) {}

TypePtr Verifier::TryType(const ExprPtr& e) const {
  TypeChecker checker(external_lookup_);
  Result<TypePtr> r = checker.Check(e);
  return r.ok() ? *r : nullptr;
}

std::string Verifier::PinpointByTrace(
    const std::vector<Rule>& rules, const RewriteOptions& rewrite_options,
    const ExprPtr& pre, const std::function<bool(const ExprPtr&)>& broken) const {
  std::vector<std::string> trace;
  RewriteOptions topts = rewrite_options;
  topts.on_firing = [&trace](const std::string& rule, const ExprPtr&,
                             const ExprPtr&) { trace.push_back(rule); };
  RewriteFixpoint(pre, rules, topts, nullptr);
  size_t limit = std::min(trace.size(), kMaxPinpointReplays);
  for (size_t k = 1; k <= limit; ++k) {
    RewriteOptions bopts = rewrite_options;
    bopts.max_firings = k;
    ExprPtr mid = RewriteFixpoint(pre, rules, bopts, nullptr);
    if (broken(mid)) return trace[k - 1];
  }
  return "";
}

std::string Verifier::PinpointByRemoval(
    const std::vector<Rule>& rules, const RewriteOptions& rewrite_options,
    const ExprPtr& pre, const std::function<bool(const ExprPtr&)>& broken) const {
  if (rules.size() > kMaxRemovalRules) return "";
  for (size_t i = 0; i < rules.size(); ++i) {
    std::vector<Rule> reduced;
    reduced.reserve(rules.size() - 1);
    for (size_t j = 0; j < rules.size(); ++j) {
      if (j != i) reduced.push_back(rules[j]);
    }
    ExprPtr out = RewriteFixpoint(pre, reduced, rewrite_options, nullptr);
    if (!broken(out)) return rules[i].name;
  }
  return "";
}

void Verifier::VerifyPhase(const std::string& phase, const std::vector<Rule>& rules,
                           const RewriteOptions& rewrite_options, const ExprPtr& pre,
                           const ExprPtr& post, bool hit_budget,
                           VerifierReport* report) {
  size_t before = report->violations.size();

  // ---- 1. ScopeCheck ----
  if (options_.scope) {
    std::set<std::string> allowed = FreeVars(pre);
    size_t scope_before = report->violations.size();
    ScopeCheck(post, allowed, phase, report);
    if (report->violations.size() > scope_before && options_.pinpoint) {
      std::string rule = PinpointByTrace(
          rules, rewrite_options, pre, [&allowed](const ExprPtr& mid) {
            VerifierReport probe;
            ScopeCheck(mid, allowed, "", &probe);
            return !probe.ok();
          });
      for (size_t i = scope_before; i < report->violations.size(); ++i) {
        report->violations[i].rule = rule;
      }
    }
  }

  // ---- 2. TypePreservation ----
  // Needs a typed baseline; deliberately open or untypeable inputs (some
  // rewriter unit tests drive the optimizer on fragments) skip the pass.
  if (options_.types) {
    TypePtr pre_type = TryType(pre);
    if (pre_type) {
      // `term` may generalize but not specialize or change pre's type. The
      // two are joined in `if true then term else pre` before typing: the
      // checker defaults each unconstrained numeric variable to nat, which
      // would misreport a generalized term — a real-typed subterm folded
      // to ⊥ under a Sum types as [[nat]] on its own — as a change. The
      // joined type must be pre's own type (the join only specializes).
      auto admits_pre_type = [&](const ExprPtr& term) {
        TypePtr joined = TryType(Expr::If(Expr::BoolConst(true), term, pre));
        return joined != nullptr && TypeGeneralizes(joined, pre_type);
      };
      TypeChecker checker(external_lookup_);
      Result<TypePtr> post_type = checker.Check(post);
      bool bad = !post_type.ok() || !admits_pre_type(post);
      if (bad) {
        std::string message =
            post_type.ok()
                ? StrCat("type changed from ", pre_type->ToString(), " to ",
                         (*post_type)->ToString())
                : StrCat("term no longer typechecks: ",
                         post_type.status().ToString());
        std::string rule;
        if (options_.pinpoint) {
          rule = PinpointByTrace(
              rules, rewrite_options, pre,
              [&admits_pre_type](const ExprPtr& mid) { return !admits_pre_type(mid); });
        }
        AddViolation(report, VerifyPass::kTypePreservation, phase, std::move(rule),
                     "<root>", std::move(message));
      }
    }
  }

  // ---- 3. NormalFormCheck ----
  // A phase that hit its rewrite budget never promised a normal form.
  if (options_.normal_form && !hit_budget) {
    std::string still_rule, site;
    if (StillFires(post, rules, rewrite_options, &still_rule, &site)) {
      // Fixpoint brokenness is relative to the rule base that ran — a
      // leave-one-out replay must re-check against the *reduced* base
      // (the removed rule would keep firing on the clean output), so the
      // generic PinpointByRemoval does not fit; scan explicitly.
      std::string culprit;
      if (options_.pinpoint && rules.size() <= kMaxRemovalRules) {
        for (size_t i = 0; i < rules.size() && culprit.empty(); ++i) {
          std::vector<Rule> reduced;
          reduced.reserve(rules.size() - 1);
          for (size_t j = 0; j < rules.size(); ++j) {
            if (j != i) reduced.push_back(rules[j]);
          }
          ExprPtr out = RewriteFixpoint(pre, reduced, rewrite_options, nullptr);
          if (!StillFires(out, reduced, rewrite_options, nullptr, nullptr)) {
            culprit = rules[i].name;
          }
        }
      }
      AddViolation(report, VerifyPass::kNormalForm, phase, std::move(culprit),
                   "<root>",
                   StrCat("not a fixpoint: rule ", still_rule,
                          " still applies at ", site));
    }
    if (phase == "normalization" || phase == "constraint-elimination") {
      NormalFormWalker walker{&phase, report,
                              phase == "constraint-elimination"};
      std::vector<size_t> path;
      walker.Walk(post, &path);
    }
  }

  // ---- 5. AbsintCheck ----
  // A sound rewrite preserves the value, so the abstract analyses of the
  // pre- and post-phase terms may not make contradictory claims.
  if (options_.absint) {
    AbsVal pre_v = AnalyzeAbs(pre);
    AbsVal post_v = AnalyzeAbs(post);
    std::string why;
    if (AbsContradicts(pre_v, post_v, &why)) {
      std::string rule;
      if (options_.pinpoint) {
        rule = PinpointByTrace(rules, rewrite_options, pre,
                               [&pre_v](const ExprPtr& mid) {
                                 return AbsContradicts(pre_v, AnalyzeAbs(mid),
                                                       nullptr);
                               });
      }
      AddViolation(report, VerifyPass::kAbsint, phase, std::move(rule), "<root>",
                   StrCat("abstract values contradict (", why, "): pre ",
                          pre_v.ToString(), " vs post ", post_v.ToString()));
    }
  }

  // ---- 6. AffineCheck ----
  // Affine facts must refine, never widen, across phases: a rewrite may
  // sharpen a constant or interval claim but never relax one — relaxing
  // means the phase changed the value, or destroyed a proof a planner
  // downstream already consumed (pushdown strides, unchecked kernels).
  if (options_.affine) {
    AffineAbsVal pre_v = AnalyzeAffineAbs(pre);
    AffineAbsVal post_v = AnalyzeAffineAbs(post);
    std::string why;
    if (AffineWidens(pre_v, post_v, &why)) {
      std::string rule;
      if (options_.pinpoint) {
        rule = PinpointByTrace(rules, rewrite_options, pre,
                               [&pre_v](const ExprPtr& mid) {
                                 return AffineWidens(pre_v, AnalyzeAffineAbs(mid),
                                                     nullptr);
                               });
      }
      AddViolation(report, VerifyPass::kAffine, phase, std::move(rule), "<root>",
                   StrCat("affine facts widened (", why, "): pre ",
                          pre_v.ToString(), " vs post ", post_v.ToString()));
    }
  }

  report->phases_checked.push_back(
      StrCat(phase, ": ",
             report->violations.size() == before ? "ok" : "VIOLATIONS"));
}

ExprPtr Verifier::OptimizeVerified(const Optimizer& opt, const ExprPtr& e,
                                   RewriteStats* stats, VerifierReport* report) {
  ExprPtr cur = e;
  for (size_t i = 0; i < opt.num_phases(); ++i) {
    RewriteStats phase_stats;
    ExprPtr next = opt.RunPhase(i, cur, &phase_stats);
    MergeStats(phase_stats, stats);
    // Pass-budget exhaustion (all sweeps used, still changing) voids the
    // normal-form contract just like the node budget does.
    bool budget = phase_stats.hit_budget ||
                  phase_stats.passes >= opt.config().rewrite.max_passes;
    VerifyPhase(opt.phase_name(i), opt.phase_rules(i), opt.config().rewrite, cur,
                next, budget, report);
    cur = next;
  }
  if (options_.bounds) report->bounds = AnalyzeBounds(cur);
  if (options_.absint) report->absint = AnalyzeAbs(cur).ToString();
  return cur;
}

}  // namespace analysis
}  // namespace aql
