#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <utility>

#include "analysis/affine.h"
#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {
namespace analysis {

namespace {

struct NodeRec {
  std::vector<size_t> path;
  ExprPtr expr;
  AbsVal val;
  SymEnv env;  // captured only where a check needs it (guards)
};

bool IsPathPrefix(const std::vector<size_t>& a, const std::vector<size_t>& b) {
  if (a.size() >= b.size()) return false;
  return std::equal(a.begin(), a.end(), b.begin());
}

// Constant index components of a subscript, when every component is a
// constant; empty otherwise.
std::vector<uint64_t> ConstIndexParts(const ExprPtr& idx, size_t k) {
  std::vector<uint64_t> out;
  for (const ExprPtr& p : IndexParts(idx, k, /*project=*/false)) {
    std::optional<uint64_t> n = NatConstOf(p);
    if (!n) return {};
    out.push_back(*n);
  }
  return out;
}

class Linter {
 public:
  LintReport Run(const ExprPtr& e) {
    CoreDomains domain;
    domain.set_observer([this](const ExprPtr& node, const std::vector<size_t>& path,
                               const AbsVal& val, const SymEnv& env) {
      NodeRec rec{path, node, val, SymEnv{}};
      if (node->is(ExprKind::kIf) || node->is(ExprKind::kSubscript)) rec.env = env;
      by_path_[AbsPathString(path)] = recs_.size();
      recs_.push_back(std::move(rec));
    });
    AbsInterp<CoreDomains> interp(&domain);
    interp.Analyze(e);

    CheckAlwaysBottom();
    {
      std::vector<size_t> path;
      std::map<std::string, size_t> in_scope;
      CheckShadowedBinders(e, &path, &in_scope);
    }
    for (const NodeRec& rec : recs_) {
      switch (rec.expr->kind()) {
        case ExprKind::kSubscript:
          CheckSubscript(rec);
          break;
        case ExprKind::kTab:
          CheckTab(rec);
          break;
        case ExprKind::kBigUnion:
        case ExprKind::kSum:
          CheckLoopBinder(rec);
          break;
        case ExprKind::kIf:
          CheckGuard(rec);
          break;
        default:
          break;
      }
    }

    std::stable_sort(report_.warnings.begin(), report_.warnings.end(),
                     [](const LintWarning& a, const LintWarning& b) {
                       return a.path < b.path;
                     });
    return std::move(report_);
  }

 private:
  void Warn(const NodeRec& rec, std::string code, std::string message) {
    report_.warnings.push_back(
        {std::move(code), AbsPathString(rec.path), std::move(message)});
  }

  void WarnAt(const std::vector<size_t>& path, std::string code,
              std::string message) {
    report_.warnings.push_back(
        {std::move(code), AbsPathString(path), std::move(message)});
  }

  // Scope-tracking walk over every binder-introducing construct (tab,
  // comprehensions, lambdas — `let` desugars to Apply(Lambda)): an inner
  // binder re-introducing a name already in scope makes the outer binding
  // unreachable from the inner body, which in handwritten queries is
  // almost always an index-variable slip (`[[ [[a!(i,i)|i<n]] | i<m ]]`).
  // `in_scope` counts live bindings per name so unwinding is exact even
  // for repeated shadowing.
  void CheckShadowedBinders(const ExprPtr& e, std::vector<size_t>* path,
                            std::map<std::string, size_t>* in_scope) {
    const std::vector<std::vector<std::string>> child_binders = ChildBinders(*e);
    for (size_t i = 0; i < e->children().size(); ++i) {
      const std::vector<std::string>* intro =
          i < child_binders.size() ? &child_binders[i] : nullptr;
      if (intro != nullptr) {
        for (const std::string& b : *intro) {
          if ((*in_scope)[b] > 0) {
            // Reported at the construct that introduces the inner binder
            // (matching unused-binder), not at the body it scopes over.
            WarnAt(*path, "shadowed-binder",
                   StrCat("binder \\", b, " shadows an enclosing binder of ",
                          "the same name; the outer \\", b,
                          " is unreachable here"));
          }
          ++(*in_scope)[b];
        }
      }
      path->push_back(i);
      CheckShadowedBinders(e->child(i), path, in_scope);
      path->pop_back();
      if (intro != nullptr) {
        for (const std::string& b : *intro) --(*in_scope)[b];
      }
    }
  }

  // Topmost subexpressions the definedness domain proves always-⊥. An
  // explicit ⊥ node is the optimizer's own artifact (bound-check guards),
  // not a user mistake, so only computed ⊥ counts — except at the root:
  // when the whole plan folded to ⊥ (e.g. `1 / 0` after constant folding),
  // the artifact IS the user's program, and hiding it would mean the lint
  // goes silent exactly when the query can never produce a value.
  void CheckAlwaysBottom() {
    std::vector<const NodeRec*> candidates;
    for (const NodeRec& rec : recs_) {
      const bool explicit_bottom =
          rec.expr->is(ExprKind::kBottom) ||
          (rec.expr->is(ExprKind::kLiteral) && rec.expr->literal().is_bottom());
      if (rec.val.def.whole == Definedness::kBottom &&
          (!explicit_bottom || rec.path.empty())) {
        candidates.push_back(&rec);
      }
    }
    for (const NodeRec* rec : candidates) {
      bool topmost = std::none_of(
          candidates.begin(), candidates.end(), [&](const NodeRec* other) {
            return other != rec && IsPathPrefix(other->path, rec->path);
          });
      if (!topmost) continue;
      // The dedicated oob-subscript check reports constant subscripts
      // with a sharper message.
      if (rec->expr->is(ExprKind::kSubscript) && !StaticOob(*rec).empty()) continue;
      Warn(*rec, "always-bottom",
           StrCat(ExprKindName(rec->expr->kind()),
                  " expression always evaluates to \xE2\x8A\xA5"));
    }
  }

  // "index 5 >= extent 3 in dimension 1", or "" when not statically OOB.
  std::string StaticOob(const NodeRec& rec) {
    const std::string arr_key = AbsPathString(rec.path) == "<root>"
                                    ? "0"
                                    : AbsPathString(rec.path) + ".0";
    auto it = by_path_.find(arr_key);
    if (it == by_path_.end()) return "";
    const AbsVal& arr = recs_[it->second].val;
    if (arr.shape.kind != ShapeVal::Kind::kArray) return "";
    size_t k = arr.shape.extents.size();
    std::vector<uint64_t> idx = ConstIndexParts(rec.expr->child(1), k);
    if (idx.size() != k) return "";
    for (size_t j = 0; j < k; ++j) {
      if (arr.shape.extents[j].kind == Extent::Kind::kConst &&
          idx[j] >= arr.shape.extents[j].value) {
        return StrCat("index ", idx[j], " >= extent ", arr.shape.extents[j].value,
                      " in dimension ", j + 1);
      }
    }
    return "";
  }

  void CheckSubscript(const NodeRec& rec) {
    std::string oob = StaticOob(rec);
    if (!oob.empty()) {
      Warn(rec, "oob-subscript", StrCat("subscript is always out of bounds: ", oob));
    }
    CheckAffineParts(rec, /*report_oob=*/oob.empty());
  }

  // Relational checks on each index component (analysis/affine.h):
  //   affine-oob-subscript  the component's affine interval lies entirely
  //                         at or beyond a constant extent — every
  //                         iteration is out of bounds, which the
  //                         const-only StaticOob above cannot see once a
  //                         binder is involved (`a!(i+5)` under i<3);
  //   degenerate-stride     the component mentions a loop binder but is
  //                         provably one constant (`a!(i-i)`, `a!(0*i)`) —
  //                         the loop re-reads a single cell, almost always
  //                         an index-arithmetic slip.
  void CheckAffineParts(const NodeRec& rec, bool report_oob) {
    const ExprPtr& idx = rec.expr->child(1);
    std::vector<ExprPtr> parts;
    if (idx->is(ExprKind::kTuple)) {
      for (const ExprPtr& c : idx->children()) parts.push_back(c);
    } else {
      parts.push_back(idx);
    }
    const AbsVal* arr = nullptr;
    const std::string arr_key = AbsPathString(rec.path) == "<root>"
                                    ? "0"
                                    : AbsPathString(rec.path) + ".0";
    auto it = by_path_.find(arr_key);
    if (it != by_path_.end()) arr = &recs_[it->second].val;
    const bool extents_known =
        arr != nullptr && arr->shape.kind == ShapeVal::Kind::kArray &&
        arr->shape.extents.size() == parts.size();
    for (size_t j = 0; j < parts.size(); ++j) {
      const AffineVal v = AffineOf(parts[j], rec.env);
      bool mentions_binder = false;
      for (const SymFact& f : rec.env.facts) {
        if (OccursFree(parts[j], f.var)) {
          mentions_binder = true;
          break;
        }
      }
      if (v.IsConst() && mentions_binder) {
        Warn(rec, "degenerate-stride",
             StrCat("index component ", j + 1, " mentions a loop binder but is ",
                    "provably the constant ", v.c0,
                    " on every iteration (stride 0)"));
      }
      if (report_oob && extents_known && v.bounded && !v.IsConst() &&
          arr->shape.extents[j].kind == Extent::Kind::kConst &&
          v.lo >= arr->shape.extents[j].value) {
        Warn(rec, "affine-oob-subscript",
             StrCat("index component ", j + 1, " is provably out of bounds: ",
                    v.ToString(), " vs extent ", arr->shape.extents[j].value,
                    " in dimension ", j + 1));
      }
    }
  }

  void CheckTab(const NodeRec& rec) {
    if (rec.val.card.lo == 0 && rec.val.card.hi == 0) {
      Warn(rec, "empty-tab", "tabulation bounds make this the empty array");
      return;
    }
    for (size_t j = 0; j < rec.expr->tab_rank(); ++j) {
      const std::string& b = rec.expr->binders()[j];
      if (!OccursFree(rec.expr->tab_body(), b)) {
        Warn(rec, "unused-binder",
             StrCat("tabulation binder \\", b,
                    " is never read by the body (constant broadcast?)"));
      }
    }
  }

  void CheckLoopBinder(const NodeRec& rec) {
    const std::string& b = rec.expr->binder();
    if (!OccursFree(rec.expr->child(0), b)) {
      Warn(rec, "unused-binder",
           StrCat("comprehension binder \\", b, " is never read by the body"));
    }
  }

  void CheckGuard(const NodeRec& rec) {
    const ExprPtr& e = rec.expr;
    if (e->child(2)->is(ExprKind::kBottom) && e->child(0)->is(ExprKind::kCmp) &&
        e->child(0)->cmp_op() == CmpOp::kLt &&
        ProveLt(e->child(0)->child(0), e->child(0)->child(1), rec.env)) {
      Warn(rec, "const-guard",
           "bound-check guard is provably true; the optimizer left it behind");
    }
  }

  std::vector<NodeRec> recs_;
  std::map<std::string, size_t> by_path_;
  LintReport report_;
};

}  // namespace

std::string LintWarning::ToString() const {
  return StrCat("warning[", code, "] at ", path, ": ", message);
}

std::string LintReport::ToString() const {
  if (warnings.empty()) return "lint: clean\n";
  std::string out = StrCat("lint: ", warnings.size(), " warning(s)\n");
  for (const LintWarning& w : warnings) {
    out += StrCat("  ", w.ToString(), "\n");
  }
  return out;
}

LintReport Lint(const ExprPtr& e) { return Linter().Run(e); }

std::string PlanFacts::ToString() const {
  std::string out = StrCat("plan: ", root.ToString(), "\n");
  out += bounds.ToString();
  out += lint.ToString();
  return out;
}

PlanFacts AnalyzePlan(const ExprPtr& optimized) {
  PlanFacts facts;
  facts.root = AnalyzeAbs(optimized);
  facts.bounds = AnalyzeBounds(optimized);
  facts.lint = Lint(optimized);
  return facts;
}

}  // namespace analysis
}  // namespace aql
