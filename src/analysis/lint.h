// analysis::Lint — static diagnostics for optimized plans, built on the
// abstract-interpretation product domain (absint.h). The linter flags
// queries that are *suspicious but legal*: the calculus gives them a
// meaning (usually ⊥ or an empty collection), so neither the type checker
// nor the optimizer will complain, yet they almost always indicate a
// mistake in the query.
//
// Catalogue (warning codes):
//   always-bottom   a subexpression the definedness domain proves is ⊥ on
//                   every evaluation (division by a constant zero, get of
//                   a provably non-singleton set, ...)
//   oob-subscript   a subscript with a constant index at or past a
//                   constant extent — ⊥ at every evaluation
//   empty-tab       a tabulation whose bounds make it the empty array
//                   (`[[e | i < 0]]`)
//   unused-binder   a comprehension/tabulation binder the body never
//                   reads (a constant broadcast is sometimes intended,
//                   so this is informational)
//   const-guard     a bound-check guard `if i < b then e else ⊥` the
//                   prover can discharge but the optimizer left behind
//   shadowed-binder an inner tab/comprehension/lambda (incl. desugared
//                   let) binder re-using the name of an enclosing binder
//                   still in scope — legal, but the inner body can no
//                   longer reach the outer binding
//
// Entry points: Lint(e) for the warnings alone; AnalyzePlan(e) bundles the
// warnings with the root abstract value and the bounds summary — the
// per-plan fact record REPL `:lint` (System::Lint) prints on request.

#ifndef AQL_ANALYSIS_LINT_H_
#define AQL_ANALYSIS_LINT_H_

#include <string>
#include <vector>

#include "analysis/absint.h"
#include "analysis/bounds.h"
#include "core/expr.h"

namespace aql {
namespace analysis {

struct LintWarning {
  std::string code;     // e.g. "always-bottom"
  std::string path;     // child-index path from the root, e.g. "0.1"
  std::string message;

  std::string ToString() const;  // "warning[code] at path: message"
};

struct LintReport {
  std::vector<LintWarning> warnings;

  // "lint: N warning(s)\n" + one line per warning; "lint: clean\n" if none.
  std::string ToString() const;
};

// Lints a core term (typically an optimized plan). Never fails.
LintReport Lint(const ExprPtr& e);

// Everything the static analyses know about one plan, computed on request
// (System::Lint).
struct PlanFacts {
  AbsVal root;            // shape/definedness/cardinality of the result
  BoundsSummary bounds;
  LintReport lint;

  std::string ToString() const;
};

PlanFacts AnalyzePlan(const ExprPtr& optimized);

}  // namespace analysis
}  // namespace aql

#endif  // AQL_ANALYSIS_LINT_H_
