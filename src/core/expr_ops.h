// Binding-aware operations on core expressions: free variables,
// capture-avoiding substitution, alpha-equivalence, fresh names.
//
// These are the workhorses of the optimizer (§5): the beta rule for
// functions and the beta^p rule for arrays are both "substitute, avoiding
// capture", and rule soundness tests compare results up to alpha.

#ifndef AQL_CORE_EXPR_OPS_H_
#define AQL_CORE_EXPR_OPS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/expr.h"

namespace aql {

// Free variables of e (bound occurrences excluded).
std::set<std::string> FreeVars(const ExprPtr& e);

// True iff `name` occurs free in e.
bool OccursFree(const ExprPtr& e, const std::string& name);

// Returns a name not present in `avoid`, derived from `base`.
// Fresh names use a '$' suffix, which the surface lexer never produces,
// so generated names can never collide with user names.
std::string FreshName(const std::string& base, const std::set<std::string>& avoid);

// e with every free occurrence of `var` replaced by `replacement`,
// alpha-renaming binders as needed to avoid capturing replacement's
// free variables.
ExprPtr Substitute(const ExprPtr& e, const std::string& var, const ExprPtr& replacement);

// Simultaneous capture-avoiding substitution.
ExprPtr SubstituteAll(const ExprPtr& e,
                      const std::unordered_map<std::string, ExprPtr>& subst);

// Structural equality up to renaming of bound variables.
bool AlphaEqual(const ExprPtr& a, const ExprPtr& b);

// Structural hash consistent with alpha-equivalence:
// AlphaEqual(a, b)  ⇒  HashExpr(a) == HashExpr(b).
// Bound variables hash by binding index (de Bruijn style), free variables
// and externals by name, literals via HashValue. This is the key function
// of the service layer's plan cache (src/service/plan_cache.h): resolved
// core expressions are bucketed by HashExpr and confirmed by AlphaEqual.
uint64_t HashExpr(const ExprPtr& e);

// Approximate heap footprint of a term in bytes: per-node overhead plus
// binder/name strings and literal payloads (object/value.h's
// ApproxValueBytes). Shared subterms are charged at every reference —
// deliberate, since cache eviction wants the cost of keeping the tree
// reachable, not its minimal DAG size. Used by the byte-bounded caches.
uint64_t ApproxExprBytes(const ExprPtr& e);

// The per-dimension parts of a rank-k subscript index, as beta_p splits
// them: the index itself when k == 1, the fields of a syntactic k-tuple,
// and otherwise the projections pi_j(idx) when `project` is set, or no
// parts at all (empty) when it is not.
std::vector<ExprPtr> IndexParts(const ExprPtr& idx, size_t k, bool project);

// The value of a NatConst or of a nat literal (how a resolved nat val
// appears in a term); nullopt for anything else.
std::optional<uint64_t> NatConstOf(const ExprPtr& e);

}  // namespace aql

#endif  // AQL_CORE_EXPR_OPS_H_
