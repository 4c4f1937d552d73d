// aql::analysis — a relational affine-index domain (Cousot & Halbwachs
// style, restricted to the single-assignment nat arithmetic of the core
// calculus). Each nat-typed subexpression is represented as an affine form
//
//     c0 + Σ ci·bi          (ci ≥ 1, bi in-scope binders)
//
// with ⊤ fallback and an interval [lo, hi] derived from the binders'
// bound facts (the same SymEnv machinery the non-relational
// ConstUpperBound / ProveLt provers in absint.h consume). The relational
// representation proves what interval folding alone cannot — cancellation
// (`i*2 - i` is exactly `i`), exact division (`(i*4)/2` is `2·i`), and
// stride/alignment facts (`2·i + 1` is odd) — which feed three consumers:
//
//   1. exec/compiled.cc — subslab pushdown takes any affine single-binder
//      index (strides, commuted offsets, bare binders) through
//      MatchRectAccess and emits strided bulk reads;
//   2. the aggregate-pruning pass (SumNode) — zone-map facts skip tile
//      reads when the unit-stride access range fits (the same matcher,
//      which also serves result-cache subsumption);
//   3. exec/kernel.cc — affine in-bounds proofs admit UNCHECKED kernels
//      the const-only interval path has to reject.
//
// Every optimization justified by an affine fact records a proof
// certificate (analysis::Proof) naming the facts, surfaced via REPL
// `:explain` and the `?trace=1` profile. The verifier grows an
// AffineCheck pass: across optimizer phases affine facts must refine,
// never widen (verifier.h).

#ifndef AQL_ANALYSIS_AFFINE_H_
#define AQL_ANALYSIS_AFFINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "core/expr.h"

namespace aql {
namespace analysis {

// ---------- the affine lattice ----------

// One monomial ci·bi of an affine form; coeff >= 1.
struct AffineCoeff {
  std::string var;
  uint64_t coeff = 0;
};

// Abstract value: an affine form over in-scope binders (when `affine`),
// plus an inclusive value interval [lo, hi] (when `bounded`) inherited
// from the binder-bound facts. ⊤ is {affine=false, bounded=false}; the
// two components are independent (a non-affine `x % 8` still has bounds).
// Like every absint claim, both are conditional on evaluation succeeding
// (⊥ and type errors void them vacuously).
struct AffineVal {
  bool affine = false;
  uint64_t c0 = 0;
  std::vector<AffineCoeff> terms;  // sorted by var, no zero coefficients

  bool bounded = false;
  uint64_t lo = 0, hi = 0;  // inclusive

  static AffineVal Top() { return {}; }
  static AffineVal Const(uint64_t c);

  bool IsConst() const { return affine && terms.empty(); }
  // gcd of the coefficients: the form's value is ≡ c0 (mod Modulus()).
  // 0 for a constant form (exact), 1 when nothing is known.
  uint64_t Modulus() const;

  // "2*i + j + 3 in [3, 12]", "top in [0, 7]", "top".
  std::string ToString() const;
};

bool operator==(const AffineVal& a, const AffineVal& b);

// Pure transfer functions over forms (nullopt on overflow / non-affine
// combination). Shared by the AbsInterp domain below and the direct
// expression walker AffineOf.
std::optional<AffineVal> AffineAdd(const AffineVal& a, const AffineVal& b);
std::optional<AffineVal> AffineMulConst(const AffineVal& a, uint64_t k);
// Exact only when `a` dominates `b` coefficient-wise (then a ∸ b = a - b
// pointwise and the difference is again affine).
std::optional<AffineVal> AffineMonus(const AffineVal& a, const AffineVal& b);

// Affine value of a nat expression under the binder facts of `env`
// (depth-bounded like ConstUpperBound). This is the workhorse the
// kernel annotator, the linter, and the pushdown matchers call on index
// subexpressions; AnalyzeAffineAbs below runs the same transfer
// functions as a full AbsInterp domain.
AffineVal AffineOf(const ExprPtr& e, const SymEnv& env, int depth = 0);

// Exclusive constant upper bound from the affine interval — the
// relational counterpart of ConstUpperBound (strictly stronger on
// cancellation/division forms, never weaker than [0, CUB-1]).
std::optional<uint64_t> AffineUpperBound(const ExprPtr& e, const SymEnv& env);

// ---------- the AbsInterp domain and the reduced product ----------

// AffineDomain satisfies the AbsInterp<Domain> contract on its own;
// AffineCoreDomains below joins it with the Shape/Definedness/Cardinality
// product (the form every consumer actually wants: the reduction needs
// shape extents to turn affine ranges into definedness proofs).
class AffineDomain {
 public:
  using Val = AffineVal;
  static constexpr bool kLetPrecision = true;

  Val FreeVar(const ExprPtr& var);
  Val BinderVal(const ExprPtr& parent, size_t child_index, size_t binder_index,
                const SymEnv& env);
  Val Transfer(const ExprPtr& e, const std::vector<Val>& kids, const SymEnv& env);
  Val LetTransfer(const ExprPtr& apply, const Val& bound, const Val& body) {
    return body;
  }
  void AtNode(const ExprPtr&, const std::vector<size_t>&, const SymEnv&) {}
  void AfterNode(const ExprPtr&, const std::vector<size_t>&, const Val&,
                 const SymEnv&) {}
};

// The reduced product of CoreDomains and AffineDomain. Reduction runs
// both ways: shape extents bound subscript indexes (an affine range
// inside a constant extent upgrades definedness where the syntactic
// ProveLt gives up), and affine constants sharpen cardinalities.
struct AffineAbsVal {
  AbsVal core;
  AffineVal aff;

  std::string ToString() const;
};

class AffineCoreDomains {
 public:
  using Val = AffineAbsVal;
  static constexpr bool kLetPrecision = true;

  using Observer = std::function<void(const ExprPtr&, const std::vector<size_t>&,
                                      const AffineAbsVal&, const SymEnv&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  Val FreeVar(const ExprPtr& var);
  Val BinderVal(const ExprPtr& parent, size_t child_index, size_t binder_index,
                const SymEnv& env);
  Val Transfer(const ExprPtr& e, const std::vector<Val>& kids, const SymEnv& env);
  Val LetTransfer(const ExprPtr& apply, const Val& bound, const Val& body);
  void AtNode(const ExprPtr&, const std::vector<size_t>&, const SymEnv&) {}
  void AfterNode(const ExprPtr& e, const std::vector<size_t>& path, const Val& val,
                 const SymEnv& env) {
    if (observer_) observer_(e, path, val, env);
  }

 private:
  CoreDomains core_;
  AffineDomain aff_;
  Observer observer_;
};

// Abstractly interprets a core term under the reduced product. Never
// fails; unknown constructs yield ⊤.
AffineAbsVal AnalyzeAffineAbs(const ExprPtr& e);

// The AffineCheck relation (verifier pass 6): true when `pre` and `post`
// make contradictory or widened claims about one value — definite
// constants that differ, disjoint bounded intervals, or a post interval
// strictly wider than a bounded pre interval. Rewrites must refine facts,
// never widen them. The check is vacuous when `pre` is always-⊥ (the
// ⊥-refinement direction AbsContradicts already allows).
bool AffineWidens(const AffineAbsVal& pre, const AffineAbsVal& post,
                  std::string* why);

// ---------- rendering ----------

// Compact rendering of an array operand for summaries and proof sites:
// a variable prints as its name, an array literal as "<array d1 d2 ...>"
// (never its elements, even inside a larger term: Expr::ToPlanString),
// a scalar literal as "<literal>", the whole truncated to 40 characters.
std::string RenderArrayExpr(const ExprPtr& arr);

// ---------- syntactic single-binder matcher ----------

// One index part of the rectangular access below: offset + stride·binder,
// in any commutation (`i`, `i+c`, `c+i`, `s*i`, `i*s`, and the `add(mul)`
// forms). Purely syntactic — no SymEnv needed — so it runs on plans whose
// bounds are not constant.
struct Affine1D {
  std::string binder;
  uint64_t offset = 0;
  uint64_t stride = 1;
};

std::optional<Affine1D> MatchAffine1D(const ExprPtr& part);

// ---------- the rectangular access matcher ----------

// The access shape of the paper's beta_p rule and §5's subscript-range
// constraints: `base[p1, ..., pk]` under loop binders b1..bk, where part j
// is `lower_j + stride_j·b_j` (any MatchAffine1D commutation) in binder j
// alone. The one matcher behind tab pushdown (any stride), the pruned sum
// fold and result-cache subsumption (unit stride only).
struct RectAccess {
  ExprPtr base;                  // the subscripted array expression
  std::vector<uint64_t> lower;   // per-dimension origin
  std::vector<uint64_t> stride;  // per-dimension step (>= 1)

  bool UnitStride() const;

  // True when, in every dimension j, the touched coordinates
  // lower_j + stride_j·t for t < extent[j] lie inside [0, dims[j]),
  // computed without overflow; ranks must agree. A zero-trip dimension
  // touches nothing but still needs lower_j <= dims[j] (SliceArray's
  // convention for an empty range).
  bool Fits(const std::vector<uint64_t>& extent,
            const std::vector<uint64_t>& dims) const;
};

// Matches `subscript` against `binders` (outermost first). nullopt unless
// it is a subscript whose index splits into one syntactic part per binder
// (IndexParts without projections), the binder names are distinct (a
// repeated name shadows, so "part j uses binder j" would be ambiguous),
// and part j is affine in binders[j] (a transposed access fails). The
// base is not inspected: callers add their own requirement (a tiled
// literal, a binder-free term).
std::optional<RectAccess> MatchRectAccess(const ExprPtr& subscript,
                                          const std::vector<std::string>& binders);

// ---------- proof certificates ----------

// Which facts justified which optimization. Producers (the pushdown
// matchers, the kernel annotator, the aggregate pruner) append entries at
// compile time; the Program carries them so `:explain` and the `?trace=1`
// profile can show WHY a plan runs the way it does.
struct ProofEntry {
  std::string optimization;        // "strided-pushdown", "unchecked-kernel", ...
  std::string site;                // the justified subexpression
  std::vector<std::string> facts;  // human-readable affine facts
};

struct Proof {
  std::vector<ProofEntry> entries;

  bool empty() const { return entries.empty(); }
  void Add(std::string optimization, std::string site,
           std::vector<std::string> facts);
  std::string ToString() const;
};

}  // namespace analysis
}  // namespace aql

#endif  // AQL_ANALYSIS_AFFINE_H_
