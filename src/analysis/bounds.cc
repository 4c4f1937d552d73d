#include "analysis/bounds.h"

#include <vector>

#include "analysis/absint.h"
#include "analysis/affine.h"
#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {
namespace analysis {

namespace {

// The original bounds prover, rebased onto the generic interpreter
// (absint.h): the symbolic-environment machinery (facts, path conditions,
// ConstUpperBound/ProveLt, scope killing) now lives there, shared with
// the shape/definedness/cardinality product domain and the kernel proof
// annotator. BoundsAnalysis keeps no per-expression abstract value — it
// is a pure pre-order observer over the trivial one-point lattice.
class BoundsDomain {
 public:
  struct Unit {};
  using Val = Unit;
  static constexpr bool kLetPrecision = false;

  explicit BoundsDomain(BoundsSummary* out) : out_(out) {}

  Val FreeVar(const ExprPtr&) { return {}; }
  Val BinderVal(const ExprPtr&, size_t, size_t, const SymEnv&) { return {}; }
  Val Transfer(const ExprPtr&, const std::vector<Val>&, const SymEnv&) {
    return {};
  }

  void AtNode(const ExprPtr& e, const std::vector<size_t>& path,
              const SymEnv& env) {
    switch (e->kind()) {
      case ExprKind::kSubscript:
        AnalyzeSubscript(e, env, path);
        break;
      case ExprKind::kIf:
        // A β^p bound-check guard: `if i < b then e else ⊥`.
        if (e->child(2)->is(ExprKind::kBottom) && e->child(0)->is(ExprKind::kCmp) &&
            e->child(0)->cmp_op() == CmpOp::kLt) {
          ++out_->residual_guards;
          if (ProveLt(e->child(0)->child(0), e->child(0)->child(1), env)) {
            ++out_->provable_guards;
          }
        }
        break;
      default:
        break;
    }
  }

  void AfterNode(const ExprPtr&, const std::vector<size_t>&, const Val&,
                 const SymEnv&) {}

 private:
  void AnalyzeSubscript(const ExprPtr& e, const SymEnv& env,
                        const std::vector<size_t>& path) {
    const ExprPtr& arr = e->child(0);
    const ExprPtr& idx = e->child(1);

    // Rank: from the array shape when syntactically evident, else from a
    // tuple-shaped index, else assume 1.
    size_t k = 0;
    if (arr->is(ExprKind::kTab)) k = arr->tab_rank();
    else if (arr->is(ExprKind::kLiteral) && arr->literal().kind() == ValueKind::kArray)
      k = arr->literal().array().dims.size();
    else if (arr->is(ExprKind::kDense)) k = arr->dense_rank();
    else if (idx->is(ExprKind::kTuple)) k = idx->children().size();
    else k = 1;
    if (k == 0) k = 1;

    std::vector<ExprPtr> parts = IndexParts(idx, k, /*project=*/true);

    ++out_->subscripts;
    size_t proven_dims = 0;
    std::string detail;
    for (size_t j = 0; j < k; ++j) {
      bool ok = ProveLt(parts[j], DimExtentExpr(arr, j, k), env);
      if (ok) ++proven_dims;
      if (!detail.empty()) detail += ", ";
      detail += StrCat("dim ", j + 1, ok ? " proven" : " unproven");
    }
    bool proven = proven_dims == k;
    if (proven) ++out_->proven; else ++out_->unproven;
    if (out_->facts.size() < BoundsSummary::kMaxFacts) {
      // The array renders as <array d1 ...>, not element by element, so
      // the summary costs O(term) even over a tiled literal.
      out_->facts.push_back({AbsPathString(path),
                             StrCat(RenderArrayExpr(arr), "[", idx->ToString(), "]"),
                             proven, std::move(detail)});
    }
  }

  BoundsSummary* out_;
};

}  // namespace

BoundsSummary AnalyzeBounds(const ExprPtr& e) {
  BoundsSummary out;
  BoundsDomain domain(&out);
  AbsInterp<BoundsDomain> interp(&domain);
  interp.Analyze(e);
  return out;
}

std::string BoundsSummary::ToString() const {
  std::string out = StrCat("bounds: ", subscripts, " subscript(s), ", proven,
                           " proven in-bounds, ", unproven,
                           " trusting runtime \xE2\x8A\xA5; ", residual_guards,
                           " residual guard(s), ", provable_guards,
                           " provably redundant\n");
  for (const SubscriptFact& f : facts) {
    out += StrCat("  [", f.proven ? "proven " : "runtime", "] ", f.expr, " at ",
                  f.path, " (", f.detail, ")\n");
  }
  return out;
}

}  // namespace analysis
}  // namespace aql
