// Fused scalar kernels for tabulation bodies.
//
// A tabulation [[ e | i1<d1, ..., ik<dk ]] whose body is a scalar
// expression over the loop indices, scalar frame slots, and subscripts of
// unboxed array slots can run as a tight typed loop that writes straight
// into the result's unboxed buffer — no per-element Value boxing, no
// Result<Value> allocation, no virtual Run() dispatch.
//
// Two stages keep this sound:
//
//   1. Compile time (BuildKernelSpec): a structural scan of the body Expr
//      admits only the closed kernel fragment — constants, binders, frame
//      slots, arithmetic, comparisons, if/then/else, subscripts whose
//      array is a plain slot, and sums over `gen(n)` (`sum k < n. e`, the
//      §5 index loop of matmul/conv1/window_sum). Anything else (lambdas,
//      sets, nested tabulations, externals, ...) returns nullptr and the
//      tabulation uses the generic node interpreter.
//
//   2. Run time (Kernel::Instantiate): the spec is typed against the
//      concrete frame. Scalar slots freeze into constants; array slots
//      must hold an unboxed payload of matching rank. Type mismatches
//      (e.g. a slot holding a set, a boxed array, mixed arith operands)
//      reject instantiation, and the tabulation falls back to the generic
//      path — representation never changes semantics, only speed.
//
// Kernel evaluation returns false when the body value is ⊥ at some index
// (nat division/modulo by zero, out-of-bounds subscript). The caller then
// re-runs the whole tabulation generically, producing the partial array
// with per-point ⊥ holes that the semantics require. A real-typed sum with
// zero trips returns false too: both backends give such a fold the nat
// identity 0, which a real buffer cannot hold, so the generic path builds
// that cell.
//
// Each cell's sum folds left to right from 0 / +0.0 on one thread — the
// order SumNode and the tree walker add in — so real results round
// identically; the parallel split stays over cells.
//
// A third stage removes even those per-cell tests: AnnotateKernelSpec
// attaches static proofs (subscript in-range, divisor nonzero) from the
// abstract-interpretation framework (src/analysis/absint.h), and
// Instantiate re-validates them against the concrete frame. When every ⊥
// source is discharged the kernel reports unchecked() and exposes total
// Eval*Unchecked entry points — the §5 bound-check elimination, performed
// with a proof instead of a prayer. ExecOptions::unchecked = false
// disables the unchecked path at run time (docs/EXEC.md).

#ifndef AQL_EXEC_KERNEL_H_
#define AQL_EXEC_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/expr.h"
#include "exec/compiled.h"
#include "object/value.h"

namespace aql {
namespace exec {

// Compile-time shape of a kernelizable tabulation body.
struct KernelSpec {
  enum class Op : uint8_t {
    kNatConst,
    kRealConst,
    kBoolConst,
    kBinder,     // loop index j (value in `index`)
    kSlot,       // frame slot (value in `index`); type resolved at run time
    kArith,      // kids[0] op kids[1]
    kCmp,        // kids[0] op kids[1]
    kIf,          // kids[0] ? kids[1] : kids[2]
    kSubscript,   // kids[0] is the array (kSlot or kLiteralArr); kids[1..] nat indices
    kLiteralArr,  // inlined literal array (value in `literal`)
    kDimOf,       // extent `index` of the rank-`nat` array kids[0]
    kSum,         // sum k < kids[0]. kids[1], k is loop index `index`
  };

  Op op;
  uint64_t nat = 0;
  double real = 0;
  bool boolean = false;
  // Loop-index position (kBinder, kSum), frame slot (kSlot), dim (kDimOf).
  // Positions 0..k-1 are the tabulation binders; a sum nested d deep in
  // kernel sums binds position k + d.
  size_t index = 0;
  ArithOp arith = ArithOp::kAdd;
  CmpOp cmp = CmpOp::kEq;
  Value literal;  // kLiteralArr only (vals inline as literals, §4 openness)
  std::vector<KernelSpec> kids;

  // Static proofs attached by AnnotateKernelSpec (analysis/absint.h),
  // consulted at instantiation to admit the unchecked evaluators:
  //   div_safe     kArith div/mod whose divisor is provably nonzero
  //   idx_proven   kSubscript, per dimension: index proven < extent
  //   idx_ub       kSubscript, per dimension: exclusive constant upper
  //                bound of the index (0 = none; a real bound is >= 1),
  //                checked against the concrete extent at instantiation
  //   trips_nonzero kSum whose trip count is provably nonzero (a real
  //                fold needs it to skip the zero-trip fallback)
  bool div_safe = false;
  bool trips_nonzero = false;
  std::vector<uint8_t> idx_proven;
  std::vector<uint64_t> idx_ub;
};

// Maps a free-variable name to its frame slot (mirrors the compiler's
// scope lookup at the point of the tabulation body).
using SlotLookup = std::function<Result<size_t>(const std::string&)>;

// Builds the kernel spec for `body`, or nullptr if the body leaves the
// kernel fragment. `binder_slots` are the tabulation's index slots in
// binder order; variables bound to other slots become kSlot leaves.
std::unique_ptr<KernelSpec> BuildKernelSpec(const Expr& body,
                                            const std::vector<size_t>& binder_slots,
                                            const SlotLookup& lookup);

// Attaches bound/definedness proofs to a spec built from `tab`'s body
// (div_safe, idx_proven, idx_ub, trips_nonzero above), using the shared
// symbolic prover: tabulation binders are below their bounds, a sum
// binder below its gen argument, a conditional's test holds in its
// then-branch. Entering a sum kills the facts its binder shadows, the
// same scoping the abstract interpreter applies; the loop extents are the
// evaluated bounds. Called once at compile time.
// The relational affine domain (analysis/affine.h) tightens idx_ub and
// proves in-bounds where the syntactic provers give up (cancellation,
// exact division); when an affine fact is what closed the proof, an
// "unchecked-kernel-bounds" certificate is appended to `proof`.
void AnnotateKernelSpec(const Expr& tab, KernelSpec* spec,
                        analysis::Proof* proof = nullptr);

// A spec instantiated against one concrete frame: fully typed, slot
// scalars frozen to constants, subscript targets resolved to raw unboxed
// buffers (the backing Values are pinned for the kernel's lifetime).
class Kernel {
 public:
  enum class Type : uint8_t { kNat, kReal, kBool };

  // nullptr when the frame's values do not fit the spec (non-scalar slot,
  // boxed or rank-mismatched array, mixed operand types, ...).
  static std::unique_ptr<Kernel> Instantiate(const KernelSpec& spec, const Frame& frame);

  Type result_type() const { return root_.type; }

  // True when instantiation discharged every ⊥ source in the body — all
  // subscripts proven in-range against the concrete extents, all nat
  // div/mod divisors proven nonzero, every real sum's trip count proven
  // nonzero — so the Eval*Unchecked evaluators below are total and the
  // per-cell ⊥ protocol can be skipped.
  bool unchecked() const { return unchecked_; }

  // Length of the index array the evaluators take: the sum binders'
  // positions beyond the tabulation rank (0 when the body has no sum).
  size_t index_width() const { return index_width_; }

  // Evaluate the body at multi-index `idx`: the tabulation binders in
  // binder order, followed by max(0, index_width() - rank) scratch slots
  // the sums write their binders into (so one `idx` per thread). Exactly
  // one of these matches result_type(); all return false when the value
  // is ⊥ (or a sum saw an interrupt; the generic re-run reports it).
  bool EvalNat(uint64_t* idx, uint64_t* out) const;
  bool EvalReal(uint64_t* idx, double* out) const;
  bool EvalBool(uint64_t* idx, uint8_t* out) const;

  // Checkless evaluation: no per-cell bounds tests, no ⊥ signalling.
  // Callers must hold unchecked() == true. A sum that sees an interrupt
  // stops early with a partial value; the caller must poll
  // CheckInterrupt() before using the results.
  uint64_t EvalNatUnchecked(uint64_t* idx) const;
  double EvalRealUnchecked(uint64_t* idx) const;
  uint8_t EvalBoolUnchecked(uint64_t* idx) const;

 private:
  struct RtNode {
    KernelSpec::Op op;
    Type type;
    uint64_t nat = 0;
    double real = 0;
    uint8_t boolean = 0;
    size_t binder = 0;
    ArithOp arith = ArithOp::kAdd;
    CmpOp cmp = CmpOp::kEq;
    const ArrayRep* arr = nullptr;  // kSubscript: dims + unboxed buffer
    std::vector<RtNode> kids;
  };

  Kernel() = default;

  // Types `spec` into `out` against `frame`, pinning subscripted arrays,
  // clearing unchecked_ at any undischarged ⊥ source and widening
  // index_width_ for each sum binder.
  bool Build(const KernelSpec& spec, const Frame& frame, RtNode* out);

  static bool NatAt(const RtNode& n, uint64_t* idx, uint64_t* out);
  static bool RealAt(const RtNode& n, uint64_t* idx, double* out);
  static bool BoolAt(const RtNode& n, uint64_t* idx, uint8_t* out);
  static bool SubscriptFlat(const RtNode& n, uint64_t* idx, uint64_t* flat);

  static uint64_t NatAtU(const RtNode& n, uint64_t* idx);
  static double RealAtU(const RtNode& n, uint64_t* idx);
  static uint8_t BoolAtU(const RtNode& n, uint64_t* idx);
  static uint64_t FlatU(const RtNode& n, uint64_t* idx);
  static uint64_t NatKidU(const RtNode& k, uint64_t* idx);
  static double RealKidU(const RtNode& k, uint64_t* idx);

  RtNode root_;
  std::vector<Value> pinned_;  // keeps subscripted arrays alive
  bool unchecked_ = true;
  size_t index_width_ = 0;
};

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_KERNEL_H_
