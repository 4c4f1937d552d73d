// Compiled execution backend (the "code generator" of §3's efficiency
// discussion).
//
// The tree-walking evaluator (src/eval) resolves every variable by name
// against a linked-list environment — simple, but each lookup is a string
// comparison chain. This backend compiles a core-calculus expression once
// into an executable graph in which
//
//   - every variable is a FRAME SLOT index assigned at compile time,
//   - every lambda is compiled to a capture list (the slots of its free
//     variables) plus a code pointer; applying it copies the captured
//     values into a fresh frame,
//   - loop constructs (big union, sum, tabulation) push their binder
//     slots once and overwrite them per iteration,
//   - external primitives are resolved to their implementations at
//     compile time, not per evaluation.
//
// Semantics are identical to the evaluator (same bottom propagation, same
// canonical sets); exec_test cross-checks the two on random programs, and
// bench_exec measures the speedup.
//
// Like the evaluator, loop constructs poll base/cancel.h's CheckInterrupt(),
// so a Program::Run under an ExecScope respects deadlines/cancellation.
// A compiled Program is immutable and safe to Run() from many threads
// concurrently (each Run builds its own Frame, memos included) — the plan
// cache (src/service) shares one Program across all workers.

#ifndef AQL_EXEC_COMPILED_H_
#define AQL_EXEC_COMPILED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/affine.h"
#include "base/result.h"
#include "core/expr.h"
#include "object/value.h"

namespace aql {
namespace exec {

struct KeyIndex;  // an indexed filter's sorted keys (compiled.cc)

// What one indexed equality filter node (compiled.cc, docs/EXEC.md §7)
// remembers within one activation: the source set it last saw (held, so
// its identity cannot be reused by another set), from the second sight
// of that set on its key index, and, when the then-branch is free in the
// binder alone, the set each run of equal keys gave.
struct FilterMemo {
  Value source;
  std::shared_ptr<const KeyIndex> index;  // immutable once built
  bool unusable = false;  // some key was ⊥ or an error: keep scanning
  std::vector<Value> groups;  // by the run's first index position; ⊥ = not built
};

// Mutable register file for one activation. Parallel chunks copy it, so
// each chunk's filters build and keep their own memos.
struct Frame {
  std::vector<Value> slots;
  std::vector<FilterMemo> memos;  // one per indexed filter node in the code
};

// A compiled expression node.
class Node {
 public:
  virtual ~Node() = default;
  virtual Result<Value> Run(Frame* frame) const = 0;

  // For set-valued nodes: appends the node's elements to `out` in
  // evaluation order, uncanonicalized, or sets *bottom and stops on ⊥.
  // The consumer canonicalizes once (Value::MakeSet). The default runs
  // the node and appends its set; singletons, unions, ifs and big unions
  // stream instead of building intermediate sets.
  virtual Status Emit(Frame* frame, std::vector<Value>* out, bool* bottom) const;
};

using NodePtr = std::unique_ptr<const Node>;

class Program {
 public:
  Program(NodePtr root, size_t frame_size, size_t memo_count,
          analysis::Proof proof = {})
      : root_(std::move(root)),
        frame_size_(frame_size),
        memo_count_(memo_count),
        proof_(std::move(proof)) {}

  // Executes the program; `args` (if any) pre-populate the first slots —
  // used when compiling open expressions whose free variables are
  // supplied by the host.
  Result<Value> Run(std::vector<Value> args = {}) const;

  size_t frame_size() const { return frame_size_; }

  // The proof certificate accumulated at compile time: which affine /
  // absint facts justified which plan optimizations (pushdowns, pruned
  // aggregates, unchecked kernels). Surfaced by REPL `:explain` and the
  // `?trace=1` profile.
  const analysis::Proof& proof() const { return proof_; }

 private:
  NodePtr root_;
  size_t frame_size_;
  size_t memo_count_;
  analysis::Proof proof_;
};

// Resolves a registered external primitive name, or nullptr.
using ExternalResolver =
    std::function<std::shared_ptr<const FuncValue>(const std::string&)>;

// Compiles a core expression. Free variables listed in `params` become
// argument slots (in order); any other free variable is an error.
Result<Program> Compile(const ExprPtr& e, const ExternalResolver& externals,
                        const std::vector<std::string>& params = {});

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_COMPILED_H_
