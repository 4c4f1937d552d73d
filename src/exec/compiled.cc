#include "exec/compiled.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>

#include "analysis/affine.h"
#include "base/cancel.h"
#include "base/strings.h"
#include "base/sync.h"
#include "core/expr_ops.h"
#include "exec/kernel.h"
#include "exec/parallel.h"
#include "obs/trace.h"

namespace aql {
namespace exec {

namespace {

// Upper bounds on eagerly allocated result buffers. Tabulations larger
// than these run the legacy incremental loop (clamped reserve +
// push_back), which stays cancellable long before the allocation would
// hurt; the limits exist so a huge-but-under-the-cap bound does not turn
// into one giant up-front allocation.
constexpr uint64_t kUnboxedAllocLimit = uint64_t{1} << 26;  // 8B scalars
constexpr uint64_t kBoxedAllocLimit = uint64_t{1} << 24;    // boxed Values

// Multi-index helpers for row-major chunked loops.
std::vector<uint64_t> DecodeIndex(uint64_t flat, const std::vector<uint64_t>& dims) {
  std::vector<uint64_t> idx(dims.size());
  for (size_t j = dims.size(); j-- > 0;) {
    idx[j] = flat % dims[j];
    flat /= dims[j];
  }
  return idx;
}

void IncrementIndex(std::vector<uint64_t>& idx, const std::vector<uint64_t>& dims) {
  for (size_t j = dims.size(); j-- > 0;) {
    if (++idx[j] < dims[j]) return;
    idx[j] = 0;
  }
}

// ---------- runtime nodes ----------

class ConstNode : public Node {
 public:
  explicit ConstNode(Value v) : value_(std::move(v)) {}
  Result<Value> Run(Frame*) const override { return value_; }
  // `{}` (and a set literal) streams without copying the value.
  Status Emit(Frame*, std::vector<Value>* out, bool* bottom) const override {
    if (value_.is_bottom()) {
      *bottom = true;
    } else {
      out->insert(out->end(), value_.set().elems.begin(), value_.set().elems.end());
    }
    return Status::OK();
  }

 private:
  Value value_;
};

class SlotNode : public Node {
 public:
  explicit SlotNode(size_t slot) : slot_(slot) {}
  Result<Value> Run(Frame* f) const override { return f->slots[slot_]; }

 private:
  size_t slot_;
};

// Closure: captured values + code compiled against a fresh frame laid out
// as [captures..., param, scratch...], with its own filter memos.
class CompiledClosure : public FuncValue {
 public:
  CompiledClosure(std::vector<Value> captured, const Node* body, size_t frame_size,
                  size_t memo_count)
      : captured_(std::move(captured)),
        body_(body),
        frame_size_(frame_size),
        memo_count_(memo_count) {}

  Result<Value> Apply(const Value& arg) const override {
    Frame frame;
    frame.slots.resize(frame_size_);
    frame.memos.resize(memo_count_);
    std::copy(captured_.begin(), captured_.end(), frame.slots.begin());
    frame.slots[captured_.size()] = arg;
    return body_->Run(&frame);
  }

  std::string name() const override { return "<compiled fn>"; }

 private:
  std::vector<Value> captured_;
  const Node* body_;
  size_t frame_size_;
  size_t memo_count_;
};

// Creates a closure, capturing the listed slots of the current frame.
// Owns the compiled body (shared among all closures it creates).
class LambdaNode : public Node {
 public:
  LambdaNode(std::vector<size_t> capture_slots, NodePtr body, size_t frame_size,
             size_t memo_count)
      : capture_slots_(std::move(capture_slots)),
        body_(std::move(body)),
        frame_size_(frame_size),
        memo_count_(memo_count) {}

  Result<Value> Run(Frame* f) const override {
    std::vector<Value> captured;
    captured.reserve(capture_slots_.size());
    for (size_t s : capture_slots_) captured.push_back(f->slots[s]);
    return Value::MakeFunc(std::make_shared<CompiledClosure>(
        std::move(captured), body_.get(), frame_size_, memo_count_));
  }

 private:
  std::vector<size_t> capture_slots_;
  NodePtr body_;
  size_t frame_size_;
  size_t memo_count_;
};

class ApplyNode : public Node {
 public:
  ApplyNode(NodePtr fn, NodePtr arg) : fn_(std::move(fn)), arg_(std::move(arg)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value fn, fn_->Run(f));
    if (fn.is_bottom()) return Value::Bottom();
    if (fn.kind() != ValueKind::kFunc) {
      return Status::EvalError("applying a non-function value");
    }
    AQL_ASSIGN_OR_RETURN(Value arg, arg_->Run(f));
    if (arg.is_bottom()) return Value::Bottom();
    return fn.func().Apply(arg);
  }

 private:
  NodePtr fn_, arg_;
};

class TupleNode : public Node {
 public:
  explicit TupleNode(std::vector<NodePtr> fields) : fields_(std::move(fields)) {}
  Result<Value> Run(Frame* f) const override {
    std::vector<Value> vals;
    vals.reserve(fields_.size());
    for (const NodePtr& n : fields_) {
      AQL_ASSIGN_OR_RETURN(Value v, n->Run(f));
      if (v.is_bottom()) return Value::Bottom();
      vals.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(vals));
  }

 private:
  std::vector<NodePtr> fields_;
};

class ProjNode : public Node {
 public:
  ProjNode(size_t index, size_t arity, NodePtr inner)
      : index_(index), arity_(arity), inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    if (v.kind() != ValueKind::kTuple || v.tuple_fields().size() != arity_) {
      return Status::EvalError("projection arity mismatch");
    }
    return v.tuple_fields()[index_ - 1];
  }

 private:
  size_t index_, arity_;
  NodePtr inner_;
};

class SingletonNode : public Node {
 public:
  explicit SingletonNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    return Value::MakeSetCanonical({std::move(v)});
  }
  Status Emit(Frame* f, std::vector<Value>* out, bool* bottom) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) {
      *bottom = true;
    } else {
      out->push_back(std::move(v));
    }
    return Status::OK();
  }

 private:
  NodePtr inner_;
};

class UnionNode : public Node {
 public:
  UnionNode(NodePtr a, NodePtr b) : a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    return Value::SetUnion(a, b);
  }
  Status Emit(Frame* f, std::vector<Value>* out, bool* bottom) const override {
    AQL_RETURN_IF_ERROR(a_->Emit(f, out, bottom));
    if (*bottom) return Status::OK();
    return b_->Emit(f, out, bottom);
  }

 private:
  NodePtr a_, b_;
};

// Parallel body evaluation for the set-driven loops (big union, sum):
// every source element's body value lands in parts[i], evaluated by
// chunks over worker-private Frame copies. The fold over the parts stays
// sequential in the caller, which is what keeps results bit-identical to
// the single-threaded loop (left-to-right real addition, first ⊥/error
// in index order). `elem(i)` is the i-th source element: a set member,
// or the nat i itself for a Sum counting over `gen(n)`.
//
// `terminal` is the lowest index whose body came out ⊥ or as an error;
// parts at indices beyond it may be unset (chunks stop early), so callers
// must stop their fold when they reach it. A non-OK return is an
// interrupt (cancellation/deadline) only.
struct LoopParts {
  std::vector<Value> parts;
  uint64_t terminal = UINT64_MAX;
  bool terminal_is_bottom = false;
  Status terminal_status;
};

template <typename ElemFn>
Result<LoopParts> EvalBodyParallel(const Frame& f, size_t binder_slot, const Node* body,
                                   uint64_t n, const ElemFn& elem) {
  LoopParts lp;
  lp.parts.assign(n, Value());
  std::atomic<uint64_t> terminal{UINT64_MAX};
  Mutex mu("exec.par.terminal", lock_rank::kExecTerminal);
  bool terminal_bottom = false;
  Status terminal_status;
  Status ps = ParallelFor(n, [&](uint64_t b, uint64_t e) -> Status {
    Frame local = f;  // private register file per chunk
    for (uint64_t i = b; i < e; ++i) {
      if (((i - b) & 0x3FF) == 0) {
        AQL_RETURN_IF_ERROR(CheckInterrupt());
        if (terminal.load(std::memory_order_relaxed) < i) return Status::OK();
      }
      local.slots[binder_slot] = elem(i);
      Result<Value> r = body->Run(&local);
      if (!r.ok() || r.value().is_bottom()) {
        MutexLock lock(&mu);
        if (i < terminal.load(std::memory_order_relaxed)) {
          terminal.store(i, std::memory_order_relaxed);
          terminal_bottom = r.ok();
          terminal_status = r.ok() ? Status::OK() : r.status();
        }
        return Status::OK();
      }
      lp.parts[i] = std::move(r).value();
    }
    return Status::OK();
  });
  AQL_RETURN_IF_ERROR(ps);
  lp.terminal = terminal.load(std::memory_order_relaxed);
  lp.terminal_is_bottom = terminal_bottom;
  lp.terminal_status = std::move(terminal_status);
  return lp;
}

// The indexed equality filter: a big union whose body is
// `if K = P then T else {}` (either orientation), K free in the binder
// alone and P free of it — nest's inner loop, an equi-join's probe side.
// The pointers reach into the union's own body nodes.
struct EquiFilter {
  const Node* key;
  const Node* probe;
  const Node* then_branch;
  bool closed;  // T is free in the binder alone (nest's {pi2 b})
  size_t memo;  // this node's FilterMemo in the frame
};

}  // namespace

// K of every element of one source set, stable-sorted by Value::Compare:
// keys[j] came from source position pos[j], so the elements of one equal
// run stay in set order.
struct KeyIndex {
  std::vector<Value> keys;
  std::vector<uint64_t> pos;
};

namespace {

class BigUnionNode : public Node {
 public:
  BigUnionNode(size_t binder_slot, NodePtr body, NodePtr source,
               std::optional<EquiFilter> filter)
      : binder_slot_(binder_slot),
        body_(std::move(body)),
        source_(std::move(source)),
        filter_(filter) {}

  // The whole nest streams into one vector, canonicalized once.
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value src, source_->Run(f));
    if (src.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(const KeyIndex* index, IndexFor(f, src));
    if (index != nullptr && filter_->closed) return Group(f, src.set().elems, *index);
    std::vector<Value> acc;
    bool bottom = false;
    AQL_RETURN_IF_ERROR(EmitFrom(f, src.set().elems, index, &acc, &bottom));
    if (bottom) return Value::Bottom();
    return Value::MakeSet(std::move(acc));
  }

  Status Emit(Frame* f, std::vector<Value>* out, bool* bottom) const override {
    AQL_ASSIGN_OR_RETURN(Value src, source_->Run(f));
    if (src.is_bottom()) {
      *bottom = true;
      return Status::OK();
    }
    AQL_ASSIGN_OR_RETURN(const KeyIndex* index, IndexFor(f, src));
    return EmitFrom(f, src.set().elems, index, out, bottom);
  }

 private:
  using Range = std::pair<uint64_t, uint64_t>;  // [lo, hi) in a KeyIndex

  Status EmitFrom(Frame* f, const std::vector<Value>& xs, const KeyIndex* index,
                  std::vector<Value>* out, bool* bottom) const {
    if (index != nullptr) {
      AQL_ASSIGN_OR_RETURN(std::optional<Range> run, Match(f, *index));
      if (!run) {
        *bottom = true;
        return Status::OK();
      }
      return EmitRun(f, xs, *index, *run, out, bottom);
    }
    if (ShouldParallelize(xs.size())) {
      AQL_ASSIGN_OR_RETURN(
          LoopParts lp,
          EvalBodyParallel(*f, binder_slot_, body_.get(), xs.size(),
                           [&xs](uint64_t i) -> const Value& { return xs[i]; }));
      for (uint64_t i = 0; i < xs.size(); ++i) {
        if (i == lp.terminal) {
          *bottom = lp.terminal_is_bottom;
          return lp.terminal_status;
        }
        const auto& elems = lp.parts[i].set().elems;
        out->insert(out->end(), elems.begin(), elems.end());
      }
      return Status::OK();
    }
    for (const Value& x : xs) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      f->slots[binder_slot_] = x;
      AQL_RETURN_IF_ERROR(body_->Emit(f, out, bottom));
      if (*bottom) return Status::OK();
    }
    return Status::OK();
  }

  // The filter's key index over `src` in this frame. nullptr means scan:
  // no filter, an empty source (whose scan never evaluates P), the first
  // sight of a source set, or some key ⊥ or an error. The second sight of
  // the same set builds the index.
  Result<const KeyIndex*> IndexFor(Frame* f, const Value& src) const {
    if (!filter_ || src.set().elems.empty()) return nullptr;
    FilterMemo& memo = f->memos[filter_->memo];
    if (memo.source.kind() != ValueKind::kSet || &memo.source.set() != &src.set()) {
      memo = FilterMemo{src, nullptr, false, {}};
      return nullptr;
    }
    if (memo.index == nullptr && !memo.unusable) {
      AQL_ASSIGN_OR_RETURN(memo.index, BuildIndex(f, src.set().elems));
      memo.unusable = memo.index == nullptr;
    }
    return memo.index.get();
  }

  // nullptr when some key is ⊥ or an error: the scan then meets it in set
  // order and answers exactly as it always did.
  Result<std::shared_ptr<const KeyIndex>> BuildIndex(Frame* f,
                                                     const std::vector<Value>& xs) const {
    std::vector<Value> keys;
    keys.reserve(xs.size());
    for (uint64_t i = 0; i < xs.size(); ++i) {
      if ((i & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
      f->slots[binder_slot_] = xs[i];
      Result<Value> k = filter_->key->Run(f);
      if (!k.ok() || k->is_bottom()) return std::shared_ptr<const KeyIndex>();
      keys.push_back(std::move(k).value());
    }
    auto index = std::make_shared<KeyIndex>();
    index->pos.resize(xs.size());
    std::iota(index->pos.begin(), index->pos.end(), uint64_t{0});
    std::stable_sort(index->pos.begin(), index->pos.end(), [&keys](uint64_t a, uint64_t b) {
      return Value::Compare(keys[a], keys[b]) < 0;
    });
    index->keys.reserve(xs.size());
    for (uint64_t p : index->pos) index->keys.push_back(std::move(keys[p]));
    return std::shared_ptr<const KeyIndex>(std::move(index));
  }

  // P once, then the run of keys equal to it; nullopt when P is ⊥. Every
  // key is known defined, so the scan's first ⊥ or error would have been
  // P's or one of the run's T's: the same answer.
  Result<std::optional<Range>> Match(Frame* f, const KeyIndex& index) const {
    AQL_ASSIGN_OR_RETURN(Value p, filter_->probe->Run(f));
    if (p.is_bottom()) return std::optional<Range>();
    GlobalExecStats().filter_indexed.fetch_add(1, std::memory_order_relaxed);
    auto [lo, hi] = std::equal_range(
        index.keys.begin(), index.keys.end(), p,
        [](const Value& a, const Value& b) { return Value::Compare(a, b) < 0; });
    return std::optional<Range>(
        Range(lo - index.keys.begin(), hi - index.keys.begin()));
  }

  // T on a run's elements, in set order: those the scan's `if` takes.
  Status EmitRun(Frame* f, const std::vector<Value>& xs, const KeyIndex& index, Range run,
                 std::vector<Value>* out, bool* bottom) const {
    for (uint64_t j = run.first; j < run.second; ++j) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      f->slots[binder_slot_] = xs[index.pos[j]];
      AQL_RETURN_IF_ERROR(filter_->then_branch->Emit(f, out, bottom));
      if (*bottom) return Status::OK();
    }
    return Status::OK();
  }

  // With a closed T, every probe that lands on one run gives the same set:
  // it is built at the run's first probe and shared after that, so nest's
  // n probes build each group once.
  Result<Value> Group(Frame* f, const std::vector<Value>& xs, const KeyIndex& index) const {
    AQL_ASSIGN_OR_RETURN(std::optional<Range> run, Match(f, index));
    if (!run) return Value::Bottom();
    if (run->first == run->second) return Value::EmptySet();
    std::vector<Value>& groups = f->memos[filter_->memo].groups;
    if (groups.empty()) groups.resize(xs.size());
    if (!groups[run->first].is_bottom()) return groups[run->first];
    std::vector<Value> acc;
    bool bottom = false;
    AQL_RETURN_IF_ERROR(EmitRun(f, xs, index, *run, &acc, &bottom));
    if (bottom) return Value::Bottom();
    groups[run->first] = Value::MakeSet(std::move(acc));
    return groups[run->first];
  }

  size_t binder_slot_;
  NodePtr body_, source_;
  std::optional<EquiFilter> filter_;
};

class GetNode : public Node {
 public:
  explicit GetNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value v, inner_->Run(f));
    if (v.is_bottom()) return Value::Bottom();
    if (v.set().elems.size() != 1) return Value::Bottom();
    return v.set().elems[0];
  }

 private:
  NodePtr inner_;
};

class IfNode : public Node {
 public:
  IfNode(NodePtr cond, NodePtr then_n, NodePtr else_n)
      : cond_(std::move(cond)), then_(std::move(then_n)), else_(std::move(else_n)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value c, cond_->Run(f));
    if (c.is_bottom()) return Value::Bottom();
    return (c.bool_value() ? then_ : else_)->Run(f);
  }
  Status Emit(Frame* f, std::vector<Value>* out, bool* bottom) const override {
    AQL_ASSIGN_OR_RETURN(Value c, cond_->Run(f));
    if (c.is_bottom()) {
      *bottom = true;
      return Status::OK();
    }
    return (c.bool_value() ? then_ : else_)->Emit(f, out, bottom);
  }

 private:
  NodePtr cond_, then_, else_;
};

class CmpNode : public Node {
 public:
  CmpNode(CmpOp op, NodePtr a, NodePtr b) : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    int c = Value::Compare(a, b);
    switch (op_) {
      case CmpOp::kEq: return Value::Bool(c == 0);
      case CmpOp::kNe: return Value::Bool(c != 0);
      case CmpOp::kLt: return Value::Bool(c < 0);
      case CmpOp::kLe: return Value::Bool(c <= 0);
      case CmpOp::kGt: return Value::Bool(c > 0);
      case CmpOp::kGe: return Value::Bool(c >= 0);
    }
    return Status::Internal("bad cmp op");
  }

 private:
  CmpOp op_;
  NodePtr a_, b_;
};

class ArithNode : public Node {
 public:
  ArithNode(ArithOp op, NodePtr a, NodePtr b)
      : op_(op), a_(std::move(a)), b_(std::move(b)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value a, a_->Run(f));
    if (a.is_bottom()) return Value::Bottom();
    AQL_ASSIGN_OR_RETURN(Value b, b_->Run(f));
    if (b.is_bottom()) return Value::Bottom();
    if (a.kind() == ValueKind::kNat && b.kind() == ValueKind::kNat) {
      uint64_t x = a.nat_value(), y = b.nat_value();
      switch (op_) {
        case ArithOp::kAdd: return Value::Nat(x + y);
        case ArithOp::kMonus: return Value::Nat(x >= y ? x - y : 0);
        case ArithOp::kMul: return Value::Nat(x * y);
        case ArithOp::kDiv: return y == 0 ? Value::Bottom() : Value::Nat(x / y);
        case ArithOp::kMod: return y == 0 ? Value::Bottom() : Value::Nat(x % y);
      }
    }
    if (a.kind() == ValueKind::kReal && b.kind() == ValueKind::kReal) {
      double x = a.real_value(), y = b.real_value();
      switch (op_) {
        case ArithOp::kAdd: return Value::Real(x + y);
        case ArithOp::kMonus: return Value::Real(x - y);
        case ArithOp::kMul: return Value::Real(x * y);
        case ArithOp::kDiv: return Value::Real(x / y);
        case ArithOp::kMod: return Value::Real(std::fmod(x, y));
      }
    }
    return Status::EvalError("arithmetic on non-numeric values");
  }

 private:
  ArithOp op_;
  NodePtr a_, b_;
};

class GenNode : public Node {
 public:
  explicit GenNode(NodePtr inner) : inner_(std::move(inner)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value n, inner_->Run(f));
    if (n.is_bottom()) return Value::Bottom();
    if (n.kind() != ValueKind::kNat) return Status::EvalError("gen of non-nat");
    std::vector<Value> elems;
    // Clamped so a huge bound reaches the interrupt checks below rather
    // than dying up front in one giant allocation.
    elems.reserve(std::min<uint64_t>(n.nat_value(), uint64_t{1} << 20));
    for (uint64_t i = 0; i < n.nat_value(); ++i) {
      if ((i & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
      elems.push_back(Value::Nat(i));
    }
    return Value::MakeSetCanonical(std::move(elems));
  }

 private:
  NodePtr inner_;
};

// Compile-time aggregate pruning: a sum nest of the shape
//   sum i1 < e1. ... sum ik < ek. S[i1+lo1, ..., ik+lok]
// over a tiled-array literal reads row-by-row instead of materializing,
// and skips the read entirely for any leading row a zone map proves
// constant (LazyRealSlab::ConstantRowRun) — the fold is replayed on the
// constant with the exact same left-to-right addition order, so results
// stay bit-identical to the generic nested SumNode path.
struct SumPushdown {
  Value base;                    // the tiled-array literal (keeps the slab alive)
  std::vector<uint64_t> lower;   // per-dimension constant offsets
  std::vector<uint64_t> extent;  // per-binder trip counts e1..ek
  uint64_t row_volume = 1;       // product(extent[1..]) — one leading row
};

// Matches the whole nest rooted at `e`: each level must be a sum over
// `gen(const)`, and the innermost body must be a subscript of a tiled
// literal that MatchRectAccess accepts under the nest binders with unit
// stride (offset + binder). The compile-time Fits check makes every
// iteration provably in range, so the body is total and the pruned fold
// needs no per-point ⊥ handling. Records an aggregate-prune proof
// certificate naming the per-dimension range facts.
std::unique_ptr<const SumPushdown> TryMatchSumPushdown(const ExprPtr& e,
                                                       analysis::Proof* proof) {
  std::vector<std::string> binders;
  std::vector<uint64_t> extents;
  ExprPtr cur = e;
  while (cur->is(ExprKind::kSum)) {
    const ExprPtr& src = cur->child(1);
    std::optional<uint64_t> n;
    if (!src->is(ExprKind::kGen) || !(n = NatConstOf(src->child(0)))) return nullptr;
    binders.push_back(cur->binder());
    extents.push_back(*n);
    cur = cur->child(0);
  }
  const size_t k = binders.size();
  std::optional<analysis::RectAccess> m = analysis::MatchRectAccess(cur, binders);
  if (!m || !m->UnitStride() || !m->base->is(ExprKind::kLiteral)) return nullptr;
  const Value& v = m->base->literal();
  if (v.kind() != ValueKind::kArray ||
      v.array().payload != ArrayRep::Payload::kTiled ||
      !m->Fits(extents, v.array().dims)) {
    return nullptr;
  }
  auto pd = std::make_unique<SumPushdown>();
  pd->base = v;
  pd->lower = std::move(m->lower);
  pd->extent = extents;
  for (size_t j = 1; j < k; ++j) {
    if (extents[j] != 0 && pd->row_volume > kUnboxedAllocLimit / extents[j]) {
      return nullptr;  // a single row would blow the buffer budget
    }
    pd->row_volume *= extents[j];
  }
  if (proof != nullptr) {
    std::vector<std::string> facts;
    for (size_t j = 0; j < k; ++j) {
      facts.push_back(StrCat("dim ", j, ": ", binders[j], " + ", pd->lower[j],
                             " sweeps [", pd->lower[j], ", ",
                             pd->lower[j] + (extents[j] == 0 ? 0 : extents[j] - 1),
                             "] inside extent ", v.array().dims[j]));
    }
    proof->Add("aggregate-prune",
               StrCat("sum over ", analysis::RenderArrayExpr(m->base)),
               std::move(facts));
  }
  return pd;
}

// A sum over a set, or — when `counted` — over `gen(n)` without building
// the set: `source` is then the node for n, and the binder takes the nats
// 0..n-1 in the set's (ascending) order. Either way the fold runs left to
// right from the nat identity, exactly as the tree walker adds.
class SumNode : public Node {
 public:
  SumNode(size_t binder_slot, NodePtr body, NodePtr source, bool counted,
          std::unique_ptr<const SumPushdown> pushdown = nullptr)
      : binder_slot_(binder_slot),
        body_(std::move(body)),
        source_(std::move(source)),
        counted_(counted),
        pushdown_(std::move(pushdown)) {}
  Result<Value> Run(Frame* f) const override {
    if (pushdown_ != nullptr && CurrentExecOptions().pushdown) {
      return RunPruned();
    }
    AQL_ASSIGN_OR_RETURN(Value src, source_->Run(f));
    if (src.is_bottom()) return Value::Bottom();
    if (counted_) {
      if (src.kind() != ValueKind::kNat) return Status::EvalError("gen of non-nat");
      return Fold(f, src.nat_value(), [](uint64_t i) { return Value::Nat(i); });
    }
    const std::vector<Value>& xs = src.set().elems;
    return Fold(f, xs.size(), [&xs](uint64_t i) -> const Value& { return xs[i]; });
  }

 private:
  template <typename ElemFn>
  Result<Value> Fold(Frame* f, uint64_t n, const ElemFn& elem) const {
    uint64_t nat_total = 0;
    double real_total = 0;
    bool is_real = false, first = true;
    // The parts buffer is one boxed Value per trip: a counted sum beyond
    // the boxed limit folds sequentially (and stays cancellable) instead
    // of allocating it up front.
    if (ShouldParallelize(n) && n <= kBoxedAllocLimit) {
      // Bodies evaluate in parallel; the fold below runs left-to-right on
      // one thread so real addition rounds exactly as it does sequentially.
      AQL_ASSIGN_OR_RETURN(LoopParts lp,
                           EvalBodyParallel(*f, binder_slot_, body_.get(), n, elem));
      for (uint64_t i = 0; i < n; ++i) {
        if (i == lp.terminal) {
          if (lp.terminal_is_bottom) return Value::Bottom();
          return lp.terminal_status;
        }
        AQL_RETURN_IF_ERROR(
            Accumulate(lp.parts[i], &nat_total, &real_total, &is_real, &first));
      }
    } else {
      for (uint64_t i = 0; i < n; ++i) {
        AQL_RETURN_IF_ERROR(CheckInterrupt());
        f->slots[binder_slot_] = elem(i);
        AQL_ASSIGN_OR_RETURN(Value part, body_->Run(f));
        if (part.is_bottom()) return Value::Bottom();
        AQL_RETURN_IF_ERROR(Accumulate(part, &nat_total, &real_total, &is_real, &first));
      }
    }
    if (first) return Value::Nat(0);
    return is_real ? Value::Real(real_total) : Value::Nat(nat_total);
  }

  static Status Accumulate(const Value& part, uint64_t* nat_total, double* real_total,
                           bool* is_real, bool* first) {
    if (*first) {
      *is_real = part.kind() == ValueKind::kReal;
      *first = false;
    }
    if (*is_real) {
      if (part.kind() != ValueKind::kReal) {
        return Status::EvalError("Sum body mixed nat and real");
      }
      *real_total += part.real_value();
    } else {
      if (part.kind() != ValueKind::kNat) {
        return Status::EvalError("Sum body must be nat or real");
      }
      *nat_total += part.nat_value();
    }
    return Status::OK();
  }

  // The pruned fold: row-by-row over the leading dimension, consulting the
  // slab's zone maps first. Mirrors the generic nest exactly — each leading
  // row contributes its own inner left-to-right fold, and rows accumulate
  // left-to-right — so a run of constant rows adds the SAME inner sub-sum
  // once per row instead of re-reading the tile.
  Result<Value> RunPruned() const {
    const SumPushdown& pd = *pushdown_;
    for (uint64_t ext : pd.extent) {
      // An empty trip count anywhere makes every (nested) fold start and
      // stay at the nat identity, exactly like the generic path.
      if (ext == 0) return Value::Nat(0);
    }
    const LazyRealSlab& slab = *pd.base.array().tiled;
    const size_t k = pd.extent.size();
    std::vector<double> row(pd.row_volume);
    std::vector<uint64_t> start(k), count(k);
    for (size_t j = 1; j < k; ++j) {
      start[j] = pd.lower[j];
      count[j] = pd.extent[j];
    }
    double total = 0;
    for (uint64_t i = 0; i < pd.extent[0];) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      const uint64_t r = pd.lower[0] + i;
      double c = 0;
      const uint64_t run = slab.ConstantRowRun(r, &c);
      if (run > 0) {
        const double sub = FoldConst(c, 1);
        const uint64_t cover = std::min<uint64_t>(run, pd.extent[0] - i);
        for (uint64_t t = 0; t < cover; ++t) total += sub;
        i += cover;
        continue;
      }
      start[0] = r;
      count[0] = 1;
      AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, row.data()));
      size_t pos = 0;
      total += FoldRow(row.data(), &pos, 1);
      ++i;
    }
    return Value::Real(total);
  }

  // Inner fold of one leading row, replicating the nested SumNode
  // addition order (level j sums extent[j] sub-folds left-to-right).
  double FoldRow(const double* row, size_t* pos, size_t level) const {
    if (level == pushdown_->extent.size()) return row[(*pos)++];
    double s = 0;
    for (uint64_t t = 0; t < pushdown_->extent[level]; ++t) {
      s += FoldRow(row, pos, level + 1);
    }
    return s;
  }
  double FoldConst(double c, size_t level) const {
    if (level == pushdown_->extent.size()) return c;
    double s = 0;
    for (uint64_t t = 0; t < pushdown_->extent[level]; ++t) {
      s += FoldConst(c, level + 1);
    }
    return s;
  }

  size_t binder_slot_;
  NodePtr body_, source_;
  bool counted_;
  std::unique_ptr<const SumPushdown> pushdown_;
};

// Compile-time subslab pushdown: a tabulation of the shape
//   [[ S[lo1 + s1·i1, ..., lok + sk·ik] | i1 < e1, ..., ik < ek ]]
// where S is a tiled-array literal (a resolved out-of-core readval) turns
// into ONE bulk range read against the tile store (strided reads when
// some sj > 1) — the optimizer's subscript-range constraints pushed down
// into TileStore instead of materializing the whole variable and
// gathering point-wise. The access is MatchRectAccess's; the base must be
// a LITERAL tiled array of rank k so the region is known to come straight
// from storage.
std::unique_ptr<const analysis::RectAccess> TryMatchPushdown(const ExprPtr& e,
                                                             analysis::Proof* proof) {
  const std::vector<std::string>& binders = e->binders();
  std::optional<analysis::RectAccess> m =
      analysis::MatchRectAccess(e->tab_body(), binders);
  if (!m || !m->base->is(ExprKind::kLiteral)) return nullptr;
  const Value& v = m->base->literal();
  if (v.kind() != ValueKind::kArray ||
      v.array().payload != ArrayRep::Payload::kTiled ||
      v.array().dims.size() != binders.size()) {
    return nullptr;
  }
  if (proof != nullptr) {
    std::vector<std::string> facts;
    for (size_t j = 0; j < binders.size(); ++j) {
      facts.push_back(StrCat("dim ", j, ": index = ", m->lower[j], " + ",
                             m->stride[j], "*", binders[j], " (affine in ",
                             binders[j], ")"));
    }
    proof->Add(m->UnitStride() ? "subslab-pushdown" : "strided-pushdown",
               StrCat("tab over ", analysis::RenderArrayExpr(m->base)),
               std::move(facts));
  }
  return std::make_unique<const analysis::RectAccess>(std::move(*m));
}

class TabNode : public Node {
 public:
  TabNode(std::vector<size_t> binder_slots, NodePtr body, std::vector<NodePtr> bounds,
          std::unique_ptr<const KernelSpec> kernel_spec,
          std::unique_ptr<const analysis::RectAccess> pushdown)
      : binder_slots_(std::move(binder_slots)),
        body_(std::move(body)),
        bounds_(std::move(bounds)),
        kernel_spec_(std::move(kernel_spec)),
        pushdown_(std::move(pushdown)) {}

  Result<Value> Run(Frame* f) const override {
    size_t k = binder_slots_.size();
    std::vector<uint64_t> dims(k);
    for (size_t j = 0; j < k; ++j) {
      AQL_ASSIGN_OR_RETURN(Value b, bounds_[j]->Run(f));
      if (b.is_bottom()) return Value::Bottom();
      if (b.kind() != ValueKind::kNat) {
        return Status::EvalError("tabulation bound is not a nat");
      }
      dims[j] = b.nat_value();
    }
    AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));
    if (total == 0) {
      auto arr = Value::MakeArray(std::move(dims), {});
      if (!arr.ok()) return Status::Internal(arr.status().message());
      return std::move(arr).value();
    }

    // Subslab pushdown: one bulk tile-store range read replaces the whole
    // gather loop. Only when the requested region fits inside the base —
    // an out-of-range region must fall through so each out-of-bounds
    // point keeps its ⊥ hole (bit-identical to the generic path; in-range
    // elements are decoded by the very same tile reads either way).
    if (pushdown_ != nullptr && total <= kUnboxedAllocLimit &&
        CurrentExecOptions().pushdown) {
      const ArrayRep& base = pushdown_->base->literal().array();
      const bool fits = pushdown_->Fits(dims, base.dims);
      if (fits && pushdown_->UnitStride()) {
        std::vector<double> buf(total);
        // An I/O failure here is the query's error: the generic path would
        // hit the same failing read element-wise.
        AQL_RETURN_IF_ERROR(base.tiled->ReadInto(pushdown_->lower, dims, buf.data()));
        auto arr = Value::MakeRealArray(dims, std::move(buf));
        if (!arr.ok()) return Status::Internal(arr.status().message());
        GlobalExecStats().tab_pushdowns.fetch_add(1, std::memory_order_relaxed);
        GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
        return std::move(arr).value();
      }
      if (fits) {
        AQL_ASSIGN_OR_RETURN(Value arr, RunStridedPushdown(dims, total));
        GlobalExecStats().tab_pushdowns.fetch_add(1, std::memory_order_relaxed);
        GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
        return arr;
      }
    }

    // Fused kernel: scalar body over an unboxed result buffer. A ⊥ at any
    // point aborts the kernel and re-runs generically (the partial array
    // keeps per-point ⊥ holes, which the unboxed payloads cannot hold).
    // When instantiation discharges every ⊥ source statically, the loop
    // drops the per-cell checks entirely, unless ExecOptions::unchecked is
    // off (the checked reference path for tests and benchmarks).
    if (kernel_spec_ != nullptr && total <= kUnboxedAllocLimit) {
      if (std::unique_ptr<Kernel> kernel = Kernel::Instantiate(*kernel_spec_, *f)) {
        if (kernel->unchecked() && CurrentExecOptions().unchecked) {
          AQL_ASSIGN_OR_RETURN(Value arr, RunKernelUnchecked(*kernel, dims, total));
          GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
          GlobalExecStats().kernels.fetch_add(1, std::memory_order_relaxed);
          GlobalExecStats().unchecked_kernels.fetch_add(1, std::memory_order_relaxed);
          return arr;
        }
        bool bottom_seen = false;
        AQL_ASSIGN_OR_RETURN(Value arr, RunKernel(*kernel, dims, total, &bottom_seen));
        if (!bottom_seen) {
          GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
          GlobalExecStats().kernels.fetch_add(1, std::memory_order_relaxed);
          return arr;
        }
      }
    }

    // Generic parallel: chunked body interpretation over private frames,
    // elements written straight into their row-major slots.
    if (ShouldParallelize(total) && total <= kBoxedAllocLimit) {
      std::vector<Value> elems(total);
      Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
        Frame local = *f;
        std::vector<uint64_t> index = DecodeIndex(begin, dims);
        for (uint64_t flat = begin; flat < end; ++flat) {
          if (((flat - begin) & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
          for (size_t j = 0; j < k; ++j) {
            local.slots[binder_slots_[j]] = Value::Nat(index[j]);
          }
          AQL_ASSIGN_OR_RETURN(Value v, body_->Run(&local));
          elems[flat] = std::move(v);  // bottom stays per-point (partial arrays)
          IncrementIndex(index, dims);
        }
        return Status::OK();
      });
      AQL_RETURN_IF_ERROR(ps);
      return Finish(std::move(dims), std::move(elems));
    }

    // Sequential fallback; also the only path for totals beyond the eager
    // allocation limits, so oversized tabulations stay cancellable.
    std::vector<Value> elems;
    elems.reserve(std::min<uint64_t>(total, uint64_t{1} << 20));
    std::vector<uint64_t> index(k, 0);
    for (uint64_t flat = 0; flat < total; ++flat) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      for (size_t j = 0; j < k; ++j) f->slots[binder_slots_[j]] = Value::Nat(index[j]);
      AQL_ASSIGN_OR_RETURN(Value v, body_->Run(f));
      elems.push_back(std::move(v));  // bottom stays per-point (partial arrays)
      IncrementIndex(index, dims);
    }
    return Finish(std::move(dims), std::move(elems));
  }

 private:
  // Strided bulk read: one output row at a time, decimating covering
  // range reads on the last dimension. Bit-identical to the generic
  // gather (the same tile decode serves both); strides and bounds were
  // validated by the caller's fits check.
  Result<Value> RunStridedPushdown(const std::vector<uint64_t>& dims,
                                   uint64_t total) const {
    const LazyRealSlab& slab = *pushdown_->base->literal().array().tiled;
    const size_t k = dims.size();
    std::vector<double> buf(total);
    const uint64_t lastn = dims[k - 1];
    const uint64_t lasts = pushdown_->stride[k - 1];
    const uint64_t rows = total / lastn;  // lastn >= 1 (total > 0)
    std::vector<uint64_t> outer(k > 1 ? k - 1 : 0, 0);
    std::vector<uint64_t> start(k), count(k, 1);
    std::vector<double> tmp;
    for (uint64_t r = 0; r < rows; ++r) {
      AQL_RETURN_IF_ERROR(CheckInterrupt());
      for (size_t j = 0; j + 1 < k; ++j) {
        start[j] = pushdown_->lower[j] + pushdown_->stride[j] * outer[j];
      }
      double* out = &buf[r * lastn];
      if (lasts == 1) {
        start[k - 1] = pushdown_->lower[k - 1];
        count[k - 1] = lastn;
        AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, out));
        count[k - 1] = 1;
      } else {
        // Covering reads: fetch [first, last] of each chunk contiguously
        // and keep every lasts-th element. Chunked so the scratch buffer
        // stays small for huge strides.
        constexpr uint64_t kChunk = uint64_t{1} << 16;
        uint64_t done = 0;
        while (done < lastn) {
          const uint64_t take =
              std::min<uint64_t>(lastn - done, std::max<uint64_t>(1, kChunk / lasts));
          start[k - 1] = pushdown_->lower[k - 1] + lasts * done;
          count[k - 1] = lasts * (take - 1) + 1;
          tmp.resize(count[k - 1]);
          AQL_RETURN_IF_ERROR(slab.ReadInto(start, count, tmp.data()));
          for (uint64_t t = 0; t < take; ++t) out[done + t] = tmp[t * lasts];
          done += take;
          count[k - 1] = 1;
        }
      }
      for (size_t j = k > 1 ? k - 1 : 0; j-- > 0;) {
        if (++outer[j] < dims[j]) break;
        outer[j] = 0;
      }
    }
    auto arr = Value::MakeRealArray(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  static Result<Value> Finish(std::vector<uint64_t> dims, std::vector<Value> elems) {
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    if (arr.value().array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(arr).value();
  }

  // Chunk `begin`'s multi-index, padded with the kernel's sum-binder
  // scratch slots (Kernel::index_width).
  static std::vector<uint64_t> KernelIndex(uint64_t begin,
                                           const std::vector<uint64_t>& dims,
                                           size_t width) {
    std::vector<uint64_t> index = DecodeIndex(begin, dims);
    if (index.size() < width) index.resize(width, 0);
    return index;
  }

  template <typename T, typename EvalFn>
  static Result<Value> KernelLoop(const std::vector<uint64_t>& dims, uint64_t total,
                                  size_t width, bool* bottom_seen, EvalFn&& eval,
                                  Result<Value> (*make)(std::vector<uint64_t>,
                                                        std::vector<T>)) {
    std::vector<T> buf(total);
    std::atomic<bool> bottom{false};
    Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
      std::vector<uint64_t> index = KernelIndex(begin, dims, width);
      for (uint64_t flat = begin; flat < end; ++flat) {
        if (((flat - begin) & 0xFFF) == 0) {
          AQL_RETURN_IF_ERROR(CheckInterrupt());
          if (bottom.load(std::memory_order_relaxed)) return Status::OK();
        }
        if (!eval(index.data(), &buf[flat])) {
          bottom.store(true, std::memory_order_relaxed);
          return Status::OK();
        }
        IncrementIndex(index, dims);
      }
      return Status::OK();
    });
    AQL_RETURN_IF_ERROR(ps);
    if (bottom.load(std::memory_order_relaxed)) {
      *bottom_seen = true;
      return Value::Bottom();  // placeholder; caller re-runs generically
    }
    auto arr = make(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  // The unchecked loop: evaluation is total, so there is no ⊥ flag to
  // poll and no per-cell branch on the eval result — just index decode,
  // body, store. Interrupt polling stays (deadlines must still bite); the
  // final poll catches a sum that stopped early on an interrupt in the
  // last cells of a chunk.
  template <typename T, typename EvalFn>
  static Result<Value> KernelLoopU(const std::vector<uint64_t>& dims, uint64_t total,
                                   size_t width, EvalFn&& eval,
                                   Result<Value> (*make)(std::vector<uint64_t>,
                                                         std::vector<T>)) {
    std::vector<T> buf(total);
    Status ps = ParallelFor(total, [&](uint64_t begin, uint64_t end) -> Status {
      std::vector<uint64_t> index = KernelIndex(begin, dims, width);
      for (uint64_t flat = begin; flat < end; ++flat) {
        if (((flat - begin) & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
        buf[flat] = eval(index.data());
        IncrementIndex(index, dims);
      }
      return Status::OK();
    });
    AQL_RETURN_IF_ERROR(ps);
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    auto arr = make(dims, std::move(buf));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    return std::move(arr).value();
  }

  static Result<Value> RunKernelUnchecked(const Kernel& kernel,
                                          const std::vector<uint64_t>& dims,
                                          uint64_t total) {
    const size_t width = kernel.index_width();
    switch (kernel.result_type()) {
      case Kernel::Type::kNat:
        return KernelLoopU<uint64_t>(
            dims, total, width,
            [&kernel](uint64_t* idx) { return kernel.EvalNatUnchecked(idx); },
            &Value::MakeNatArray);
      case Kernel::Type::kReal:
        return KernelLoopU<double>(
            dims, total, width,
            [&kernel](uint64_t* idx) { return kernel.EvalRealUnchecked(idx); },
            &Value::MakeRealArray);
      case Kernel::Type::kBool:
        return KernelLoopU<uint8_t>(
            dims, total, width,
            [&kernel](uint64_t* idx) { return kernel.EvalBoolUnchecked(idx); },
            &Value::MakeBoolArray);
    }
    return Status::Internal("bad kernel result type");
  }

  static Result<Value> RunKernel(const Kernel& kernel, const std::vector<uint64_t>& dims,
                                 uint64_t total, bool* bottom_seen) {
    const size_t width = kernel.index_width();
    switch (kernel.result_type()) {
      case Kernel::Type::kNat:
        return KernelLoop<uint64_t>(
            dims, total, width, bottom_seen,
            [&kernel](uint64_t* idx, uint64_t* out) { return kernel.EvalNat(idx, out); },
            &Value::MakeNatArray);
      case Kernel::Type::kReal:
        return KernelLoop<double>(
            dims, total, width, bottom_seen,
            [&kernel](uint64_t* idx, double* out) { return kernel.EvalReal(idx, out); },
            &Value::MakeRealArray);
      case Kernel::Type::kBool:
        return KernelLoop<uint8_t>(
            dims, total, width, bottom_seen,
            [&kernel](uint64_t* idx, uint8_t* out) { return kernel.EvalBool(idx, out); },
            &Value::MakeBoolArray);
    }
    return Status::Internal("bad kernel result type");
  }

  std::vector<size_t> binder_slots_;
  NodePtr body_;
  std::vector<NodePtr> bounds_;
  std::unique_ptr<const KernelSpec> kernel_spec_;
  std::unique_ptr<const analysis::RectAccess> pushdown_;
};

bool ExtractIndexValue(const Value& v, std::vector<uint64_t>* out) {
  out->clear();
  if (v.kind() == ValueKind::kNat) {
    out->push_back(v.nat_value());
    return true;
  }
  if (v.kind() == ValueKind::kTuple) {
    for (const Value& f : v.tuple_fields()) {
      if (f.kind() != ValueKind::kNat) return false;
      out->push_back(f.nat_value());
    }
    return out->size() >= 2;
  }
  return false;
}

class SubscriptNode : public Node {
 public:
  SubscriptNode(NodePtr arr, NodePtr idx) : arr_(std::move(arr)), idx_(std::move(idx)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value arr, arr_->Run(f));
    if (arr.is_bottom()) return Value::Bottom();
    if (arr.kind() != ValueKind::kArray) {
      return Status::EvalError("subscript of non-array");
    }
    AQL_ASSIGN_OR_RETURN(Value idx, idx_->Run(f));
    if (idx.is_bottom()) return Value::Bottom();
    const ArrayRep& a = arr.array();
    if (idx.kind() == ValueKind::kNat) {  // rank 1, without an index vector
      if (a.dims.size() != 1 || idx.nat_value() >= a.dims[0]) return Value::Bottom();
      return a.At(idx.nat_value());
    }
    std::vector<uint64_t> index;
    if (!ExtractIndexValue(idx, &index)) {
      return Status::EvalError("array index is not a nat or tuple of nats");
    }
    if (!a.InBounds(index)) return Value::Bottom();
    return a.At(a.Flatten(index));
  }

 private:
  NodePtr arr_, idx_;
};

class DimNode : public Node {
 public:
  DimNode(size_t rank, NodePtr arr) : rank_(rank), arr_(std::move(arr)) {}
  Result<Value> Run(Frame* f) const override {
    AQL_ASSIGN_OR_RETURN(Value arr, arr_->Run(f));
    if (arr.is_bottom()) return Value::Bottom();
    if (arr.kind() != ValueKind::kArray) return Status::EvalError("dim of non-array");
    const ArrayRep& a = arr.array();
    if (a.dims.size() != rank_) return Status::EvalError("dim rank mismatch");
    if (rank_ == 1) return Value::Nat(a.dims[0]);
    std::vector<Value> fields;
    fields.reserve(rank_);
    for (uint64_t d : a.dims) fields.push_back(Value::Nat(d));
    return Value::MakeTuple(std::move(fields));
  }

 private:
  size_t rank_;
  NodePtr arr_;
};

// index_k, §2's implicit group-by. The source streams its (key, value)
// pairs (Node::Emit); they are bucketed by flat key and each bucket is
// canonicalized on its own, so the pair set is never built and sorted as
// a whole. The result's extents go through the overflow and element-cap
// check, and its {} holes are filled incrementally (cancellable), as in a
// tabulation's sequential loop. A malformed pair sends the emitted pairs
// through the canonical validation loop instead, so the error, and which
// one comes first, is the same as over the canonical set.
class IndexNode : public Node {
 public:
  IndexNode(size_t rank, NodePtr source) : rank_(rank), source_(std::move(source)) {}
  Result<Value> Run(Frame* f) const override {
    std::vector<Value> pairs;
    bool bottom = false;
    AQL_RETURN_IF_ERROR(source_->Emit(f, &pairs, &bottom));
    if (bottom) return Value::Bottom();
    std::vector<uint64_t> dims(rank_, 0), idx;
    std::vector<uint64_t> coords;  // rank_ per pair
    coords.reserve(pairs.size() * rank_);
    bool overflow = false;
    for (const Value& pair : pairs) {
      if (!KeyOf(pair, &idx).ok()) return FirstMalformed(std::move(pairs));
      for (size_t j = 0; j < rank_; ++j) {
        overflow = overflow || idx[j] == UINT64_MAX;
        dims[j] = std::max(dims[j], idx[j] + 1);
      }
      coords.insert(coords.end(), idx.begin(), idx.end());
    }
    if (overflow) return Status::EvalError("index key overflows the element count");
    AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));

    // (flat key, emission position), sorted: each bucket is one run, in
    // emission order, so MakeSet keeps the first of equal values.
    std::vector<std::pair<uint64_t, uint64_t>> order(pairs.size());
    for (uint64_t i = 0; i < pairs.size(); ++i) {
      uint64_t flat = 0;
      for (size_t j = 0; j < rank_; ++j) flat = flat * dims[j] + coords[i * rank_ + j];
      order[i] = {flat, i};
    }
    std::sort(order.begin(), order.end());
    std::vector<Value> elems;
    elems.reserve(std::min<uint64_t>(total, uint64_t{1} << 20));
    const Value empty = Value::EmptySet();
    size_t next = 0;
    for (uint64_t flat = 0; flat < total; ++flat) {
      if ((flat & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
      if (next == order.size() || order[next].first != flat) {
        elems.push_back(empty);
        continue;
      }
      std::vector<Value> bucket;
      for (; next < order.size() && order[next].first == flat; ++next) {
        bucket.push_back(pairs[order[next].second].tuple_fields()[1]);
      }
      elems.push_back(Value::MakeSet(std::move(bucket)));
    }
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    GlobalExecStats().index_streamed.fetch_add(1, std::memory_order_relaxed);
    return std::move(arr).value();
  }

 private:
  Status KeyOf(const Value& pair, std::vector<uint64_t>* idx) const {
    if (pair.kind() != ValueKind::kTuple || pair.tuple_fields().size() != 2) {
      return Status::EvalError("index expects (key, value) pairs");
    }
    const Value& key = pair.tuple_fields()[0];
    if (rank_ == 1) {
      if (key.kind() != ValueKind::kNat) return Status::EvalError("bad index key");
      idx->assign(1, key.nat_value());
    } else if (!ExtractIndexValue(key, idx) || idx->size() != rank_) {
      return Status::EvalError("bad index key shape");
    }
    return Status::OK();
  }

  Status FirstMalformed(std::vector<Value> pairs) const {
    const Value set = Value::MakeSet(std::move(pairs));
    std::vector<uint64_t> idx;
    for (const Value& pair : set.set().elems) AQL_RETURN_IF_ERROR(KeyOf(pair, &idx));
    return Status::Internal("index: no malformed pair after canonicalizing");
  }

  size_t rank_;
  NodePtr source_;
};

class DenseNode : public Node {
 public:
  DenseNode(size_t rank, std::vector<NodePtr> dims, std::vector<NodePtr> values)
      : rank_(rank), dims_(std::move(dims)), values_(std::move(values)) {}
  Result<Value> Run(Frame* f) const override {
    std::vector<uint64_t> dims(rank_);
    for (size_t j = 0; j < rank_; ++j) {
      AQL_ASSIGN_OR_RETURN(Value d, dims_[j]->Run(f));
      if (d.is_bottom()) return Value::Bottom();
      if (d.kind() != ValueKind::kNat) return Status::EvalError("dense dim non-nat");
      dims[j] = d.nat_value();
    }
    uint64_t total = 1;
    for (uint64_t d : dims) total *= d;
    if (total != values_.size()) return Value::Bottom();
    std::vector<Value> elems;
    elems.reserve(total);
    for (const NodePtr& v : values_) {
      AQL_ASSIGN_OR_RETURN(Value val, v->Run(f));
      elems.push_back(std::move(val));
    }
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return Status::Internal(arr.status().message());
    if (arr.value().array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(arr).value();
  }

 private:
  size_t rank_;
  std::vector<NodePtr> dims_, values_;
};

// A dense literal whose dims and elements were all compile-time constants:
// the array — with its canonical (usually unboxed) payload — is selected
// once at compile time instead of being rediscovered cell-by-cell on every
// run. Keeps DenseNode's observable counter: an unboxed materialization
// still counts per run.
class FoldedDenseNode : public Node {
 public:
  explicit FoldedDenseNode(Value v) : value_(std::move(v)) {}
  Result<Value> Run(Frame*) const override {
    if (value_.kind() == ValueKind::kArray && value_.array().unboxed()) {
      GlobalExecStats().unboxed_arrays.fetch_add(1, std::memory_order_relaxed);
    }
    return value_;
  }

 private:
  Value value_;
};

// ---------- compiler ----------

class Compiler {
 public:
  explicit Compiler(const ExternalResolver& externals) : externals_(externals) {}

  Result<Program> CompileProgram(const ExprPtr& e, const std::vector<std::string>& params) {
    scope_ = params;
    high_water_ = params.size();
    AQL_ASSIGN_OR_RETURN(NodePtr root, CompileNode(e));
    return Program(std::move(root), high_water_, memo_count_, std::move(proof_));
  }

 private:
  size_t Push(const std::string& name) {
    scope_.push_back(name);
    high_water_ = std::max(high_water_, scope_.size());
    return scope_.size() - 1;
  }
  void Pop(size_t n = 1) { scope_.resize(scope_.size() - n); }

  Result<size_t> Lookup(const std::string& name) const {
    for (size_t i = scope_.size(); i-- > 0;) {
      if (scope_[i] == name) return i;
    }
    return Status::EvalError(StrCat("unbound variable ", name, " at compile time"));
  }

  // A compile-time constant scalar expression, or nullopt.
  static std::optional<Value> ConstScalar(const ExprPtr& e) {
    switch (e->kind()) {
      case ExprKind::kNatConst: return Value::Nat(e->nat_const());
      case ExprKind::kRealConst: return Value::Real(e->real_const());
      case ExprKind::kBoolConst: return Value::Bool(e->bool_const());
      case ExprKind::kStrConst: return Value::Str(e->str_const());
      case ExprKind::kBottom: return Value::Bottom();
      case ExprKind::kLiteral: return e->literal();
      default: return std::nullopt;
    }
  }

  // Folds a dense literal with constant dims and elements into its array
  // value at compile time, selecting the canonical payload (unboxed when
  // the definedness analysis would prove it hole-free) up front. Mirrors
  // DenseNode::Run exactly: the wrapping dims product, the count-mismatch
  // ⊥, the per-point ⊥ holes. nullptr when not fully constant (or when
  // materialization must stay a runtime error, e.g. the volume cap).
  static NodePtr TryFoldDense(const ExprPtr& e) {
    std::vector<uint64_t> dims(e->dense_rank());
    for (size_t j = 0; j < e->dense_rank(); ++j) {
      std::optional<uint64_t> d = NatConstOf(e->dense_dim(j));
      if (!d) return nullptr;
      dims[j] = *d;
    }
    std::vector<Value> elems;
    elems.reserve(e->dense_value_count());
    for (size_t j = 0; j < e->dense_value_count(); ++j) {
      std::optional<Value> v = ConstScalar(e->dense_value(j));
      if (!v) return nullptr;
      elems.push_back(std::move(*v));
    }
    uint64_t total = 1;
    for (uint64_t d : dims) total *= d;  // wraps, like DenseNode::Run
    if (total != elems.size()) return NodePtr(new ConstNode(Value::Bottom()));
    auto arr = Value::MakeArray(std::move(dims), std::move(elems));
    if (!arr.ok()) return nullptr;  // keep cap/overflow errors at run time
    return NodePtr(new FoldedDenseNode(std::move(arr).value()));
  }

  Result<NodePtr> CompileNode(const ExprPtr& e) {
    switch (e->kind()) {
      case ExprKind::kVar: {
        AQL_ASSIGN_OR_RETURN(size_t slot, Lookup(e->var_name()));
        return NodePtr(new SlotNode(slot));
      }
      case ExprKind::kLambda:
        return CompileLambda(e);
      case ExprKind::kApply: {
        AQL_ASSIGN_OR_RETURN(NodePtr fn, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr arg, CompileNode(e->child(1)));
        return NodePtr(new ApplyNode(std::move(fn), std::move(arg)));
      }
      case ExprKind::kTuple: {
        std::vector<NodePtr> fields;
        for (const ExprPtr& c : e->children()) {
          AQL_ASSIGN_OR_RETURN(NodePtr n, CompileNode(c));
          fields.push_back(std::move(n));
        }
        return NodePtr(new TupleNode(std::move(fields)));
      }
      case ExprKind::kProj: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new ProjNode(e->proj_index(), e->proj_arity(), std::move(inner)));
      }
      case ExprKind::kEmptySet:
        return NodePtr(new ConstNode(Value::EmptySet()));
      case ExprKind::kSingleton: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new SingletonNode(std::move(inner)));
      }
      case ExprKind::kUnion: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new UnionNode(std::move(a), std::move(b)));
      }
      case ExprKind::kBigUnion: {
        AQL_ASSIGN_OR_RETURN(NodePtr src, CompileNode(e->child(1)));
        size_t slot = Push(e->binder());
        std::optional<EquiFilter> filter;
        auto body = CompileUnionBody(e, &filter);
        Pop();
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(
            new BigUnionNode(slot, std::move(body).value(), std::move(src), filter));
      }
      case ExprKind::kGet: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new GetNode(std::move(inner)));
      }
      case ExprKind::kBoolConst:
        return NodePtr(new ConstNode(Value::Bool(e->bool_const())));
      case ExprKind::kIf: {
        AQL_ASSIGN_OR_RETURN(NodePtr c, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr t, CompileNode(e->child(1)));
        AQL_ASSIGN_OR_RETURN(NodePtr f, CompileNode(e->child(2)));
        return NodePtr(new IfNode(std::move(c), std::move(t), std::move(f)));
      }
      case ExprKind::kCmp: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new CmpNode(e->cmp_op(), std::move(a), std::move(b)));
      }
      case ExprKind::kNatConst:
        return NodePtr(new ConstNode(Value::Nat(e->nat_const())));
      case ExprKind::kRealConst:
        return NodePtr(new ConstNode(Value::Real(e->real_const())));
      case ExprKind::kStrConst:
        return NodePtr(new ConstNode(Value::Str(e->str_const())));
      case ExprKind::kArith: {
        AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->child(1)));
        return NodePtr(new ArithNode(e->arith_op(), std::move(a), std::move(b)));
      }
      case ExprKind::kGen: {
        AQL_ASSIGN_OR_RETURN(NodePtr inner, CompileNode(e->child(0)));
        return NodePtr(new GenNode(std::move(inner)));
      }
      case ExprKind::kSum: {
        // A Sum over gen(n) counts 0..n-1 instead of building the set.
        const bool counted = e->child(1)->is(ExprKind::kGen);
        AQL_ASSIGN_OR_RETURN(NodePtr src, CompileNode(counted ? e->child(1)->child(0)
                                                              : e->child(1)));
        size_t slot = Push(e->binder());
        auto body = CompileNode(e->child(0));
        Pop();
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(new SumNode(slot, std::move(body).value(), std::move(src), counted,
                                   TryMatchSumPushdown(e, &proof_)));
      }
      case ExprKind::kTab: {
        std::vector<NodePtr> bounds;
        for (size_t j = 0; j < e->tab_rank(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(e->tab_bound(j)));
          bounds.push_back(std::move(b));
        }
        std::vector<size_t> slots;
        for (const std::string& v : e->binders()) slots.push_back(Push(v));
        auto body = CompileNode(e->tab_body());
        std::unique_ptr<KernelSpec> spec;
        if (body.ok()) {
          spec = BuildKernelSpec(
              *e->tab_body(), slots,
              [this](const std::string& name) { return Lookup(name); });
          // Attach in-range/nonzero proofs so instantiation can admit the
          // unchecked evaluators (analysis/absint.h; once per compile).
          if (spec != nullptr) AnnotateKernelSpec(*e, spec.get(), &proof_);
        }
        Pop(e->tab_rank());
        AQL_RETURN_IF_ERROR(body.status());
        return NodePtr(new TabNode(std::move(slots), std::move(body).value(),
                                   std::move(bounds), std::move(spec),
                                   TryMatchPushdown(e, &proof_)));
      }
      case ExprKind::kSubscript: {
        AQL_ASSIGN_OR_RETURN(NodePtr arr, CompileNode(e->child(0)));
        AQL_ASSIGN_OR_RETURN(NodePtr idx, CompileNode(e->child(1)));
        return NodePtr(new SubscriptNode(std::move(arr), std::move(idx)));
      }
      case ExprKind::kDim: {
        AQL_ASSIGN_OR_RETURN(NodePtr arr, CompileNode(e->child(0)));
        return NodePtr(new DimNode(e->rank(), std::move(arr)));
      }
      case ExprKind::kIndex: {
        AQL_ASSIGN_OR_RETURN(NodePtr src, CompileNode(e->child(0)));
        return NodePtr(new IndexNode(e->rank(), std::move(src)));
      }
      case ExprKind::kDense: {
        if (NodePtr folded = TryFoldDense(e)) return folded;
        std::vector<NodePtr> dims, values;
        for (size_t j = 0; j < e->dense_rank(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr d, CompileNode(e->dense_dim(j)));
          dims.push_back(std::move(d));
        }
        for (size_t j = 0; j < e->dense_value_count(); ++j) {
          AQL_ASSIGN_OR_RETURN(NodePtr v, CompileNode(e->dense_value(j)));
          values.push_back(std::move(v));
        }
        return NodePtr(new DenseNode(e->dense_rank(), std::move(dims), std::move(values)));
      }
      case ExprKind::kBottom:
        return NodePtr(new ConstNode(Value::Bottom()));
      case ExprKind::kLiteral:
        return NodePtr(new ConstNode(e->literal()));
      case ExprKind::kExternal: {
        std::shared_ptr<const FuncValue> fn =
            externals_ ? externals_(e->var_name()) : nullptr;
        if (!fn) {
          return Status::EvalError(
              StrCat("unknown external primitive ", e->var_name()));
        }
        return NodePtr(new ConstNode(Value::MakeFunc(std::move(fn))));
      }
    }
    return Status::Internal("unknown expression kind in compiler");
  }

  // A big union's body, matched against `if K = P then T else {}` in
  // either orientation, with FreeVars(K) = {binder} and the binder not
  // free in P: then the body is built from K, P and T's nodes and
  // `filter` points at them (BigUnionNode's indexed equality filter).
  Result<NodePtr> CompileUnionBody(const ExprPtr& u, std::optional<EquiFilter>* filter) {
    const ExprPtr& body = u->child(0);
    if (!body->is(ExprKind::kIf) || !body->child(2)->is(ExprKind::kEmptySet) ||
        !body->child(0)->is(ExprKind::kCmp) || body->child(0)->cmp_op() != CmpOp::kEq) {
      return CompileNode(body);
    }
    const ExprPtr& lhs = body->child(0)->child(0);
    const ExprPtr& rhs = body->child(0)->child(1);
    auto keyed = [&u](const ExprPtr& k, const ExprPtr& p) {
      const std::set<std::string> fk = FreeVars(k);
      return fk.size() == 1 && *fk.begin() == u->binder() && !FreeVars(p).count(u->binder());
    };
    const bool key_left = keyed(lhs, rhs);
    if (!key_left && !keyed(rhs, lhs)) return CompileNode(body);
    AQL_ASSIGN_OR_RETURN(NodePtr a, CompileNode(lhs));
    AQL_ASSIGN_OR_RETURN(NodePtr b, CompileNode(rhs));
    AQL_ASSIGN_OR_RETURN(NodePtr t, CompileNode(body->child(1)));
    const ExprPtr& key = key_left ? lhs : rhs;
    const ExprPtr& probe = key_left ? rhs : lhs;
    const std::set<std::string> ft = FreeVars(body->child(1));
    const bool closed = ft.empty() || (ft.size() == 1 && *ft.begin() == u->binder());
    *filter = EquiFilter{key_left ? a.get() : b.get(), key_left ? b.get() : a.get(), t.get(),
                         closed, memo_count_++};
    proof_.Add("indexed-filter",
               StrCat("U{ if ... then ... else {} | ", u->binder(), " in ",
                      analysis::RenderArrayExpr(u->child(1)), " }"),
               {StrCat("key ", key->ToPlanString(), ": free in ", u->binder(), " alone"),
                StrCat("probe ", probe->ToPlanString(), ": ", u->binder(), " not free")});
    NodePtr cond(new CmpNode(CmpOp::kEq, std::move(a), std::move(b)));
    return NodePtr(new IfNode(std::move(cond), std::move(t),
                              NodePtr(new ConstNode(Value::EmptySet()))));
  }

  // Lambdas compile against a fresh frame [captures..., param, scratch].
  Result<NodePtr> CompileLambda(const ExprPtr& e) {
    std::set<std::string> fv = FreeVars(e);
    std::vector<size_t> capture_slots;
    std::vector<std::string> inner_scope;
    capture_slots.reserve(fv.size());
    for (const std::string& name : fv) {
      AQL_ASSIGN_OR_RETURN(size_t slot, Lookup(name));
      capture_slots.push_back(slot);
      inner_scope.push_back(name);
    }
    Compiler inner(externals_);
    inner.scope_ = std::move(inner_scope);
    inner.scope_.push_back(e->binder());
    inner.high_water_ = inner.scope_.size();
    AQL_ASSIGN_OR_RETURN(NodePtr body, inner.CompileNode(e->child(0)));
    // Proof entries produced inside the lambda body belong to the whole
    // program's certificate.
    for (analysis::ProofEntry& pe : inner.proof_.entries) {
      proof_.entries.push_back(std::move(pe));
    }
    return NodePtr(new LambdaNode(std::move(capture_slots), std::move(body),
                                  inner.high_water_, inner.memo_count_));
  }

  const ExternalResolver& externals_;
  std::vector<std::string> scope_;
  size_t high_water_ = 0;
  size_t memo_count_ = 0;  // indexed filters compiled into this frame
  analysis::Proof proof_;
};

}  // namespace

Status Node::Emit(Frame* frame, std::vector<Value>* out, bool* bottom) const {
  AQL_ASSIGN_OR_RETURN(Value v, Run(frame));
  if (v.is_bottom()) {
    *bottom = true;
    return Status::OK();
  }
  out->insert(out->end(), v.set().elems.begin(), v.set().elems.end());
  return Status::OK();
}

Result<Value> Program::Run(std::vector<Value> args) const {
  obs::Span span("exec", "exec.run");
  Frame frame;
  frame.slots.resize(frame_size_);
  frame.memos.resize(memo_count_);
  for (size_t i = 0; i < args.size() && i < frame.slots.size(); ++i) {
    frame.slots[i] = std::move(args[i]);
  }
  return root_->Run(&frame);
}

Result<Program> Compile(const ExprPtr& e, const ExternalResolver& externals,
                        const std::vector<std::string>& params) {
  obs::Span span("exec", "exec.compile");
  Compiler compiler(externals);
  return compiler.CompileProgram(e, params);
}

}  // namespace exec
}  // namespace aql
