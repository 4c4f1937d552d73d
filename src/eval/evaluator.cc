#include "eval/evaluator.h"

#include <algorithm>
#include <cmath>

#include "base/cancel.h"
#include "base/strings.h"

namespace aql {

namespace {

// Closure value produced by evaluating a lambda.
class Closure : public FuncValue {
 public:
  Closure(const Evaluator* evaluator, std::string param, ExprPtr body, Environment env)
      : evaluator_(evaluator),
        param_(std::move(param)),
        body_(std::move(body)),
        env_(std::move(env)) {}

  Result<Value> Apply(const Value& arg) const override {
    return evaluator_->Eval(body_, env_.Bind(param_, arg));
  }

  std::string name() const override { return StrCat("<fn \\", param_, ">"); }

 private:
  const Evaluator* evaluator_;
  std::string param_;
  ExprPtr body_;
  Environment env_;
};

// Extracts a k-dim index from a value: a nat (k=1) or a tuple of nats.
// Returns false if the value has the wrong shape (a type error upstream).
bool ExtractIndex(const Value& v, std::vector<uint64_t>* out) {
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

}  // namespace

namespace {
// Thread-local so concurrent evaluators don't share a budget; RAII so
// early returns unwind it.
thread_local size_t g_eval_depth = 0;
struct DepthGuard {
  DepthGuard() { ++g_eval_depth; }
  ~DepthGuard() { --g_eval_depth; }
};
}  // namespace

Result<Value> Evaluator::Eval(const ExprPtr& e, const Environment& env) const {
  DepthGuard guard;
  if (g_eval_depth > max_depth_) {
    return Status::EvalError(
        StrCat("evaluation exceeded the maximum depth of ", max_depth_));
  }
  switch (e->kind()) {
    case ExprKind::kVar: {
      const Value* v = env.Lookup(e->var_name());
      if (v == nullptr) {
        return Status::EvalError(StrCat("unbound variable ", e->var_name()));
      }
      return *v;
    }
    case ExprKind::kLambda:
      return Value::MakeFunc(
          std::make_shared<Closure>(this, e->binder(), e->child(0), env));
    case ExprKind::kApply: {
      AQL_ASSIGN_OR_RETURN(Value fn, Eval(e->child(0), env));
      if (fn.is_bottom()) return Value::Bottom();
      if (fn.kind() != ValueKind::kFunc) {
        return Status::EvalError(
            StrCat("applying a non-function value of kind ", ValueKindName(fn.kind())));
      }
      AQL_ASSIGN_OR_RETURN(Value arg, Eval(e->child(1), env));
      if (arg.is_bottom()) return Value::Bottom();
      return fn.func().Apply(arg);
    }
    case ExprKind::kTuple: {
      std::vector<Value> fields;
      fields.reserve(e->children().size());
      for (const ExprPtr& c : e->children()) {
        AQL_ASSIGN_OR_RETURN(Value v, Eval(c, env));
        if (v.is_bottom()) return Value::Bottom();
        fields.push_back(std::move(v));
      }
      return Value::MakeTuple(std::move(fields));
    }
    case ExprKind::kProj: {
      AQL_ASSIGN_OR_RETURN(Value v, Eval(e->child(0), env));
      if (v.is_bottom()) return Value::Bottom();
      if (v.kind() != ValueKind::kTuple || v.tuple_fields().size() != e->proj_arity()) {
        return Status::EvalError("projection applied to non-tuple or wrong arity");
      }
      return v.tuple_fields()[e->proj_index() - 1];
    }
    case ExprKind::kEmptySet:
      return Value::EmptySet();
    case ExprKind::kSingleton: {
      AQL_ASSIGN_OR_RETURN(Value v, Eval(e->child(0), env));
      if (v.is_bottom()) return Value::Bottom();
      return Value::MakeSetCanonical({std::move(v)});
    }
    case ExprKind::kUnion: {
      AQL_ASSIGN_OR_RETURN(Value a, Eval(e->child(0), env));
      if (a.is_bottom()) return Value::Bottom();
      AQL_ASSIGN_OR_RETURN(Value b, Eval(e->child(1), env));
      if (b.is_bottom()) return Value::Bottom();
      return Value::SetUnion(a, b);
    }
    case ExprKind::kBigUnion: {
      AQL_ASSIGN_OR_RETURN(Value src, Eval(e->child(1), env));
      if (src.is_bottom()) return Value::Bottom();
      std::vector<Value> acc;
      for (const Value& x : src.set().elems) {
        AQL_RETURN_IF_ERROR(CheckInterrupt());
        AQL_ASSIGN_OR_RETURN(Value part, Eval(e->child(0), env.Bind(e->binder(), x)));
        if (part.is_bottom()) return Value::Bottom();
        const auto& elems = part.set().elems;
        acc.insert(acc.end(), elems.begin(), elems.end());
      }
      return Value::MakeSet(std::move(acc));
    }
    case ExprKind::kGet: {
      AQL_ASSIGN_OR_RETURN(Value v, Eval(e->child(0), env));
      if (v.is_bottom()) return Value::Bottom();
      if (v.set().elems.size() != 1) return Value::Bottom();
      return v.set().elems[0];
    }
    case ExprKind::kBoolConst:
      return Value::Bool(e->bool_const());
    case ExprKind::kIf: {
      AQL_ASSIGN_OR_RETURN(Value c, Eval(e->child(0), env));
      if (c.is_bottom()) return Value::Bottom();
      return Eval(c.bool_value() ? e->child(1) : e->child(2), env);
    }
    case ExprKind::kCmp: {
      AQL_ASSIGN_OR_RETURN(Value a, Eval(e->child(0), env));
      if (a.is_bottom()) return Value::Bottom();
      AQL_ASSIGN_OR_RETURN(Value b, Eval(e->child(1), env));
      if (b.is_bottom()) return Value::Bottom();
      int c = Value::Compare(a, b);
      switch (e->cmp_op()) {
        case CmpOp::kEq: return Value::Bool(c == 0);
        case CmpOp::kNe: return Value::Bool(c != 0);
        case CmpOp::kLt: return Value::Bool(c < 0);
        case CmpOp::kLe: return Value::Bool(c <= 0);
        case CmpOp::kGt: return Value::Bool(c > 0);
        case CmpOp::kGe: return Value::Bool(c >= 0);
      }
      return Status::Internal("bad cmp op");
    }
    case ExprKind::kNatConst:
      return Value::Nat(e->nat_const());
    case ExprKind::kRealConst:
      return Value::Real(e->real_const());
    case ExprKind::kStrConst:
      return Value::Str(e->str_const());
    case ExprKind::kArith:
      return EvalArith(*e, env);
    case ExprKind::kGen: {
      AQL_ASSIGN_OR_RETURN(Value n, Eval(e->child(0), env));
      if (n.is_bottom()) return Value::Bottom();
      if (n.kind() != ValueKind::kNat) return Status::EvalError("gen of non-nat");
      std::vector<Value> elems;
      // Clamp the reserve: a huge bound must reach the interrupt checks
      // below rather than die up front in one giant allocation.
      elems.reserve(std::min<uint64_t>(n.nat_value(), uint64_t{1} << 20));
      for (uint64_t i = 0; i < n.nat_value(); ++i) {
        if ((i & 0xFFF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
        elems.push_back(Value::Nat(i));
      }
      return Value::MakeSetCanonical(std::move(elems));
    }
    case ExprKind::kSum: {
      AQL_ASSIGN_OR_RETURN(Value src, Eval(e->child(1), env));
      if (src.is_bottom()) return Value::Bottom();
      uint64_t nat_total = 0;
      double real_total = 0;
      bool is_real = false;
      bool first = true;
      for (const Value& x : src.set().elems) {
        AQL_RETURN_IF_ERROR(CheckInterrupt());
        AQL_ASSIGN_OR_RETURN(Value part, Eval(e->child(0), env.Bind(e->binder(), x)));
        if (part.is_bottom()) return Value::Bottom();
        if (first) {
          is_real = part.kind() == ValueKind::kReal;
          first = false;
        }
        if (is_real) {
          if (part.kind() != ValueKind::kReal) {
            return Status::EvalError("Sum body mixed nat and real");
          }
          real_total += part.real_value();
        } else {
          if (part.kind() != ValueKind::kNat) {
            return Status::EvalError("Sum body must be nat or real");
          }
          nat_total += part.nat_value();
        }
      }
      if (first) return Value::Nat(0);  // empty set; nat 0 coerces either way
      return is_real ? Value::Real(real_total) : Value::Nat(nat_total);
    }
    case ExprKind::kTab:
      return EvalTab(*e, env);
    case ExprKind::kSubscript: {
      AQL_ASSIGN_OR_RETURN(Value arr, Eval(e->child(0), env));
      if (arr.is_bottom()) return Value::Bottom();
      if (arr.kind() != ValueKind::kArray) {
        return Status::EvalError("subscript of non-array");
      }
      AQL_ASSIGN_OR_RETURN(Value idx, Eval(e->child(1), env));
      if (idx.is_bottom()) return Value::Bottom();
      std::vector<uint64_t> index;
      if (!ExtractIndex(idx, &index)) {
        return Status::EvalError("array index is not a nat or tuple of nats");
      }
      const ArrayRep& a = arr.array();
      if (!a.InBounds(index)) return Value::Bottom();
      return a.At(a.Flatten(index));
    }
    case ExprKind::kDim: {
      AQL_ASSIGN_OR_RETURN(Value arr, Eval(e->child(0), env));
      if (arr.is_bottom()) return Value::Bottom();
      if (arr.kind() != ValueKind::kArray) return Status::EvalError("dim of non-array");
      const ArrayRep& a = arr.array();
      if (a.dims.size() != e->rank()) {
        return Status::EvalError(StrCat("dim_", e->rank(), " of rank-", a.dims.size(),
                                        " array"));
      }
      if (a.dims.size() == 1) return Value::Nat(a.dims[0]);
      std::vector<Value> fields;
      fields.reserve(a.dims.size());
      for (uint64_t d : a.dims) fields.push_back(Value::Nat(d));
      return Value::MakeTuple(std::move(fields));
    }
    case ExprKind::kIndex:
      return EvalIndex(*e, env);
    case ExprKind::kDense: {
      std::vector<uint64_t> dims;
      dims.reserve(e->dense_rank());
      for (size_t j = 0; j < e->dense_rank(); ++j) {
        AQL_ASSIGN_OR_RETURN(Value d, Eval(e->dense_dim(j), env));
        if (d.is_bottom()) return Value::Bottom();
        if (d.kind() != ValueKind::kNat) {
          return Status::EvalError("array literal dimension is not a nat");
        }
        dims.push_back(d.nat_value());
      }
      uint64_t total = 1;
      for (uint64_t d : dims) total *= d;
      if (total != e->dense_value_count()) return Value::Bottom();
      std::vector<Value> elems;
      elems.reserve(total);
      for (size_t j = 0; j < e->dense_value_count(); ++j) {
        // As with tabulations, individual elements may be bottom.
        AQL_ASSIGN_OR_RETURN(Value v, Eval(e->dense_value(j), env));
        elems.push_back(std::move(v));
      }
      auto arr = Value::MakeArray(std::move(dims), std::move(elems));
      if (!arr.ok()) return Status::Internal(arr.status().message());
      return std::move(arr).value();
    }
    case ExprKind::kBottom:
      return Value::Bottom();
    case ExprKind::kLiteral:
      return e->literal();
    case ExprKind::kExternal: {
      std::shared_ptr<const FuncValue> fn =
          external_lookup_ ? external_lookup_(e->var_name()) : nullptr;
      if (!fn) {
        return Status::EvalError(StrCat("unknown external primitive ", e->var_name()));
      }
      return Value::MakeFunc(std::move(fn));
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<Value> Evaluator::EvalTab(const Expr& e, const Environment& env) const {
  size_t k = e.tab_rank();
  std::vector<uint64_t> dims(k);
  for (size_t j = 0; j < k; ++j) {
    AQL_ASSIGN_OR_RETURN(Value b, Eval(e.tab_bound(j), env));
    if (b.is_bottom()) return Value::Bottom();
    if (b.kind() != ValueKind::kNat) {
      return Status::EvalError("tabulation bound is not a nat");
    }
    dims[j] = b.nat_value();
  }
  // Reject bounds whose product overflows or exceeds the element cap, as
  // the compiled backend does; silently clamping would change semantics.
  AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));
  std::vector<Value> elems;
  // Clamped for the same reason as gen: oversized tabulations must stay
  // cancellable instead of failing one huge up-front allocation.
  elems.reserve(std::min<uint64_t>(total, uint64_t{1} << 20));
  std::vector<uint64_t> index(k, 0);
  for (uint64_t flat = 0; flat < total; ++flat) {
    AQL_RETURN_IF_ERROR(CheckInterrupt());
    Environment body_env = env;
    for (size_t j = 0; j < k; ++j) {
      body_env = body_env.Bind(e.binders()[j], Value::Nat(index[j]));
    }
    AQL_ASSIGN_OR_RETURN(Value v, Eval(e.tab_body(), body_env));
    // Arrays are partial functions (§2): a body error at one point leaves
    // the array defined elsewhere, storing bottom at that point. This is
    // what makes the beta^p / eta^p / delta^p rules of §5 unconditionally
    // sound here (the paper's delta^p caveat assumes error-strict arrays).
    elems.push_back(std::move(v));
    for (size_t j = k; j-- > 0;) {
      if (++index[j] < dims[j]) break;
      index[j] = 0;
    }
  }
  auto arr = Value::MakeArray(std::move(dims), std::move(elems));
  if (!arr.ok()) return Status::Internal(arr.status().message());
  return std::move(arr).value();
}

Result<Value> Evaluator::EvalIndex(const Expr& e, const Environment& env) const {
  AQL_ASSIGN_OR_RETURN(Value src, Eval(e.child(0), env));
  if (src.is_bottom()) return Value::Bottom();
  size_t k = e.rank();

  // First pass: determine the dimensions (max key + 1 per axis, §2).
  std::vector<uint64_t> dims(k, 0);
  std::vector<std::pair<std::vector<uint64_t>, const Value*>> entries;
  entries.reserve(src.set().elems.size());
  bool overflow = false;
  for (const Value& pair : src.set().elems) {
    if (pair.kind() != ValueKind::kTuple || pair.tuple_fields().size() != 2) {
      return Status::EvalError("index expects a set of (key, value) pairs");
    }
    const Value& key = pair.tuple_fields()[0];
    std::vector<uint64_t> idx;
    if (k == 1) {
      if (key.kind() != ValueKind::kNat) {
        return Status::EvalError("index_1 key is not a nat");
      }
      idx.push_back(key.nat_value());
    } else {
      if (!ExtractIndex(key, &idx) || idx.size() != k) {
        return Status::EvalError(StrCat("index_", k, " key has wrong shape"));
      }
    }
    for (size_t j = 0; j < k; ++j) {
      overflow = overflow || idx[j] == UINT64_MAX;
      dims[j] = std::max(dims[j], idx[j] + 1);
    }
    entries.emplace_back(std::move(idx), &pair.tuple_fields()[1]);
  }
  if (overflow) return Status::EvalError("index key overflows the element count");
  AQL_ASSIGN_OR_RETURN(uint64_t total, CheckedVolume(dims));

  // Fill the holes with {} and group duplicate keys into sets (§2: the
  // result type is [[{t}]]_k precisely to absorb holes and collisions).
  // Pairs sort key-first and keys sort in row-major order, so each bucket
  // is a run of consecutive entries, already sorted and unique. The holes
  // are filled one by one (cancellable), never allocated up front.
  ArrayRep shape;
  shape.dims = dims;
  std::vector<Value> elems;
  elems.reserve(std::min<uint64_t>(total, uint64_t{1} << 20));
  const Value empty = Value::EmptySet();
  size_t next = 0;
  for (uint64_t flat = 0; flat < total; ++flat) {
    if ((flat & 0x3FF) == 0) AQL_RETURN_IF_ERROR(CheckInterrupt());
    std::vector<Value> bucket;
    for (; next < entries.size() && shape.Flatten(entries[next].first) == flat; ++next) {
      bucket.push_back(*entries[next].second);
    }
    elems.push_back(bucket.empty() ? empty : Value::MakeSetCanonical(std::move(bucket)));
  }
  auto arr = Value::MakeArray(std::move(dims), std::move(elems));
  if (!arr.ok()) return Status::Internal(arr.status().message());
  return std::move(arr).value();
}

Result<Value> Evaluator::EvalArith(const Expr& e, const Environment& env) const {
  AQL_ASSIGN_OR_RETURN(Value a, Eval(e.child(0), env));
  if (a.is_bottom()) return Value::Bottom();
  AQL_ASSIGN_OR_RETURN(Value b, Eval(e.child(1), env));
  if (b.is_bottom()) return Value::Bottom();
  if (a.kind() == ValueKind::kNat && b.kind() == ValueKind::kNat) {
    uint64_t x = a.nat_value(), y = b.nat_value();
    switch (e.arith_op()) {
      case ArithOp::kAdd: return Value::Nat(x + y);
      case ArithOp::kMonus: return Value::Nat(x >= y ? x - y : 0);  // monus
      case ArithOp::kMul: return Value::Nat(x * y);
      case ArithOp::kDiv: return y == 0 ? Value::Bottom() : Value::Nat(x / y);
      case ArithOp::kMod: return y == 0 ? Value::Bottom() : Value::Nat(x % y);
    }
  }
  if (a.kind() == ValueKind::kReal && b.kind() == ValueKind::kReal) {
    double x = a.real_value(), y = b.real_value();
    switch (e.arith_op()) {
      case ArithOp::kAdd: return Value::Real(x + y);
      case ArithOp::kMonus: return Value::Real(x - y);
      case ArithOp::kMul: return Value::Real(x * y);
      case ArithOp::kDiv: return Value::Real(x / y);
      case ArithOp::kMod: return Value::Real(std::fmod(x, y));
    }
  }
  return Status::EvalError(StrCat("arithmetic on ", ValueKindName(a.kind()), " and ",
                                  ValueKindName(b.kind())));
}

}  // namespace aql
