#include "core/expr.h"

#include <cassert>

#include "base/strings.h"

namespace aql {

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kVar: return "Var";
    case ExprKind::kLambda: return "Lambda";
    case ExprKind::kApply: return "Apply";
    case ExprKind::kTuple: return "Tuple";
    case ExprKind::kProj: return "Proj";
    case ExprKind::kEmptySet: return "EmptySet";
    case ExprKind::kSingleton: return "Singleton";
    case ExprKind::kUnion: return "Union";
    case ExprKind::kBigUnion: return "BigUnion";
    case ExprKind::kGet: return "Get";
    case ExprKind::kBoolConst: return "BoolConst";
    case ExprKind::kIf: return "If";
    case ExprKind::kCmp: return "Cmp";
    case ExprKind::kNatConst: return "NatConst";
    case ExprKind::kRealConst: return "RealConst";
    case ExprKind::kStrConst: return "StrConst";
    case ExprKind::kArith: return "Arith";
    case ExprKind::kGen: return "Gen";
    case ExprKind::kSum: return "Sum";
    case ExprKind::kTab: return "Tab";
    case ExprKind::kSubscript: return "Subscript";
    case ExprKind::kDim: return "Dim";
    case ExprKind::kIndex: return "Index";
    case ExprKind::kDense: return "Dense";
    case ExprKind::kBottom: return "Bottom";
    case ExprKind::kLiteral: return "Literal";
    case ExprKind::kExternal: return "External";
  }
  return "Unknown";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kMonus: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

namespace {
std::shared_ptr<Expr> New(ExprKind kind) {
  struct Access : Expr {
    explicit Access(ExprKind k) : Expr(k) {}
  };
  return std::make_shared<Access>(kind);
}
}  // namespace

ExprPtr Expr::Var(std::string name) {
  auto e = New(ExprKind::kVar);
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Lambda(std::string param, ExprPtr body) {
  auto e = New(ExprKind::kLambda);
  e->binders_ = {std::move(param)};
  e->children_ = {std::move(body)};
  return e;
}

ExprPtr Expr::Apply(ExprPtr fn, ExprPtr arg) {
  auto e = New(ExprKind::kApply);
  e->children_ = {std::move(fn), std::move(arg)};
  return e;
}

ExprPtr Expr::Tuple(std::vector<ExprPtr> fields) {
  assert(fields.size() >= 2);
  auto e = New(ExprKind::kTuple);
  e->children_ = std::move(fields);
  return e;
}

ExprPtr Expr::Proj(size_t i, size_t k, ExprPtr inner) {
  assert(i >= 1 && i <= k && k >= 2);
  auto e = New(ExprKind::kProj);
  e->index_i_ = i;
  e->arity_k_ = k;
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::EmptySet() { return New(ExprKind::kEmptySet); }

ExprPtr Expr::Singleton(ExprPtr inner) {
  auto e = New(ExprKind::kSingleton);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::Union(ExprPtr a, ExprPtr b) {
  auto e = New(ExprKind::kUnion);
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::BigUnion(std::string var, ExprPtr body, ExprPtr source) {
  auto e = New(ExprKind::kBigUnion);
  e->binders_ = {std::move(var)};
  e->children_ = {std::move(body), std::move(source)};
  return e;
}

ExprPtr Expr::Get(ExprPtr inner) {
  auto e = New(ExprKind::kGet);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::BoolConst(bool b) {
  auto e = New(ExprKind::kBoolConst);
  e->nat_const_ = b ? 1 : 0;
  return e;
}

ExprPtr Expr::If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = New(ExprKind::kIf);
  e->children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr a, ExprPtr b) {
  auto e = New(ExprKind::kCmp);
  e->cmp_op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::NatConst(uint64_t n) {
  auto e = New(ExprKind::kNatConst);
  e->nat_const_ = n;
  return e;
}

ExprPtr Expr::RealConst(double d) {
  auto e = New(ExprKind::kRealConst);
  e->real_const_ = d;
  return e;
}

ExprPtr Expr::StrConst(std::string s) {
  auto e = New(ExprKind::kStrConst);
  e->name_ = std::move(s);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr a, ExprPtr b) {
  auto e = New(ExprKind::kArith);
  e->arith_op_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Gen(ExprPtr inner) {
  auto e = New(ExprKind::kGen);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::Sum(std::string var, ExprPtr body, ExprPtr source) {
  auto e = New(ExprKind::kSum);
  e->binders_ = {std::move(var)};
  e->children_ = {std::move(body), std::move(source)};
  return e;
}

ExprPtr Expr::Tab(std::vector<std::string> index_vars, ExprPtr body,
                  std::vector<ExprPtr> bounds) {
  assert(!index_vars.empty() && index_vars.size() == bounds.size());
  auto e = New(ExprKind::kTab);
  e->binders_ = std::move(index_vars);
  e->arity_k_ = e->binders_.size();
  e->children_.reserve(1 + bounds.size());
  e->children_.push_back(std::move(body));
  for (ExprPtr& b : bounds) e->children_.push_back(std::move(b));
  return e;
}

ExprPtr Expr::Subscript(ExprPtr array, ExprPtr index) {
  auto e = New(ExprKind::kSubscript);
  e->children_ = {std::move(array), std::move(index)};
  return e;
}

ExprPtr Expr::Dim(size_t rank, ExprPtr array) {
  assert(rank >= 1);
  auto e = New(ExprKind::kDim);
  e->arity_k_ = rank;
  e->children_ = {std::move(array)};
  return e;
}

ExprPtr Expr::Index(size_t rank, ExprPtr set) {
  assert(rank >= 1);
  auto e = New(ExprKind::kIndex);
  e->arity_k_ = rank;
  e->children_ = {std::move(set)};
  return e;
}

ExprPtr Expr::Dense(size_t rank, std::vector<ExprPtr> dims, std::vector<ExprPtr> elems) {
  assert(rank >= 1 && dims.size() == rank);
  auto e = New(ExprKind::kDense);
  e->arity_k_ = rank;
  e->children_.reserve(dims.size() + elems.size());
  for (ExprPtr& d : dims) e->children_.push_back(std::move(d));
  for (ExprPtr& v : elems) e->children_.push_back(std::move(v));
  return e;
}

ExprPtr Expr::Bottom() { return New(ExprKind::kBottom); }

ExprPtr Expr::Literal(Value v) {
  auto e = New(ExprKind::kLiteral);
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::External(std::string name) {
  auto e = New(ExprKind::kExternal);
  e->name_ = std::move(name);
  return e;
}

size_t Expr::TreeSize() const {
  size_t n = 1;
  for (const ExprPtr& c : children_) n += c->TreeSize();
  return n;
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  return WithBindersAndChildren(binders_, std::move(children));
}

ExprPtr Expr::WithBindersAndChildren(std::vector<std::string> binders,
                                     std::vector<ExprPtr> children) const {
  assert(children.size() == children_.size());
  assert(binders.size() == binders_.size());
  auto e = New(kind_);
  e->children_ = std::move(children);
  e->binders_ = std::move(binders);
  e->name_ = name_;
  e->nat_const_ = nat_const_;
  e->real_const_ = real_const_;
  e->cmp_op_ = cmp_op_;
  e->arith_op_ = arith_op_;
  e->index_i_ = index_i_;
  e->arity_k_ = arity_k_;
  e->literal_ = literal_;
  return e;
}

std::vector<std::vector<std::string>> ChildBinders(const Expr& e) {
  std::vector<std::vector<std::string>> out(e.children().size());
  switch (e.kind()) {
    case ExprKind::kLambda:
      out[0] = {e.binder()};
      break;
    case ExprKind::kBigUnion:
    case ExprKind::kSum:
      out[0] = {e.binder()};  // body binds; source does not
      break;
    case ExprKind::kTab:
      out[0] = e.binders();  // body binds all index vars; bounds do not
      break;
    default:
      break;
  }
  return out;
}

namespace {

// One rendering's output: the text, and whether array literals print by
// shape only.
struct Sink {
  std::string text;
  bool elide_arrays = false;
  void append(const std::string& s) { text.append(s); }
  void push_back(char c) { text.push_back(c); }
};

void Append(const Expr& e, Sink* out);

void AppendChild(const Expr& e, Sink* out) {
  // Parenthesize anything that isn't clearly atomic.
  switch (e.kind()) {
    case ExprKind::kVar:
    case ExprKind::kBoolConst:
    case ExprKind::kNatConst:
    case ExprKind::kRealConst:
    case ExprKind::kStrConst:
    case ExprKind::kEmptySet:
    case ExprKind::kSingleton:
    case ExprKind::kTuple:
    case ExprKind::kBottom:
    case ExprKind::kExternal:
    case ExprKind::kTab:
    case ExprKind::kDense:
    case ExprKind::kGen:
    case ExprKind::kGet:
    case ExprKind::kDim:
    case ExprKind::kIndex:
    case ExprKind::kProj:
    case ExprKind::kLiteral:
      Append(e, out);
      break;
    default:
      out->push_back('(');
      Append(e, out);
      out->push_back(')');
  }
}

void Append(const Expr& e, Sink* out) {
  switch (e.kind()) {
    case ExprKind::kVar:
      out->append(e.var_name());
      return;
    case ExprKind::kLambda:
      out->append("\\");
      out->append(e.binder());
      out->append(". ");
      Append(*e.child(0), out);
      return;
    case ExprKind::kApply:
      AppendChild(*e.child(0), out);
      out->push_back('(');
      Append(*e.child(1), out);
      out->push_back(')');
      return;
    case ExprKind::kTuple: {
      out->push_back('(');
      for (size_t i = 0; i < e.children().size(); ++i) {
        if (i > 0) out->append(", ");
        Append(*e.child(i), out);
      }
      out->push_back(')');
      return;
    }
    case ExprKind::kProj:
      out->append(StrCat("pi_", e.proj_index(), ",", e.proj_arity()));
      out->push_back('(');
      Append(*e.child(0), out);
      out->push_back(')');
      return;
    case ExprKind::kEmptySet:
      out->append("{}");
      return;
    case ExprKind::kSingleton:
      out->push_back('{');
      Append(*e.child(0), out);
      out->push_back('}');
      return;
    case ExprKind::kUnion:
      AppendChild(*e.child(0), out);
      out->append(" U ");
      AppendChild(*e.child(1), out);
      return;
    case ExprKind::kBigUnion:
      out->append("U{ ");
      Append(*e.child(0), out);
      out->append(" | ");
      out->append(e.binder());
      out->append(" in ");
      Append(*e.child(1), out);
      out->append(" }");
      return;
    case ExprKind::kGet:
      out->append("get(");
      Append(*e.child(0), out);
      out->push_back(')');
      return;
    case ExprKind::kBoolConst:
      out->append(e.bool_const() ? "true" : "false");
      return;
    case ExprKind::kIf:
      out->append("if ");
      Append(*e.child(0), out);
      out->append(" then ");
      Append(*e.child(1), out);
      out->append(" else ");
      Append(*e.child(2), out);
      return;
    case ExprKind::kCmp:
      AppendChild(*e.child(0), out);
      out->push_back(' ');
      out->append(CmpOpName(e.cmp_op()));
      out->push_back(' ');
      AppendChild(*e.child(1), out);
      return;
    case ExprKind::kNatConst:
      out->append(std::to_string(e.nat_const()));
      return;
    case ExprKind::kRealConst:
      out->append(RealToString(e.real_const()));
      return;
    case ExprKind::kStrConst:
      out->push_back('"');
      out->append(e.str_const());
      out->push_back('"');
      return;
    case ExprKind::kArith:
      AppendChild(*e.child(0), out);
      out->push_back(' ');
      out->append(ArithOpName(e.arith_op()));
      out->push_back(' ');
      AppendChild(*e.child(1), out);
      return;
    case ExprKind::kGen:
      out->append("gen(");
      Append(*e.child(0), out);
      out->push_back(')');
      return;
    case ExprKind::kSum:
      out->append("Sum{ ");
      Append(*e.child(0), out);
      out->append(" | ");
      out->append(e.binder());
      out->append(" in ");
      Append(*e.child(1), out);
      out->append(" }");
      return;
    case ExprKind::kTab: {
      out->append("[[ ");
      Append(*e.tab_body(), out);
      out->append(" | ");
      for (size_t j = 0; j < e.tab_rank(); ++j) {
        if (j > 0) out->append(", ");
        out->append(e.binders()[j]);
        out->append(" < ");
        Append(*e.tab_bound(j), out);
      }
      out->append(" ]]");
      return;
    }
    case ExprKind::kSubscript:
      AppendChild(*e.child(0), out);
      out->push_back('[');
      Append(*e.child(1), out);
      out->push_back(']');
      return;
    case ExprKind::kDim:
      out->append(StrCat("dim_", e.rank(), "("));
      Append(*e.child(0), out);
      out->push_back(')');
      return;
    case ExprKind::kIndex:
      out->append(StrCat("index_", e.rank(), "("));
      Append(*e.child(0), out);
      out->push_back(')');
      return;
    case ExprKind::kDense: {
      out->append("[[");
      for (size_t j = 0; j < e.dense_rank(); ++j) {
        if (j > 0) out->push_back(',');
        Append(*e.dense_dim(j), out);
      }
      out->append("; ");
      for (size_t j = 0; j < e.dense_value_count(); ++j) {
        if (j > 0) out->append(", ");
        Append(*e.dense_value(j), out);
      }
      out->append("]]");
      return;
    }
    case ExprKind::kBottom:
      out->append("bottom");
      return;
    case ExprKind::kLiteral:
      if (out->elide_arrays && e.literal().kind() == ValueKind::kArray) {
        out->append("<array");
        for (uint64_t d : e.literal().array().dims) out->append(StrCat(" ", d));
        out->push_back('>');
        return;
      }
      out->append(e.literal().ToString());
      return;
    case ExprKind::kExternal:
      out->append(e.var_name());
      return;
  }
}

}  // namespace

std::string Expr::ToString() const {
  Sink out;
  Append(*this, &out);
  return std::move(out.text);
}

std::string Expr::ToPlanString() const {
  Sink out;
  out.elide_arrays = true;
  Append(*this, &out);
  return std::move(out.text);
}

}  // namespace aql
