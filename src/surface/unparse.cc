#include "surface/unparse.h"

#include <map>
#include <set>
#include <vector>

#include "base/strings.h"
#include "core/expr_ops.h"

namespace aql {

namespace {

bool SafeSurfaceName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '\'') {
      return false;
    }
  }
  return true;
}

void AppendQuoted(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

class Unparser {
 public:
  Result<std::string> Run(const ExprPtr& e) {
    // Reserve every safe name appearing anywhere, so generated names for
    // the '$'-suffixed internal variables cannot collide.
    CollectNames(e);
    std::string out;
    AQL_RETURN_IF_ERROR(Render(e, &out));
    return out;
  }

 private:
  void CollectNames(const ExprPtr& e) {
    if (e->is(ExprKind::kVar)) used_.insert(e->var_name());
    for (const std::string& b : e->binders()) used_.insert(b);
    for (const ExprPtr& c : e->children()) CollectNames(c);
  }

  // Surface name for a binder: pass safe names through, rename internal
  // ones ($-suffixed from the desugarer/optimizer) to fresh v<N>.
  std::string BinderName(const std::string& name) {
    if (SafeSurfaceName(name) && !renamed_.count(name)) return name;
    auto it = renamed_.find(name);
    if (it != renamed_.end()) return it->second;
    std::string fresh;
    do {
      fresh = StrCat("v", counter_++);
    } while (used_.count(fresh));
    used_.insert(fresh);
    renamed_[name] = fresh;
    return fresh;
  }

  std::string VarName(const std::string& name) {
    auto it = renamed_.find(name);
    return it != renamed_.end() ? it->second : name;
  }

  std::string Fresh() {
    std::string fresh;
    do {
      fresh = StrCat("v", counter_++);
    } while (used_.count(fresh));
    used_.insert(fresh);
    return fresh;
  }

  // Values render as expressions rather than raw exchange-format text:
  // the expression grammar has no unary minus, so negative reals become
  // (0.0 - x); everything else matches the §3 literal grammar.
  Status RenderReal(double d, std::string* out) {
    if (d < 0) {
      out->append("(0.0 - ");
      out->append(RealToString(-d));
      out->push_back(')');
    } else {
      out->append(RealToString(d));
    }
    return Status::OK();
  }

  Status RenderLiteral(const Value& v, std::string* out) {
    switch (v.kind()) {
      case ValueKind::kFunc:
        return Status::InvalidArgument("function values have no surface syntax");
      case ValueKind::kReal:
        return RenderReal(v.real_value(), out);
      case ValueKind::kBottom:
        out->append("bottom");
        return Status::OK();
      case ValueKind::kBool:
        out->append(v.bool_value() ? "true" : "false");
        return Status::OK();
      case ValueKind::kNat:
        out->append(std::to_string(v.nat_value()));
        return Status::OK();
      case ValueKind::kString:
        AppendQuoted(v.str_value(), out);
        return Status::OK();
      case ValueKind::kTuple: {
        out->push_back('(');
        for (size_t i = 0; i < v.tuple_fields().size(); ++i) {
          if (i > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(RenderLiteral(v.tuple_fields()[i], out));
        }
        out->push_back(')');
        return Status::OK();
      }
      case ValueKind::kSet: {
        out->push_back('{');
        for (size_t i = 0; i < v.set().elems.size(); ++i) {
          if (i > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(RenderLiteral(v.set().elems[i], out));
        }
        out->push_back('}');
        return Status::OK();
      }
      case ValueKind::kArray: {
        const ArrayRep& a = v.array();
        out->append("[[");
        for (size_t i = 0; i < a.dims.size(); ++i) {
          if (i > 0) out->push_back(',');
          out->append(std::to_string(a.dims[i]));
        }
        out->append("; ");
        for (uint64_t i = 0; i < a.Count(); ++i) {
          if (i > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(RenderLiteral(a.At(i), out));
        }
        out->append("]]");
        return Status::OK();
      }
    }
    return Status::Internal("unknown value kind in unparser");
  }

  Status Render(const ExprPtr& e, std::string* out) {
    switch (e->kind()) {
      case ExprKind::kVar:
        if (!SafeSurfaceName(VarName(e->var_name()))) {
          return Status::InvalidArgument(
              StrCat("free variable ", e->var_name(), " has no surface spelling"));
        }
        out->append(VarName(e->var_name()));
        return Status::OK();
      case ExprKind::kLambda: {
        std::string b = BinderName(e->binder());
        out->append("(fn \\");
        out->append(b);
        out->append(" => ");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      }
      case ExprKind::kApply:
        out->push_back('(');
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(")!(");
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kTuple: {
        out->push_back('(');
        for (size_t i = 0; i < e->children().size(); ++i) {
          if (i > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(Render(e->child(i), out));
        }
        out->push_back(')');
        return Status::OK();
      }
      case ExprKind::kProj: {
        if (e->proj_index() > 9 || e->proj_arity() > 9) {
          return Status::InvalidArgument("projection arity beyond surface pi_i_k range");
        }
        out->append(StrCat("pi_", e->proj_index(), "_", e->proj_arity(), "!("));
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      }
      case ExprKind::kEmptySet:
        out->append("{}");
        return Status::OK();
      case ExprKind::kSingleton:
        out->push_back('{');
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back('}');
        return Status::OK();
      case ExprKind::kUnion:
        out->append("setunion!(");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(", ");
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kBigUnion: {
        // U{ e1 | x in e2 }  ->  { y | \x <- e2, \y <- e1 }.
        std::string x = BinderName(e->binder());
        std::string y = Fresh();
        out->append("{ ");
        out->append(y);
        out->append(" | \\");
        out->append(x);
        out->append(" <- ");
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->append(", \\");
        out->append(y);
        out->append(" <- ");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(" }");
        return Status::OK();
      }
      case ExprKind::kGet:
        out->append("get!(");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kBoolConst:
        out->append(e->bool_const() ? "true" : "false");
        return Status::OK();
      case ExprKind::kIf:
        out->append("(if ");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(" then ");
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->append(" else ");
        AQL_RETURN_IF_ERROR(Render(e->child(2), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kCmp:
      case ExprKind::kArith: {
        const char* op = e->is(ExprKind::kCmp) ? CmpOpName(e->cmp_op())
                                               : ArithOpName(e->arith_op());
        out->push_back('(');
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(' ');
        out->append(op);
        out->push_back(' ');
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->push_back(')');
        return Status::OK();
      }
      case ExprKind::kNatConst:
        out->append(std::to_string(e->nat_const()));
        return Status::OK();
      case ExprKind::kRealConst:
        return RenderReal(e->real_const(), out);
      case ExprKind::kStrConst:
        AppendQuoted(e->str_const(), out);
        return Status::OK();
      case ExprKind::kGen:
        out->append("gen!(");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kSum: {
        std::string x = BinderName(e->binder());
        out->append("summap(fn \\");
        out->append(x);
        out->append(" => ");
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(")!(");
        AQL_RETURN_IF_ERROR(Render(e->child(1), out));
        out->push_back(')');
        return Status::OK();
      }
      case ExprKind::kTab: {
        // Bounds render BEFORE the binders come into scope semantically,
        // but the binder names must be chosen first for the body; names
        // are globally fresh, so order is immaterial.
        std::vector<std::string> names;
        names.reserve(e->tab_rank());
        for (const std::string& b : e->binders()) names.push_back(BinderName(b));
        out->append("[[ ");
        AQL_RETURN_IF_ERROR(Render(e->tab_body(), out));
        out->append(" | ");
        for (size_t j = 0; j < e->tab_rank(); ++j) {
          if (j > 0) out->append(", ");
          out->push_back('\\');
          out->append(names[j]);
          out->append(" < ");
          AQL_RETURN_IF_ERROR(Render(e->tab_bound(j), out));
        }
        out->append(" ]]");
        return Status::OK();
      }
      case ExprKind::kSubscript: {
        out->push_back('(');
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->append(")[");
        const ExprPtr& idx = e->child(1);
        if (idx->is(ExprKind::kTuple)) {
          for (size_t i = 0; i < idx->children().size(); ++i) {
            if (i > 0) out->append(", ");
            AQL_RETURN_IF_ERROR(Render(idx->child(i), out));
          }
        } else {
          AQL_RETURN_IF_ERROR(Render(idx, out));
        }
        out->push_back(']');
        return Status::OK();
      }
      case ExprKind::kDim:
        if (e->rank() == 1) {
          out->append("len!(");
        } else if (e->rank() <= 9) {
          out->append(StrCat("dim", e->rank(), "!("));
        } else {
          return Status::InvalidArgument("dim rank beyond surface range");
        }
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kIndex:
        if (e->rank() > 9) {
          return Status::InvalidArgument("index rank beyond surface range");
        }
        out->append(e->rank() == 1 ? "index!(" : StrCat("index", e->rank(), "!("));
        AQL_RETURN_IF_ERROR(Render(e->child(0), out));
        out->push_back(')');
        return Status::OK();
      case ExprKind::kDense: {
        out->append("[[");
        for (size_t j = 0; j < e->dense_rank(); ++j) {
          if (j > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(Render(e->dense_dim(j), out));
        }
        out->append("; ");
        for (size_t j = 0; j < e->dense_value_count(); ++j) {
          if (j > 0) out->append(", ");
          AQL_RETURN_IF_ERROR(Render(e->dense_value(j), out));
        }
        out->append("]]");
        return Status::OK();
      }
      case ExprKind::kBottom:
        out->append("bottom");
        return Status::OK();
      case ExprKind::kLiteral:
        return RenderLiteral(e->literal(), out);
      case ExprKind::kExternal:
        out->append(e->var_name());
        return Status::OK();
    }
    return Status::Internal("unknown expression kind in unparser");
  }

  std::set<std::string> used_;
  std::map<std::string, std::string> renamed_;
  uint64_t counter_ = 0;
};

}  // namespace

Result<std::string> Unparse(const ExprPtr& e) { return Unparser().Run(e); }

}  // namespace aql
