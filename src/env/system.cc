#include "env/system.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "analysis/lint.h"
#include "analysis/verifier.h"
#include "base/env.h"
#include "base/strings.h"
#include "env/prelude.h"
#include "io/drivers.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "surface/desugar.h"
#include "surface/parser.h"
#include "typecheck/typecheck.h"

namespace aql {

std::string StatementResult::ToDisplayString(size_t max_items) const {
  std::string out;
  std::string shown_name = name.empty() ? "it" : name;
  if (type) {
    out += StrCat("typ ", shown_name, " : ", type->ToString(), "\n");
  }
  if (has_value) {
    out += StrCat("val ", shown_name, " = ", value.ToDisplayString(max_items));
  } else if (kind == Statement::Kind::kMacro) {
    out += StrCat("val ", shown_name, " = ", shown_name, " registered as macro.");
  } else if (kind == Statement::Kind::kWriteval) {
    out += "value written.";
  }
  return out;
}

System::System(SystemConfig config)
    : config_(std::move(config)),
      optimizer_(config_.optimizer),
      evaluator_([this](const std::string& name) -> std::shared_ptr<const FuncValue> {
        auto it = primitives_.find(name);
        return it == primitives_.end() ? nullptr : it->second.fn;
      }) {
  config_.verify_ir = config_.verify_ir || EnvFlag("AQL_VERIFY_IR");
  init_status_ = RegisterBuiltinDrivers(&io_);
  if (init_status_.ok()) {
    for (NativePrimitive& prim : BuiltinPrimitives()) {
      primitives_[prim.name] = std::move(prim);
    }
    if (config_.load_prelude) {
      auto prelude = Run(PreludeSource());
      if (!prelude.ok()) init_status_ = prelude.status();
    }
  }
}

TypePtr System::LookupScheme(const std::string& name) const {
  auto it = primitives_.find(name);
  return it == primitives_.end() ? nullptr : it->second.scheme;
}

Result<ExprPtr> System::ParseToCore(std::string_view expression) const {
  SurfacePtr surf;
  {
    obs::Span span("query", "parse");
    AQL_ASSIGN_OR_RETURN(surf, ParseExpression(expression));
  }
  obs::Span span("query", "desugar");
  Desugarer desugarer;
  return desugarer.Desugar(surf);
}

Result<ExprPtr> System::ResolveImpl(const ExprPtr& e,
                                    std::vector<std::string>* bound) const {
  if (e->is(ExprKind::kVar)) {
    const std::string& name = e->var_name();
    for (auto it = bound->rbegin(); it != bound->rend(); ++it) {
      if (*it == name) return e;  // locally bound
    }
    if (auto vit = vals_.find(name); vit != vals_.end()) {
      return Expr::Literal(vit->second);
    }
    if (auto mit = macros_.find(name); mit != macros_.end()) {
      return mit->second;  // macro bodies are closed; substitution is safe
    }
    if (primitives_.count(name)) return Expr::External(name);
    return Status::TypeError(StrCat("unknown identifier ", name));
  }
  if (e->is(ExprKind::kExternal)) {
    if (!primitives_.count(e->var_name())) {
      return Status::TypeError(StrCat("unknown external primitive ", e->var_name()));
    }
    return e;
  }
  if (e->children().empty()) return e;
  auto child_binders = ChildBinders(*e);
  std::vector<ExprPtr> children;
  children.reserve(e->children().size());
  bool changed = false;
  for (size_t i = 0; i < e->children().size(); ++i) {
    size_t pushed = child_binders[i].size();
    for (const std::string& b : child_binders[i]) bound->push_back(b);
    AQL_ASSIGN_OR_RETURN(ExprPtr c, ResolveImpl(e->child(i), bound));
    bound->resize(bound->size() - pushed);
    changed |= (c.get() != e->child(i).get());
    children.push_back(std::move(c));
  }
  return changed ? e->WithChildren(std::move(children)) : e;
}

Result<ExprPtr> System::ResolveNames(const ExprPtr& e) const {
  obs::Span span("query", "resolve");
  std::vector<std::string> bound;
  return ResolveImpl(e, &bound);
}

Result<TypePtr> System::TypeOf(const ExprPtr& resolved) const {
  obs::Span span("query", "typecheck");
  TypeChecker checker([this](const std::string& name) { return LookupScheme(name); });
  return checker.Check(resolved);
}

TypeChecker::ExternalLookup System::SchemeResolver() const {
  return [this](const std::string& name) { return LookupScheme(name); };
}

ExprPtr System::Optimize(const ExprPtr& e, RewriteStats* stats) const {
  obs::Span span("query", "optimize");
  if (!config_.verify_ir) return optimizer_.Optimize(e, stats);
  analysis::Verifier verifier(SchemeResolver());
  analysis::VerifierReport report;
  ExprPtr optimized = verifier.OptimizeVerified(optimizer_, e, stats, &report);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "AQL_VERIFY_IR: optimizer broke an IR invariant on\n  %s\n%s",
                 e->ToString().c_str(), report.ToString().c_str());
    std::abort();
  }
  return optimized;
}

Result<std::string> System::VerifyReport(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, CompileUnoptimized(expression));
  analysis::Verifier verifier(SchemeResolver());
  analysis::VerifierReport report;
  verifier.OptimizeVerified(optimizer_, resolved, nullptr, &report);
  return report.ToString();
}

Result<std::string> System::Lint(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, CompileUnoptimized(expression));
  ExprPtr optimized = config_.optimize ? Optimize(resolved) : resolved;
  return analysis::AnalyzePlan(optimized).ToString();
}

Result<ExprPtr> System::CompileUnoptimized(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr core, ParseToCore(expression));
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, ResolveNames(core));
  AQL_RETURN_IF_ERROR(TypeOf(resolved).status());
  return resolved;
}

Result<ExprPtr> System::Compile(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, CompileUnoptimized(expression));
  return config_.optimize ? Optimize(resolved) : resolved;
}

Result<Value> System::EvalCore(const ExprPtr& compiled) const {
  obs::Span span("query", "eval");
  return evaluator_.Eval(compiled);
}

exec::ExternalResolver System::PrimitiveResolver() const {
  return [this](const std::string& name) -> std::shared_ptr<const FuncValue> {
    auto it = primitives_.find(name);
    return it == primitives_.end() ? nullptr : it->second.fn;
  };
}

Result<Value> System::EvalCoreCompiled(const ExprPtr& compiled) const {
  AQL_ASSIGN_OR_RETURN(exec::Program program,
                       exec::Compile(compiled, PrimitiveResolver()));
  return program.Run();
}

Result<Value> System::Eval(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr compiled, Compile(expression));
  return EvalCore(compiled);
}

Result<std::string> System::Profile(std::string_view expression) const {
  obs::TraceCapture capture;
  Status failure = Status::OK();
  analysis::Proof proof;
  {
    // Root span: everything the pipeline does nests under it. Uses the
    // compiled backend, the serving path, so the report shows the
    // exec.compile / exec.run split and any parallel loops.
    obs::Span root("query", "query");
    Result<ExprPtr> compiled = Compile(expression);
    if (!compiled.ok()) {
      failure = compiled.status();
    } else {
      Result<exec::Program> program =
          exec::Compile(*compiled, PrimitiveResolver());
      if (!program.ok()) {
        failure = program.status();
      } else {
        proof = program->proof();
        Result<Value> value = program->Run();
        if (!value.ok()) failure = value.status();
      }
    }
  }
  AQL_RETURN_IF_ERROR(failure);
  std::string out = obs::Profile::Build(capture.TakeRecords()).ToString();
  if (!proof.empty()) {
    // The compile-time certificates behind the plan the profile just
    // timed: which affine facts justified which optimization.
    out += "optimization proofs:\n";
    out += proof.ToString();
  }
  return out;
}

Result<std::string> System::Explain(std::string_view expression) const {
  AQL_ASSIGN_OR_RETURN(ExprPtr core, ParseToCore(expression));
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, ResolveNames(core));
  AQL_ASSIGN_OR_RETURN(TypePtr type, TypeOf(resolved));
  RewriteStats stats;
  ExprPtr optimized = Optimize(resolved, &stats);

  std::string out;
  out += StrCat("type            : ", type->ToString(), "\n");
  out += StrCat("core term size  : ", resolved->TreeSize(), " nodes\n");
  out += StrCat("optimized size  : ", optimized->TreeSize(), " nodes (",
                stats.TotalFirings(), " rule firings over ", stats.passes,
                " passes", stats.hit_budget ? ", budget hit" : "", ")\n");
  if (!stats.firings.empty()) {
    out += "rule firings    :\n";
    std::vector<std::pair<std::string, size_t>> sorted(stats.firings.begin(),
                                                       stats.firings.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [rule, count] : sorted) {
      out += StrCat("  ", rule, ": ", count, "\n");
    }
  }
  out += StrCat("plan            : ", optimized->ToPlanString(), "\n");
  // Compile against the exec backend to collect the proof certificates
  // (pushdowns, pruned aggregates, unchecked kernels and the affine facts
  // that justified them). Compilation can fail where evaluation would too
  // (e.g. an unresolved external); Explain still reports the plan then.
  Result<exec::Program> program = exec::Compile(optimized, PrimitiveResolver());
  if (program.ok() && !program->proof().empty()) {
    out += "proof certificates:\n";
    out += program->proof().ToString();
  }
  return out;
}

Result<std::vector<StatementResult>> System::Run(std::string_view program) {
  AQL_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseProgram(program));
  std::vector<StatementResult> results;
  results.reserve(stmts.size());
  for (const Statement& stmt : stmts) {
    AQL_ASSIGN_OR_RETURN(StatementResult r, RunStatement(stmt));
    results.push_back(std::move(r));
  }
  return results;
}

Result<StatementResult> System::RunStatement(const Statement& stmt) {
  StatementResult result;
  result.kind = stmt.kind;
  result.name = stmt.name;
  Desugarer desugarer;
  switch (stmt.kind) {
    case Statement::Kind::kQuery:
    case Statement::Kind::kVal: {
      AQL_ASSIGN_OR_RETURN(ExprPtr core, desugarer.Desugar(stmt.expr));
      AQL_ASSIGN_OR_RETURN(ExprPtr resolved, ResolveNames(core));
      AQL_ASSIGN_OR_RETURN(result.type, TypeOf(resolved));
      ExprPtr compiled = config_.optimize ? Optimize(resolved) : resolved;
      AQL_ASSIGN_OR_RETURN(result.value, EvalCore(compiled));
      result.has_value = true;
      std::string bind_as = stmt.kind == Statement::Kind::kVal ? stmt.name : "it";
      vals_[bind_as] = result.value;
      return result;
    }
    case Statement::Kind::kMacro: {
      AQL_ASSIGN_OR_RETURN(ExprPtr core, desugarer.Desugar(stmt.expr));
      AQL_ASSIGN_OR_RETURN(ExprPtr resolved, ResolveNames(core));
      AQL_ASSIGN_OR_RETURN(result.type, TypeOf(resolved));
      macros_[stmt.name] = resolved;
      env_epoch_.fetch_add(1, std::memory_order_acq_rel);
      return result;
    }
    case Statement::Kind::kReadval: {
      AQL_ASSIGN_OR_RETURN(ExprPtr args_core, desugarer.Desugar(stmt.at_args));
      AQL_ASSIGN_OR_RETURN(ExprPtr args_resolved, ResolveNames(args_core));
      AQL_RETURN_IF_ERROR(TypeOf(args_resolved).status());
      AQL_ASSIGN_OR_RETURN(Value args, EvalCore(args_resolved));
      AQL_ASSIGN_OR_RETURN(result.value, io_.Read(stmt.reader, args));
      result.has_value = true;
      // Infer the type of the freshly read value for display and checking.
      TypeUnifier unifier;
      AQL_ASSIGN_OR_RETURN(result.type, TypeChecker::TypeOfValue(result.value, &unifier));
      vals_[stmt.name] = result.value;
      return result;
    }
    case Statement::Kind::kWriteval: {
      AQL_ASSIGN_OR_RETURN(ExprPtr payload_core, desugarer.Desugar(stmt.expr));
      AQL_ASSIGN_OR_RETURN(ExprPtr payload_resolved, ResolveNames(payload_core));
      AQL_RETURN_IF_ERROR(TypeOf(payload_resolved).status());
      ExprPtr compiled =
          config_.optimize ? Optimize(payload_resolved) : payload_resolved;
      AQL_ASSIGN_OR_RETURN(Value payload, EvalCore(compiled));
      AQL_ASSIGN_OR_RETURN(ExprPtr args_core, desugarer.Desugar(stmt.at_args));
      AQL_ASSIGN_OR_RETURN(ExprPtr args_resolved, ResolveNames(args_core));
      AQL_ASSIGN_OR_RETURN(Value args, EvalCore(args_resolved));
      AQL_RETURN_IF_ERROR(io_.Write(stmt.reader, payload, args));
      return result;
    }
  }
  return Status::Internal("unknown statement kind");
}

Status System::RegisterPrimitive(const std::string& name, const std::string& type_scheme,
                                 std::function<Result<Value>(const Value&)> fn) {
  if (primitives_.count(name)) {
    return Status::AlreadyExists(StrCat("primitive ", name, " already registered"));
  }
  AQL_ASSIGN_OR_RETURN(TypePtr scheme, ParseType(type_scheme));
  primitives_[name] = NativePrimitive{name, std::move(scheme), WrapFunction(name, std::move(fn))};
  env_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status System::RegisterReader(const std::string& name, IoRegistry::ReaderFn reader) {
  return io_.RegisterReader(name, std::move(reader));
}

Status System::RegisterWriter(const std::string& name, IoRegistry::WriterFn writer) {
  return io_.RegisterWriter(name, std::move(writer));
}

Status System::DefineMacro(const std::string& name, std::string_view aql_source) {
  AQL_ASSIGN_OR_RETURN(ExprPtr core, ParseToCore(aql_source));
  AQL_ASSIGN_OR_RETURN(ExprPtr resolved, ResolveNames(core));
  AQL_RETURN_IF_ERROR(TypeOf(resolved).status());
  macros_[name] = resolved;
  env_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status System::DefineVal(const std::string& name, Value value) {
  vals_[name] = std::move(value);
  return Status::OK();
}

Status System::RegisterRule(const std::string& phase, Rule rule) {
  AQL_RETURN_IF_ERROR(optimizer_.AddRule(phase, std::move(rule)));
  env_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

const Value* System::LookupVal(const std::string& name) const {
  auto it = vals_.find(name);
  return it == vals_.end() ? nullptr : &it->second;
}

const ExprPtr* System::LookupMacro(const std::string& name) const {
  auto it = macros_.find(name);
  return it == macros_.end() ? nullptr : &it->second;
}

}  // namespace aql
