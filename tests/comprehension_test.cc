// Set comprehensions in the compiled backend (docs/EXEC.md §7): set-valued
// nodes stream their elements into one accumulator, a big union whose body
// is `if K = P then T else {}` answers repeated probes of one source set
// from a key index, and index_k buckets the pairs its comprehension
// streams. Every fast path must reproduce the tree walker on the
// unoptimized term bit for bit, with the same first ⊥ or error:
//
//   - differential test: generated nest / equi-join / index_k terms over
//     nat, real (NaN, -0.0) and tuple keys, with ⊥ and erring keys and
//     probes, empty sources and duplicate pairs, compiled optimized plan
//     vs EvalCore on the unoptimized term, under {1 thread; 4 threads with
//     par_threshold 2};
//   - the order on reals: NaN sorts above every other real and equals
//     every NaN, in sets, arrays and kernels alike;
//   - index_k extents: overflow and the element cap are EvalErrors in
//     both backends, not a crash.
//
// Runs in both sanitizer lanes (ctest -L asan, ctest -L tsan).

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/cancel.h"
#include "core/expr.h"
#include "env/system.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "object/value.h"
#include "service/service.h"
#include "test_util.h"

namespace aql {
namespace {

using testing::SameBits;

std::vector<ExecOptions> Configs() {
  std::vector<ExecOptions> out;
  for (int threads : {1, 4}) {
    ExecOptions o = DefaultExecOptions();
    o.threads = threads;
    o.par_threshold = threads == 1 ? o.par_threshold : 2;
    out.push_back(o);
  }
  return out;
}

std::string Show(const Result<Value>& r) {
  return r.ok() ? r->ToString() : r.status().ToString();
}

Result<Value> RunUnder(const exec::Program& program, const ExecOptions& o) {
  ExecScope scope(nullptr, o);
  return program.Run();
}

// A tabulation of comprehensions with a ⊥ cell: the later cells probed
// the filter's source again after a ⊥ key or probe.
bool HasBottomCell(const Value& v) {
  if (v.kind() != ValueKind::kArray) return false;
  for (uint64_t i = 0; i < v.array().TotalSize(); ++i) {
    if (v.array().At(i).is_bottom()) return true;
  }
  return false;
}

TEST(ComprehensionTest, CompiledComprehensionsMatchTheTreeWalkerBitForBit) {
  System sys;
  const std::vector<ExecOptions> configs = Configs();
  int defined = 0, bottoms = 0, errors = 0, partial = 0, indexed_runs = 0, streamed_runs = 0;
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    testing::ExprGen gen(seed);
    ExprPtr term = gen.Comprehension();
    Result<Value> ref = sys.EvalCore(term);  // tree walker, unoptimized term
    ExprPtr plan = sys.Optimize(term);
    Result<exec::Program> program = exec::Compile(plan, sys.PrimitiveResolver());
    ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << plan->ToString();
    if (!ref.ok()) {
      ++errors;
    } else if (ref->is_bottom()) {
      ++bottoms;
    } else {
      ++defined;
      partial += HasBottomCell(*ref) ? 1 : 0;
    }
    for (const ExecOptions& o : configs) {
      const uint64_t indexed = exec::GlobalExecStats().filter_indexed.load();
      const uint64_t streamed = exec::GlobalExecStats().index_streamed.load();
      Result<Value> got = RunUnder(*program, o);
      indexed_runs += exec::GlobalExecStats().filter_indexed.load() > indexed ? 1 : 0;
      streamed_runs += exec::GlobalExecStats().index_streamed.load() > streamed ? 1 : 0;
      const std::string where =
          StrCat("seed ", seed, " threads=", o.threads, " par_threshold=", o.par_threshold,
                 "\nterm: ", term->ToString(), "\nplan: ", plan->ToString(),
                 "\ncompiled:    ", Show(got), "\ntree walker: ", Show(ref));
      ASSERT_EQ(got.ok(), ref.ok()) << where;
      if (!ref.ok()) {
        EXPECT_EQ(got.status().code(), ref.status().code()) << where;
        continue;
      }
      EXPECT_TRUE(SameBits(*got, *ref)) << where;
    }
  }
  // The generator reaches the shapes this test exists for. Seeds 0..1499
  // give 1378 defined answers (134 of them tabulations with a ⊥ cell), 90
  // ⊥ and 32 errors; the indexed filter answered probes in 514 runs and
  // index_k streamed in 742.
  EXPECT_GT(defined, 1000);
  EXPECT_GT(bottoms, 60);
  EXPECT_GT(errors, 20);
  EXPECT_GT(partial, 90) << "too few tabulations kept probing after a ⊥ cell";
  EXPECT_GT(indexed_runs, 350) << "too few runs answered a probe from a key index";
  EXPECT_GT(streamed_runs, 500) << "too few index_k runs bucketed streamed pairs";
}

// ---- the indexed filter's rules ----

struct Both {
  Result<Value> walker = Value();
  Result<Value> compiled = Value();
  uint64_t probes = 0;  // exec.filter.indexed during the compiled run
};

Both RunBoth(System* sys, const std::string& query) {
  Both r;
  Result<ExprPtr> core = sys->CompileUnoptimized(query);
  EXPECT_TRUE(core.ok()) << query << ": " << core.status().ToString();
  if (!core.ok()) return r;
  r.walker = sys->EvalCore(*core);
  Result<exec::Program> program =
      exec::Compile(sys->Optimize(*core), sys->PrimitiveResolver());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return r;
  ExecOptions o = CurrentExecOptions();
  o.threads = 1;
  const uint64_t before = exec::GlobalExecStats().filter_indexed.load();
  r.compiled = RunUnder(*program, o);
  r.probes = exec::GlobalExecStats().filter_indexed.load() - before;
  return r;
}

TEST(ComprehensionTest, NestScansOnceThenProbesTheIndex) {
  // Ten pairs: the inner filter scans its source at the first outer
  // element, builds the index at the second, and answers the other nine
  // probes from it.
  System sys;
  Both r = RunBoth(&sys, "nest!({ (x % 3, x) | \\x <- gen!10 })");
  ASSERT_TRUE(r.walker.ok() && r.compiled.ok()) << Show(r.walker) << " / " << Show(r.compiled);
  EXPECT_TRUE(SameBits(*r.compiled, *r.walker))
      << Show(r.compiled) << "\ntree walker: " << Show(r.walker);
  EXPECT_EQ(r.probes, 9u);
  EXPECT_EQ(r.compiled->ToString(), "{(0, {0, 3, 6, 9}), (1, {1, 4, 7}), (2, {2, 5, 8})}");
}

TEST(ComprehensionTest, UndefinedKeysKeepTheScan) {
  // The key 4 / b is ⊥ at b = 0. A ⊥ ends a comprehension, but not a
  // tabulation: cell 0 scans and is ⊥, cell 1 sees the same source a
  // second time, finds a ⊥ key while building the index, marks it
  // unusable and scans again. Every cell is ⊥ in both backends.
  System sys;
  Both r = RunBoth(&sys, "[[ { b | \\b <- gen!5, 4 / b = i } | \\i < 3 ]]");
  ASSERT_TRUE(r.walker.ok() && r.compiled.ok()) << Show(r.walker) << " / " << Show(r.compiled);
  EXPECT_EQ(r.walker->ToString(), "[[3; bottom, bottom, bottom]]");
  EXPECT_TRUE(SameBits(*r.compiled, *r.walker)) << Show(r.compiled);
  EXPECT_EQ(r.probes, 0u);
}

TEST(ComprehensionTest, ProbeIsNotEvaluatedOverAnEmptySource) {
  // An empty source never evaluates the probe, so a ⊥ probe gives {}.
  System sys;
  Both r = RunBoth(&sys,
                   "{ (a, { b | \\b <- gen!0, b = a / 0 }) | \\a <- gen!3 }");
  ASSERT_TRUE(r.walker.ok() && r.compiled.ok());
  EXPECT_EQ(r.walker->ToString(), "{(0, {}), (1, {}), (2, {})}");
  EXPECT_TRUE(SameBits(*r.compiled, *r.walker)) << Show(r.compiled);
}

TEST(ComprehensionTest, BottomProbeAfterTheIndexIsBuiltIsBottom) {
  // The probe a / (2 - a) is ⊥ at a = 2, after the index is built at
  // a = 1: the answer is ⊥ in both backends.
  System sys;
  Both r = RunBoth(&sys,
                   "{ (a, { b | \\b <- gen!4, b = a / (2 - a) }) | \\a <- gen!4 }");
  ASSERT_TRUE(r.walker.ok() && r.compiled.ok());
  EXPECT_TRUE(r.walker->is_bottom()) << Show(r.walker);
  EXPECT_TRUE(SameBits(*r.compiled, *r.walker)) << Show(r.compiled);
}

// ---- the order on reals ----

TEST(ComprehensionTest, NaNSetHasFourElementsInEveryInputOrder) {
  System sys;
  std::vector<std::string> parts = {"1.0", "0.0 / 0.0", "2.0", "0.5"};
  std::sort(parts.begin(), parts.end());
  int orders = 0;
  do {
    const std::string list = StrCat(parts[0], ", ", parts[1], ", ", parts[2], ", ", parts[3]);
    for (const std::string& q : {StrCat("{ ", list, " }"),
                                 StrCat("{ x | \\x <- { ", list, " } }")}) {
      Both r = RunBoth(&sys, q);
      ASSERT_TRUE(r.walker.ok() && r.compiled.ok()) << q;
      EXPECT_EQ(r.walker->ToString(), "{0.5, 1.0, 2.0, nan}") << q;
      EXPECT_TRUE(SameBits(*r.compiled, *r.walker))
          << q << "\ncompiled: " << Show(r.compiled) << "\ntree walker: " << Show(r.walker);
    }
    ++orders;
  } while (std::next_permutation(parts.begin(), parts.end()));
  EXPECT_EQ(orders, 24);
}

TEST(ComprehensionTest, NaNArrayIsNotEqualToARealArray) {
  System sys;
  for (const auto& [q, want] :
       std::vector<std::pair<std::string, bool>>{
           {"[[ 0.0 / 0.0 | \\i < 3 ]] = [[ 1.0 | \\i < 3 ]]", false},
           {"[[ 0.0 / 0.0 | \\i < 3 ]] = [[ 0.0 / 0.0 | \\i < 3 ]]", true},
           {"[[ 0.0 / 0.0 | \\i < 3 ]] > [[ 1.0 | \\i < 3 ]]", true}}) {
    Both r = RunBoth(&sys, q);
    ASSERT_TRUE(r.walker.ok() && r.compiled.ok()) << q;
    EXPECT_TRUE(SameBits(*r.walker, Value::Bool(want))) << q << ": " << Show(r.walker);
    EXPECT_TRUE(SameBits(*r.compiled, Value::Bool(want))) << q << ": " << Show(r.compiled);
  }
}

TEST(ComprehensionTest, KernelAndGenericComparisonsAgreeOnNaN) {
  // Every pair of R's elements under all six comparisons: the fused kernel
  // (checked and unchecked) must give the tree walker's bools.
  System sys;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(
      sys.DefineVal("R", *Value::MakeRealArray({5}, {nan, -0.0, 0.0, 1.0, -nan})).ok());
  for (const std::string op : {"=", "<>", "<", "<=", ">", ">="}) {
    const std::string q = StrCat("[[ R[i] ", op, " R[j] | \\i < 5, \\j < 5 ]]");
    Result<ExprPtr> core = sys.CompileUnoptimized(q);
    ASSERT_TRUE(core.ok()) << q << ": " << core.status().ToString();
    Result<Value> ref = sys.EvalCore(*core);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    Result<exec::Program> program =
        exec::Compile(sys.Optimize(*core), sys.PrimitiveResolver());
    ASSERT_TRUE(program.ok());
    for (bool unchecked : {true, false}) {
      ExecOptions o = DefaultExecOptions();
      o.unchecked = unchecked;
      const uint64_t kernels = exec::GlobalExecStats().kernels.load();
      Result<Value> got = RunUnder(*program, o);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_GT(exec::GlobalExecStats().kernels.load(), kernels) << q << " ran no kernel";
      EXPECT_TRUE(SameBits(*got, *ref)) << q << "\nkernel:      " << got->ToString()
                                        << "\ntree walker: " << ref->ToString();
    }
  }
}

// ---- index_k extents ----

TEST(ComprehensionTest, OversizedIndexIsAnEvalErrorInBothBackends) {
  System sys;
  service::QueryService svc(&sys, {.num_workers = 1});
  for (const std::string q : {"index!({ (17592186044416, 1) })",
                              "index2!({ ((4294967295, 4294967295), 1) })",
                              "index!({ (18446744073709551615, 1) })"}) {
    Result<Value> walker = sys.Eval(q);  // the REPL's script path
    EXPECT_EQ(walker.status().code(), StatusCode::kEvalError) << q << ": " << Show(walker);
    Result<Value> compiled = svc.Execute(q);
    EXPECT_EQ(compiled.status().code(), StatusCode::kEvalError) << q << ": " << Show(compiled);
  }
  // Under a capped scope the cap bites in both; below it the answer stands.
  ExecOptions capped = DefaultExecOptions();
  capped.max_elems = 64;
  ExecScope scope(nullptr, capped);
  Both over = RunBoth(&sys, "index!({ (64, 1), (3, 2) })");
  EXPECT_EQ(over.walker.status().code(), StatusCode::kEvalError) << Show(over.walker);
  EXPECT_EQ(over.compiled.status().code(), StatusCode::kEvalError) << Show(over.compiled);
  Result<Value> via_service = svc.Execute("index!({ (64, 1), (3, 2) })");
  EXPECT_EQ(via_service.status().code(), StatusCode::kEvalError) << Show(via_service);
  Both under = RunBoth(&sys, "index!({ (63, 1), (3, 2) })");
  ASSERT_TRUE(under.walker.ok() && under.compiled.ok());
  EXPECT_TRUE(SameBits(*under.compiled, *under.walker));
  EXPECT_EQ(under.walker->array().dims, std::vector<uint64_t>{64});
}

TEST(ComprehensionTest, MalformedPairGivesTheCanonicalSetsFirstError) {
  // Untyped core: the comprehension emits a pair with a real key before
  // the bare nat 3. In the canonical set the nat comes first (nat < tuple),
  // so index_1 must report the nat's "(key, value) pairs" error, as it
  // does over the canonical set, not the real key's.
  System sys;
  ExprPtr term = Expr::Index(
      1, Expr::Union(Expr::Singleton(Expr::Tuple({Expr::RealConst(1.5), Expr::NatConst(1)})),
                     Expr::Singleton(Expr::NatConst(3))));
  Result<exec::Program> program = exec::Compile(term, sys.PrimitiveResolver());
  ASSERT_TRUE(program.ok());
  Result<Value> got = program->Run();
  ASSERT_EQ(got.status().code(), StatusCode::kEvalError) << Show(got);
  EXPECT_NE(got.status().message().find("pairs"), std::string::npos) << Show(got);
  EXPECT_EQ(sys.EvalCore(term).status().code(), StatusCode::kEvalError);
}

}  // namespace
}  // namespace aql
