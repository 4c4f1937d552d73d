// Data-parallel execution coverage (docs/EXEC.md):
//
//   - property test: the compiled backend at 1 and at 4 threads (with the
//     parallel threshold forced down to 2 so even tiny arrays take the
//     chunked path) must produce bit-identical values on randomly
//     generated well-typed programs, and both must agree with the
//     tree-walking evaluator;
//   - representation selection: all-scalar tabulations come back unboxed,
//     bodies that can yield ⊥ fall back to boxed partial arrays;
//   - bounds checking: tabulation extents whose product overflows uint64,
//     or exceeds the element cap, fail with EvalError in BOTH backends
//     instead of being silently clamped;
//   - the exec.par.* / exec.unboxed.* process-wide statistics move;
//   - the execution options: parsed once per process, carried per thread
//     by ExecScope, so two configurations run side by side.
//
// Each case installs the options it needs with an ExecScope; nothing here
// touches the AQL_EXEC_* environment except the read-once check.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/cancel.h"
#include "core/expr.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "expr_gen.h"
#include "gtest/gtest.h"
#include "netcdf/writer.h"
#include "object/value.h"
#include "storage/tile_store.h"

namespace aql {
namespace {

// The process defaults with `threads` workers and parallel threshold
// `threshold`.
ExecOptions Par(int threads, uint64_t threshold) {
  ExecOptions o = DefaultExecOptions();
  o.threads = threads;
  o.par_threshold = threshold;
  return o;
}

Result<Value> RunCompiled(const ExprPtr& e,
                          const ExecOptions& options = CurrentExecOptions()) {
  ExecScope scope(nullptr, options);
  AQL_ASSIGN_OR_RETURN(exec::Program program, exec::Compile(e, nullptr));
  return program.Run();
}

ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Arith(ArithOp::kAdd, std::move(a), std::move(b));
}

// ---- property: parallel == sequential == evaluator --------------------

TEST(ExecParTest, ParallelMatchesSequentialOnRandomPrograms) {
  Evaluator ev;
  int compiled_ok = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    testing::ExprGen gen(seed);
    ExprPtr e;
    switch (seed % 3) {
      case 0: e = gen.Arr(4); break;
      case 1: e = gen.Nat(4); break;
      default: e = gen.Set(4); break;
    }

    Result<Value> seq = RunCompiled(e, Par(1, 2));
    Result<Value> par = RunCompiled(e, Par(4, 2));

    // Identical status code, or identical value, bit for bit.
    ASSERT_EQ(seq.ok(), par.ok())
        << "seed " << seed << "\nseq: " << seq.status().ToString()
        << "\npar: " << par.status().ToString();
    if (!seq.ok()) {
      EXPECT_EQ(seq.status().code(), par.status().code()) << "seed " << seed;
      continue;
    }
    ++compiled_ok;
    EXPECT_EQ(seq.value(), par.value()) << "seed " << seed;
    EXPECT_EQ(seq.value().ToString(), par.value().ToString()) << "seed " << seed;

    // Cross-check against the (always sequential) tree-walking evaluator.
    Result<Value> walked = ev.Eval(e);
    ASSERT_TRUE(walked.ok()) << "seed " << seed << ": " << walked.status().ToString();
    EXPECT_EQ(walked.value(), par.value()) << "seed " << seed;
  }
  // The generator should produce mostly-evaluable programs; if this drops,
  // the property test has lost its teeth.
  EXPECT_GT(compiled_ok, 200);
}

// ---- representation selection -----------------------------------------

TEST(ExecParTest, ScalarTabulationsComeBackUnboxed) {
  ExecScope scope(nullptr, Par(4, 4));

  // Nat kernel: [[ i*3 + j | i < 20, j < 20 ]].
  ExprPtr nat_tab =
      Expr::Tab({"i", "j"}, Add(Mul(Expr::Var("i"), Expr::NatConst(3)), Expr::Var("j")),
                {Expr::NatConst(20), Expr::NatConst(20)});
  auto nats = RunCompiled(nat_tab);
  ASSERT_TRUE(nats.ok()) << nats.status().ToString();
  ASSERT_EQ(nats->kind(), ValueKind::kArray);
  EXPECT_EQ(nats->array().payload, ArrayRep::Payload::kNats);
  EXPECT_EQ(nats->array().At(20 * 7 + 3), Value::Nat(24));

  // Real kernel with a gather from an unboxed real array: [[ A[i]*2.0 ]].
  std::vector<double> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = 0.25 * double(i);
  Value a = *Value::MakeRealArray({100}, std::move(data));
  ExprPtr real_tab = Expr::Tab(
      {"i"}, Mul(Expr::Subscript(Expr::Literal(a), Expr::Var("i")), Expr::RealConst(2.0)),
      {Expr::NatConst(100)});
  auto reals = RunCompiled(real_tab);
  ASSERT_TRUE(reals.ok()) << reals.status().ToString();
  EXPECT_EQ(reals->array().payload, ArrayRep::Payload::kReals);
  EXPECT_EQ(reals->array().At(10), Value::Real(5.0));

  // Bool kernel: [[ i % 2 = 0 | i < 64 ]].
  ExprPtr bool_tab = Expr::Tab(
      {"i"},
      Expr::Cmp(CmpOp::kEq, Expr::Arith(ArithOp::kMod, Expr::Var("i"), Expr::NatConst(2)),
                Expr::NatConst(0)),
      {Expr::NatConst(64)});
  auto bools = RunCompiled(bool_tab);
  ASSERT_TRUE(bools.ok()) << bools.status().ToString();
  EXPECT_EQ(bools->array().payload, ArrayRep::Payload::kBools);
  EXPECT_EQ(bools->array().At(6), Value::Bool(true));
  EXPECT_EQ(bools->array().At(7), Value::Bool(false));
}

TEST(ExecParTest, BottomProducingBodiesFallBackToBoxedPartialArrays) {
  ExecScope scope(nullptr, Par(4, 4));
  // i / (i monus 5): division by zero for i <= 5 yields ⊥ at those points —
  // a partial array. ⊥ holes can't live in a flat buffer, so the result
  // must come back boxed, with ⊥ exactly where sequential semantics put it.
  ExprPtr e = Expr::Tab(
      {"i"},
      Expr::Arith(ArithOp::kDiv, Expr::Var("i"),
                  Expr::Arith(ArithOp::kMonus, Expr::Var("i"), Expr::NatConst(5))),
      {Expr::NatConst(32)});
  auto r = RunCompiled(e);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->kind(), ValueKind::kArray);
  EXPECT_EQ(r->array().payload, ArrayRep::Payload::kBoxed);
  for (uint64_t i = 0; i < 32; ++i) {
    if (i <= 5) {
      EXPECT_EQ(r->array().At(i), Value::Bottom()) << i;
    } else {
      EXPECT_EQ(r->array().At(i), Value::Nat(i / (i - 5))) << i;
    }
  }
  // The evaluator agrees point for point.
  Evaluator ev;
  auto walked = ev.Eval(e);
  ASSERT_TRUE(walked.ok());
  EXPECT_EQ(walked.value(), r.value());
}

TEST(ExecParTest, NestedBodiesStayBoxedAndCorrect) {
  ExecScope scope(nullptr, Par(4, 4));
  // Tuple-valued body: no kernel, no unboxed payload, but the generic
  // chunked path must still place every element row-major.
  ExprPtr e = Expr::Tab({"i"},
                        Expr::Tuple({Expr::Var("i"), Mul(Expr::Var("i"), Expr::Var("i"))}),
                        {Expr::NatConst(50)});
  auto r = RunCompiled(e);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->array().payload, ArrayRep::Payload::kBoxed);
  EXPECT_EQ(r->array().At(7), Value::MakeTuple({Value::Nat(7), Value::Nat(49)}));
}

TEST(ExecParTest, ParallelSumAndBigUnionMatchSequential) {
  // Nat sum, real sum (rounding-sensitive), and a big union.
  std::vector<Value> reals;
  for (int i = 0; i < 2000; ++i) reals.push_back(Value::Real(1.0 / (1.0 + i)));
  std::vector<ExprPtr> cases;
  cases.push_back(Expr::Sum("x", Mul(Expr::Var("x"), Expr::Var("x")),
                            Expr::Gen(Expr::NatConst(2000))));
  cases.push_back(Expr::Sum("x",
                            Expr::Arith(ArithOp::kDiv, Expr::Var("x"), Expr::RealConst(7.0)),
                            Expr::Literal(Value::MakeSet(std::move(reals)))));
  cases.push_back(Expr::BigUnion(
      "x", Expr::Gen(Expr::Arith(ArithOp::kMod, Expr::Var("x"), Expr::NatConst(17))),
      Expr::Gen(Expr::NatConst(500))));
  for (const ExprPtr& e : cases) {
    Result<Value> seq = RunCompiled(e, Par(1, 2));
    Result<Value> par = RunCompiled(e, Par(4, 2));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    // Bit-identical, including real rounding (the parallel path evaluates
    // bodies in parallel but folds the partial results sequentially).
    EXPECT_EQ(seq.value(), par.value());
    EXPECT_EQ(seq->ToString(), par->ToString());
  }
}

// ---- bounds checking (no silent clamping) ------------------------------

TEST(ExecParTest, OverflowingTabulationBoundsFailInBothBackends) {
  // 2^40 * 2^40 overflows uint64; the old code clamped its reserve and
  // then looped essentially forever. Both backends must reject up front.
  ExprPtr e = Expr::Tab({"i", "j"}, Add(Expr::Var("i"), Expr::Var("j")),
                        {Expr::NatConst(uint64_t{1} << 40),
                         Expr::NatConst(uint64_t{1} << 40)});
  Evaluator ev;
  auto walked = ev.Eval(e);
  ASSERT_FALSE(walked.ok());
  EXPECT_EQ(walked.status().code(), StatusCode::kEvalError)
      << walked.status().ToString();

  auto compiled = RunCompiled(e);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kEvalError)
      << compiled.status().ToString();
}

TEST(ExecParTest, ElementCapIsConfigurableAndEnforced) {
  ExecOptions capped = DefaultExecOptions();
  capped.max_elems = 1000;
  ExecScope scope(nullptr, capped);
  ExprPtr over = Expr::Tab({"i"}, Expr::Var("i"), {Expr::NatConst(1001)});
  ExprPtr under = Expr::Tab({"i"}, Expr::Var("i"), {Expr::NatConst(1000)});

  Evaluator ev;
  auto walked = ev.Eval(over);
  ASSERT_FALSE(walked.ok());
  EXPECT_EQ(walked.status().code(), StatusCode::kEvalError);
  EXPECT_NE(walked.status().ToString().find("AQL_EXEC_MAX_ELEMS"), std::string::npos)
      << walked.status().ToString();

  auto compiled = RunCompiled(over);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kEvalError);

  // At the cap exactly: fine.
  EXPECT_TRUE(ev.Eval(under).ok());
  EXPECT_TRUE(RunCompiled(under).ok());
}

// ---- strict knob parsing (base/env.h regressions) ----------------------
//
// The inputs go through ParseExecOptions, the one-time parser behind
// DefaultExecOptions(); kHardware stands in for the hardware thread count.

constexpr int kHardware = 5;  // matches no half-parse of the inputs below

TEST(ExecParTest, MalformedThreadKnobsFallBackToDefaults) {
  ASSERT_GE(DefaultExecOptions().threads, 1);
  EXPECT_EQ(ParseExecOptions(nullptr, nullptr, nullptr, kHardware).threads, kHardware);

  // "-1" used to wrap through strtoull to 2^64-1 and come back as the
  // 256-thread clamp; now it is malformed and falls back.
  for (const char* bad : {"-1", "", "12abc", "0x8", " 4", "1e2"}) {
    EXPECT_EQ(ParseExecOptions(bad, nullptr, nullptr, kHardware).threads, kHardware)
        << "value: '" << bad << "'";
  }
  EXPECT_EQ(ParseExecOptions("3", nullptr, nullptr, kHardware).threads, 3);
  for (const char* bad : {"-5", "4k", ""}) {
    EXPECT_EQ(ParseExecOptions(nullptr, bad, nullptr, kHardware).par_threshold, 4096u)
        << "value: '" << bad << "'";
  }
}

TEST(ExecParTest, MalformedElementCapFallsBackToDefault) {
  // Under the old permissive parse, "12abc" became a cap of 12 and this
  // 100-element tabulation failed; malformed now means the default cap.
  ExprPtr e = Expr::Tab({"i"}, Expr::Var("i"), {Expr::NatConst(100)});
  Evaluator ev;
  for (const char* bad : {"12abc", "", "-1"}) {
    ExecScope scope(nullptr, ParseExecOptions(nullptr, nullptr, bad, kHardware));
    EXPECT_TRUE(ev.Eval(e).ok()) << "value: '" << bad << "'";
    EXPECT_TRUE(RunCompiled(e).ok()) << "value: '" << bad << "'";
  }
  {
    // Well-formed values still bind: cap 99 rejects the same tabulation.
    ExecScope scope(nullptr, ParseExecOptions(nullptr, nullptr, "99", kHardware));
    EXPECT_FALSE(ev.Eval(e).ok());
    EXPECT_FALSE(RunCompiled(e).ok());
  }
}

TEST(ExecParTest, KnobsAreReadOnceAtFirstUse) {
  const ExecOptions before = DefaultExecOptions();  // first use, at the latest
  ExprPtr e = Expr::Tab({"i"}, Mul(Expr::Var("i"), Expr::Var("i")), {Expr::NatConst(64)});
  ASSERT_TRUE(RunCompiled(e).ok());

  // A threshold of 1 would send this 64-element tab down the chunked
  // path; read after first use, it must change nothing.
  const char* old = std::getenv("AQL_EXEC_PAR_THRESHOLD");
  std::optional<std::string> saved;
  if (old != nullptr) saved = old;
  ::setenv("AQL_EXEC_PAR_THRESHOLD", "1", 1);
  const uint64_t tasks0 = exec::GlobalExecStats().par_tasks.load();
  const ExecOptions after = DefaultExecOptions();
  const bool parallel = exec::ShouldParallelize(64);
  Result<Value> r = RunCompiled(e);
  const uint64_t tasks1 = exec::GlobalExecStats().par_tasks.load();
  if (saved.has_value()) {
    ::setenv("AQL_EXEC_PAR_THRESHOLD", saved->c_str(), 1);
  } else {
    ::unsetenv("AQL_EXEC_PAR_THRESHOLD");
  }

  EXPECT_EQ(after.par_threshold, before.par_threshold);
  EXPECT_EQ(CurrentExecOptions().par_threshold, before.par_threshold);
  EXPECT_EQ(parallel, before.threads > 1 && before.par_threshold <= 64);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (!parallel) {
    EXPECT_EQ(tasks1, tasks0);
  }
}

// ---- two configurations at once -----------------------------------------

// Writes a rows x cols double variable `v` with element (i, j) = i*1000 + j.
void WriteGrid(const std::string& path, uint64_t rows, uint64_t cols) {
  netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", rows);
  uint32_t c = w.AddDim("col", cols);
  std::vector<double> data(rows * cols);
  for (uint64_t i = 0; i < rows; ++i) {
    for (uint64_t j = 0; j < cols; ++j) data[i * cols + j] = double(i * 1000 + j);
  }
  w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::move(data));
  ASSERT_TRUE(w.WriteFile(path).ok());
}

TEST(ExecParTest, ConcurrentRunsUnderDifferentOptionsMatchTheEvaluator) {
  // A tiled window (pushdown), a matmul-shaped tab of summap (parallel
  // generic loop) and a gather the proofs admit unchecked, each run from
  // two threads at once: one on the reference paths (1 thread, pushdown
  // and unchecked kernels off), one on every fast path (4 threads,
  // threshold 2). Both run the optimized plan and must match the tree
  // walker on the unoptimized term.
  const std::string path =
      (std::filesystem::temp_directory_path() / "aql_exec_par_grid.nc").string();
  WriteGrid(path, 64, 16);
  auto slab = storage::TileStore::Global().OpenSlab(path, "v", {0, 0}, {64, 16});
  ASSERT_TRUE(slab.ok()) << slab.status().ToString();

  System sys;
  auto tiled = Value::MakeTiledArray(*slab);
  ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
  ASSERT_TRUE(sys.DefineVal("S", *tiled).ok());
  auto setup = sys.Run(
      "val \\A = [[ (i * 7 + j) % 13 | \\i < 24, \\j < 24 ]];"
      "val \\g = [[ j * j | \\j < 512 ]];");
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  const std::vector<std::string> queries = {
      "[[ S[i + 8, j + 4] | \\i < 16, \\j < 8 ]]",
      "[[ summap(fn \\k => A[i, k] * A[k, j])!(gen!24) | \\i < 24, \\j < 24 ]]",
      "[[ g[i] + g[(i + 1) % 512] | \\i < 512 ]]",
  };
  std::vector<Value> expected;
  std::vector<exec::Program> programs;
  for (const std::string& q : queries) {
    auto core = sys.CompileUnoptimized(q);
    ASSERT_TRUE(core.ok()) << q << ": " << core.status().ToString();
    auto oracle = sys.EvalCore(*core);
    ASSERT_TRUE(oracle.ok()) << q << ": " << oracle.status().ToString();
    expected.push_back(*oracle);
    auto optimized = sys.Compile(q);
    ASSERT_TRUE(optimized.ok()) << q << ": " << optimized.status().ToString();
    auto program = exec::Compile(*optimized, sys.PrimitiveResolver());
    ASSERT_TRUE(program.ok()) << q << ": " << program.status().ToString();
    programs.push_back(std::move(*program));
  }

  ExecOptions reference = Par(1, 2);
  reference.pushdown = false;
  reference.unchecked = false;
  ExecOptions fast = Par(4, 2);
  fast.pushdown = true;
  fast.unchecked = true;

  constexpr int kRounds = 20;
  auto run_all = [&](const ExecOptions& options, std::vector<Result<Value>>* out) {
    ExecScope scope(nullptr, options);
    for (int round = 0; round < kRounds; ++round) {
      for (const exec::Program& p : programs) out->push_back(p.Run());
    }
  };
  const exec::ExecStats& stats = exec::GlobalExecStats();
  const uint64_t pushdowns0 = stats.tab_pushdowns.load();
  const uint64_t unchecked0 = stats.unchecked_kernels.load();
  const uint64_t chunks0 = stats.par_chunks.load();
  std::vector<Result<Value>> slow_results, fast_results;
  std::thread slow_thread(run_all, reference, &slow_results);
  std::thread fast_thread(run_all, fast, &fast_results);
  slow_thread.join();
  fast_thread.join();

  for (const auto* results : {&slow_results, &fast_results}) {
    ASSERT_EQ(results->size(), kRounds * queries.size());
    for (size_t i = 0; i < results->size(); ++i) {
      const Result<Value>& r = (*results)[i];
      ASSERT_TRUE(r.ok()) << queries[i % queries.size()] << ": " << r.status().ToString();
      EXPECT_EQ(*r, expected[i % queries.size()]) << queries[i % queries.size()];
    }
  }
  // Only the fast thread may take the fast paths...
  EXPECT_GE(stats.tab_pushdowns.load() - pushdowns0, uint64_t{kRounds});
  EXPECT_GE(stats.unchecked_kernels.load() - unchecked0, uint64_t{kRounds});
  EXPECT_GT(stats.par_chunks.load(), chunks0);
  // ...and the reference options alone take none of them.
  const uint64_t pushdowns1 = stats.tab_pushdowns.load();
  const uint64_t unchecked1 = stats.unchecked_kernels.load();
  const uint64_t tasks1 = stats.par_tasks.load();
  std::vector<Result<Value>> alone;
  run_all(reference, &alone);
  EXPECT_EQ(stats.tab_pushdowns.load(), pushdowns1);
  EXPECT_EQ(stats.unchecked_kernels.load(), unchecked1);
  EXPECT_EQ(stats.par_tasks.load(), tasks1);
  std::remove(path.c_str());
}

// ---- statistics --------------------------------------------------------

TEST(ExecParTest, ParallelRunsMoveTheExecStats) {
  ExecScope scope(nullptr, Par(4, 4));
  const exec::ExecStats& stats = exec::GlobalExecStats();
  uint64_t tasks0 = stats.par_tasks.load();
  uint64_t chunks0 = stats.par_chunks.load();
  uint64_t unboxed0 = stats.unboxed_arrays.load();

  ExprPtr e = Expr::Tab({"i"}, Mul(Expr::Var("i"), Expr::Var("i")),
                        {Expr::NatConst(4096)});
  auto r = RunCompiled(e);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->array().unboxed());

  EXPECT_GT(stats.par_tasks.load(), tasks0);
  EXPECT_GT(stats.par_chunks.load(), chunks0);
  EXPECT_GT(stats.unboxed_arrays.load(), unboxed0);
}

}  // namespace
}  // namespace aql
