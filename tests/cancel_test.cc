// Cancellation / deadline coverage: a deliberately huge tabulation or sum
// must come back as a DeadlineExceeded (or Cancelled) Status — not hang,
// not crash — from BOTH execution paths:
//   - the tree-walking evaluator (src/eval), and
//   - the slot-compiled backend (src/exec).
// Also checks that an un-armed token costs nothing semantically and that
// explicit Cancel() from another thread interrupts a running evaluation.

#include <chrono>
#include <functional>
#include <thread>

#include "base/cancel.h"
#include "core/expr.h"
#include "env/system.h"
#include "eval/evaluator.h"
#include "exec/compiled.h"
#include "gtest/gtest.h"

namespace aql {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ~10^10-point tabulation: [[ i + j | i < 100000, j < 100000 ]].
// Finishing this within a test run is impossible; it only terminates if the
// interrupt polling works.
ExprPtr HugeTab() {
  return Expr::Tab({"i", "j"},
                   Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("j")),
                   {Expr::NatConst(100000), Expr::NatConst(100000)});
}

// Sum over gen!(4*10^8): the gen loop itself must poll, since the set is
// materialized before the sum starts.
ExprPtr HugeSum() {
  return Expr::Sum("x", Expr::Var("x"), Expr::Gen(Expr::NatConst(400000000)));
}

// The process defaults with four exec threads, so the big tabulations
// below take the chunked parallel path.
ExecOptions FourThreads() {
  ExecOptions o = DefaultExecOptions();
  o.threads = 4;
  return o;
}

// Runs `fn` under a token armed with `timeout`, expecting a prompt
// DeadlineExceeded.
void ExpectDeadline(const std::function<Result<Value>()>& fn,
                    milliseconds timeout) {
  CancelToken token;
  token.SetTimeout(timeout);
  ExecScope scope(&token);
  auto start = steady_clock::now();
  Result<Value> r = fn();
  auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().ToString();
  // "Prompt": polling is per-iteration (or every 4096 for gen), so the
  // overshoot past the deadline should be far below this slack.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(CancelTest, EvaluatorHugeTabulationHitsDeadline) {
  Evaluator ev;
  ExpectDeadline([&] { return ev.Eval(HugeTab()); }, milliseconds(50));
}

TEST(CancelTest, EvaluatorHugeSumHitsDeadline) {
  Evaluator ev;
  ExpectDeadline([&] { return ev.Eval(HugeSum()); }, milliseconds(50));
}

TEST(CancelTest, CompiledHugeTabulationHitsDeadline) {
  auto program = exec::Compile(HugeTab(), nullptr);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ExpectDeadline([&] { return program.value().Run(); }, milliseconds(50));
}

TEST(CancelTest, CompiledHugeSumHitsDeadline) {
  auto program = exec::Compile(HugeSum(), nullptr);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ExpectDeadline([&] { return program.value().Run(); }, milliseconds(50));
}

TEST(CancelTest, SystemEvalPathsHitDeadline) {
  // Through the host API: EvalCore (evaluator) and EvalCoreCompiled (exec).
  System sys;
  CancelToken token;
  token.SetTimeout(milliseconds(50));
  {
    ExecScope scope(&token);
    auto r = sys.EvalCore(HugeTab());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    auto r2 = sys.EvalCoreCompiled(HugeTab());
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(CancelTest, ExplicitCancelFromAnotherThread) {
  CancelToken token;
  Evaluator ev;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(30));
    token.Cancel();
  });
  Result<Value> r = [&]() -> Result<Value> {
    ExecScope scope(&token);
    return ev.Eval(HugeTab());
  }();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
}

TEST(CancelTest, DeadlineInterruptsParallelTabulation) {
  // A tabulation big enough to take the chunked parallel path (well above
  // the parallel threshold) but small enough to allocate: the per-chunk
  // interrupt polls inside the worker loops must observe the deadline and
  // fail the whole tabulation promptly.
  ExecScope scope(nullptr, FourThreads());
  ExprPtr tab = Expr::Tab(
      {"i", "j"},
      Expr::Sum("x", Expr::Var("x"),
                Expr::Gen(Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("j")))),
      {Expr::NatConst(1000), Expr::NatConst(1000)});
  auto program = exec::Compile(tab, nullptr);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ExpectDeadline([&] { return program.value().Run(); }, milliseconds(50));
}

TEST(CancelTest, ExplicitCancelStopsParallelTabulation) {
  ExprPtr tab = Expr::Tab(
      {"i", "j"},
      Expr::Sum("x", Expr::Var("x"),
                Expr::Gen(Expr::Arith(ArithOp::kAdd, Expr::Var("i"), Expr::Var("j")))),
      {Expr::NatConst(1000), Expr::NatConst(1000)});
  auto program = exec::Compile(tab, nullptr);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(30));
    token.Cancel();
  });
  Result<Value> r = [&]() -> Result<Value> {
    ExecScope scope(&token, FourThreads());
    return program.value().Run();
  }();
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
}

TEST(CancelTest, UnarmedTokenDoesNotPerturbResults) {
  CancelToken token;  // no deadline, never cancelled
  ExecScope scope(&token);
  Evaluator ev;
  // sum{ x | x in gen!100 } = 0+1+...+99 = 4950
  ExprPtr e = Expr::Sum("x", Expr::Var("x"), Expr::Gen(Expr::NatConst(100)));
  auto r = ev.Eval(e);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), Value::Nat(4950));

  auto program = exec::Compile(e, nullptr);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto rc = program.value().Run();
  ASSERT_TRUE(rc.ok()) << rc.status().ToString();
  EXPECT_EQ(rc.value(), Value::Nat(4950));
}

TEST(CancelTest, NoScopeMeansNoInterrupt) {
  // Without an ExecScope, CheckInterrupt() is a no-op even if some token
  // exists and is cancelled.
  CancelToken token;
  token.Cancel();
  Evaluator ev;
  auto r = ev.Eval(Expr::Sum("x", Expr::Var("x"), Expr::Gen(Expr::NatConst(10))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), Value::Nat(45));
}

TEST(CancelTest, TokenStateTransitions) {
  CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  token.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(token.Check().ok());
  token.SetDeadline(steady_clock::now() - milliseconds(1));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  token.Cancel();  // explicit cancel wins over deadline
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace aql
