// Cooperative cancellation and deadlines for long-running evaluations.
//
// The evaluator and the compiled backend are recursive interpreters; a
// query like `Sum{ x | \x <- gen!4000000000 }` would otherwise spin until
// completion with no way to stop it. The service layer (src/service)
// instead arms a CancelToken per query — carrying an optional deadline
// and an explicit cancel flag — and installs it for the duration of the
// evaluation with an ExecScope. The loop constructs of both backends
// (big union, sum, tabulation, gen) poll CheckInterrupt(), which returns
// a Cancelled / DeadlineExceeded Status that unwinds the evaluation like
// any other host error.
//
// The token is installed in a thread_local slot, so concurrent
// evaluations on different threads are independently cancellable and
// code outside any ExecScope pays a single thread-local pointer load per
// loop iteration.
//
// The same scope carries the query's ExecOptions: the execution knobs,
// parsed from the environment once per process and then passed by value,
// so two configurations can run side by side in one process.

#ifndef AQL_BASE_CANCEL_H_
#define AQL_BASE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "base/status.h"

namespace aql {

// Shared cancellation state for one query. Thread-safe: the worker polls
// it while any other thread may call Cancel() or arm a deadline.
class CancelToken {
 public:
  CancelToken() = default;

  // Requests cooperative cancellation; the running evaluation returns a
  // Cancelled status at its next poll.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return cancelled_.load(std::memory_order_relaxed); }

  // Arms an absolute deadline on the steady clock.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(), std::memory_order_relaxed);
  }
  void SetTimeout(std::chrono::nanoseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }

  // OK, or the Status explaining why evaluation must stop.
  Status Check() const {
    if (cancel_requested()) return Status::Cancelled("query cancelled");
    int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= d) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

// Execution knobs of both backends. Read by the loop nodes on every run,
// so a plain value: no parsing, locking or environment access.
struct ExecOptions {
  int threads = 1;                // workers for data-parallel loops (>= 1)
  uint64_t par_threshold = 4096;  // minimum element count to go parallel
  uint64_t max_elems = uint64_t{1} << 36;  // element cap of one tabulation
  bool pushdown = true;   // false: tiled tabs and sums take the generic path
  bool unchecked = true;  // false: proof-admitted kernels keep per-cell checks
};

// Options from knob text as getenv returns it (nullptr when unset), under
// base/env.h's strict parse: a malformed or zero value falls back to its
// default, and the thread count defaults to `hardware_threads`.
ExecOptions ParseExecOptions(const char* threads, const char* par_threshold,
                             const char* max_elems, int hardware_threads);

// The process defaults: AQL_EXEC_THREADS, AQL_EXEC_PAR_THRESHOLD,
// AQL_EXEC_MAX_ELEMS and the hardware thread count, read once at first use.
const ExecOptions& DefaultExecOptions();

// The options of the innermost ExecScope on this thread, else the defaults.
const ExecOptions& CurrentExecOptions();

// RAII: installs `token` as the current thread's interrupt source and
// `options` as its execution knobs for the lifetime of the scope. Scopes
// nest; the innermost wins, and by default keeps the options in effect.
class ExecScope {
 public:
  explicit ExecScope(const CancelToken* token,
                     const ExecOptions& options = CurrentExecOptions());
  ~ExecScope();

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  friend const CancelToken* CurrentCancelToken();
  friend const ExecOptions& CurrentExecOptions();
  const CancelToken* const token_;
  const ExecOptions options_;
  const ExecScope* const previous_;
};

// The token installed on this thread, or nullptr.
const CancelToken* CurrentCancelToken();

// Polled by evaluator/exec loop constructs: OK when no token is installed
// or the token is still live; Cancelled / DeadlineExceeded otherwise.
inline Status CheckInterrupt() {
  const CancelToken* token = CurrentCancelToken();
  return token == nullptr ? Status::OK() : token->Check();
}

}  // namespace aql

#endif  // AQL_BASE_CANCEL_H_
