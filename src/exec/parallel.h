// Data-parallel helpers for the compiled exec backend.
//
// ParallelFor(total, fn) partitions [0, total) into contiguous chunks and
// runs `fn(begin, end)` on each, using a process-wide ThreadPool shared by
// all queries. The calling thread always participates: pool tasks are
// optional helpers claimed from a shared atomic cursor, so a full pool (or
// nested parallelism) degrades to the caller running every chunk itself —
// never a deadlock, never a refusal.
//
// Contract:
//   - fn must write only to disjoint state per [begin, end) range;
//     the row-major output placement of tabulation makes that natural.
//   - Worker tasks run under the caller's CancelToken and ExecOptions
//     (re-installed via ExecScope), so deadlines and cancellation bite
//     inside chunks too.
//   - The returned Status is the first non-OK status in *chunk order*,
//     which for a lowest-index-wins error discipline equals the error the
//     sequential loop would have produced.
//
// The thread count and the minimum element count below which loops stay
// sequential come from CurrentExecOptions() (base/cancel.h), and helpers
// run under the caller's options too.

#ifndef AQL_EXEC_PARALLEL_H_
#define AQL_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "base/status.h"

namespace aql {
namespace exec {

// Effective worker count for data-parallel loops (>= 1).
int ExecThreads();

// True iff a loop over `total` elements should run in parallel under the
// current options (threads > 1 and total >= par_threshold).
bool ShouldParallelize(uint64_t total);

// Runs fn over contiguous chunks covering [0, total). Blocks until every
// chunk has finished (even on error or cancellation: later chunks see the
// failure flag and return early, but are still accounted for). fn must be
// safe to call concurrently from multiple threads.
Status ParallelFor(uint64_t total, const std::function<Status(uint64_t, uint64_t)>& fn);

// Monotonic counters for the service metrics bridge (exec cannot depend on
// service, so service polls these). Relaxed ordering: they are statistics,
// not synchronization.
struct ExecStats {
  std::atomic<uint64_t> par_tasks{0};      // ParallelFor invocations that went parallel
  std::atomic<uint64_t> par_chunks{0};     // chunks executed by parallel loops
  std::atomic<uint64_t> unboxed_arrays{0};  // arrays materialized with an unboxed payload
  std::atomic<uint64_t> kernels{0};  // tabulations a fused kernel produced (checked or not)
  std::atomic<uint64_t> unchecked_kernels{0};  // tabulations run without per-cell checks
  std::atomic<uint64_t> tab_pushdowns{0};  // tabs served by one bulk tile-store range read
  std::atomic<uint64_t> filter_indexed{0};  // equality-filter probes answered from a key index
  std::atomic<uint64_t> index_streamed{0};  // index_k results bucketed from streamed pairs
};
ExecStats& GlobalExecStats();

}  // namespace exec
}  // namespace aql

#endif  // AQL_EXEC_PARALLEL_H_
