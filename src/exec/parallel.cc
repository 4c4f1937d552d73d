#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "base/cancel.h"
#include "base/sync.h"
#include "base/thread_pool.h"
#include "obs/trace.h"

namespace aql {
namespace exec {

namespace {

// Lazily constructed, never destroyed: workers may still be parked in the
// pool at process exit, and tearing the pool down from a static destructor
// would race with other static teardown.
ThreadPool& Pool() {
  static ThreadPool* pool = [] {
    // Size for the larger of the default and the first loop's thread count;
    // the per-call thread count only decides how many helpers we submit.
    int n = std::max(DefaultExecOptions().threads, CurrentExecOptions().threads);
    return new ThreadPool(static_cast<size_t>(std::max(n - 1, 1)),
                          /*max_queue=*/256, "exec.pool");
  }();
  return *pool;
}

// Shared state of one ParallelFor. Chunks are claimed from an atomic
// cursor, so the caller and however many helpers the pool granted
// cooperate without static assignment. Held by shared_ptr: a helper task
// that is still queued when the caller finishes every chunk must find
// valid (spent) state when it finally runs, not a dead stack frame.
struct ForState {
  uint64_t total = 0;
  uint64_t chunk = 0;
  uint64_t num_chunks = 0;
  const std::function<Status(uint64_t, uint64_t)>* fn = nullptr;
  std::atomic<uint64_t> cursor{0};
  std::atomic<bool> failed{false};

  Mutex mu{"exec.par.state", lock_rank::kExecForState};
  CondVar done_cv;
  // Per chunk, written once by its claimant (disjoint indices, but kept
  // under mu so the completion protocol is one static story).
  std::vector<Status> status AQL_GUARDED_BY(mu);
  uint64_t chunks_done AQL_GUARDED_BY(mu) = 0;
};

// Error determinism: the cursor hands out chunks in ascending order, so
// when a chunk sees `failed` set, the failing chunk has a *lower* index —
// skipping can only suppress errors at higher indices than one already
// recorded. The lowest-index failing chunk therefore always executes and
// records its status, and (since every earlier chunk succeeded and fn
// stops at its first error) the first non-OK status in chunk order is
// exactly the error a sequential left-to-right loop would have produced.
void RunChunks(ForState& st) {
  for (;;) {
    uint64_t c = st.cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= st.num_chunks) return;
    Status s = Status::OK();
    if (!st.failed.load(std::memory_order_relaxed)) {
      uint64_t begin = c * st.chunk;
      uint64_t end = std::min(st.total, begin + st.chunk);
      s = (*st.fn)(begin, end);
      if (!s.ok()) st.failed.store(true, std::memory_order_relaxed);
    }
    GlobalExecStats().par_chunks.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(&st.mu);
      st.status[c] = std::move(s);
      ++st.chunks_done;
    }
    st.done_cv.NotifyAll();
  }
}

}  // namespace

int ExecThreads() { return CurrentExecOptions().threads; }

bool ShouldParallelize(uint64_t total) {
  const ExecOptions& o = CurrentExecOptions();
  return o.threads > 1 && total >= o.par_threshold;
}

Status ParallelFor(uint64_t total,
                   const std::function<Status(uint64_t, uint64_t)>& fn) {
  if (total == 0) return Status::OK();
  if (!ShouldParallelize(total)) return fn(0, total);
  const ExecOptions& options = CurrentExecOptions();
  const int threads = options.threads;

  obs::Span span("exec", "exec.parallel_for");
  span.AddCount("elems", total);

  auto st = std::make_shared<ForState>();
  st->total = total;
  // Oversplit relative to the thread count so stragglers rebalance, but
  // keep chunks big enough that the claim traffic stays negligible.
  uint64_t target_chunks = static_cast<uint64_t>(threads) * 4;
  st->chunk = std::max<uint64_t>(1, (total + target_chunks - 1) / target_chunks);
  st->num_chunks = (total + st->chunk - 1) / st->chunk;
  st->fn = &fn;
  {
    MutexLock lock(&st->mu);
    st->status.assign(st->num_chunks, Status::OK());
  }

  GlobalExecStats().par_tasks.fetch_add(1, std::memory_order_relaxed);

  // Helper tasks re-install the caller's CancelToken so CheckInterrupt()
  // inside fn observes the same deadline/cancellation as the caller, and
  // a copy of its options so nested loops and kernels decide alike. A
  // task that only starts after the loop is drained claims no chunk and
  // never dereferences `token` or `fn`, so their lifetimes end safely
  // with this call.
  const CancelToken* token = CurrentCancelToken();
  int helpers = 0;
  for (int i = 0; i < threads - 1; ++i) {
    bool ok = Pool().TrySubmit([st, token, options] {
      ExecScope scope(token, options);
      RunChunks(*st);
    });
    if (!ok) break;  // full pool: the caller just runs more chunks itself
    ++helpers;
  }

  RunChunks(*st);  // caller participates; returns once the cursor is spent

  // Helpers may still be finishing chunks they claimed before the caller
  // drained the cursor; fn and the output buffers live in our caller, so
  // wait for every chunk to be accounted for. The first non-OK status (in
  // chunk order) is read under the same lock that sequenced the writes.
  Status result = Status::OK();
  {
    MutexLock lock(&st->mu);
    while (st->chunks_done != st->num_chunks) st->done_cv.Wait(&st->mu);
    for (Status& s : st->status) {
      if (!s.ok()) {
        result = std::move(s);
        break;
      }
    }
  }

  span.AddCount("chunks", st->num_chunks);
  span.AddCount("helpers", static_cast<uint64_t>(helpers));
  return result;
}

ExecStats& GlobalExecStats() {
  static ExecStats* stats = new ExecStats();
  return *stats;
}

}  // namespace exec
}  // namespace aql
