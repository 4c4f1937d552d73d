// aql::service::QueryService — a concurrent query service over one System.
//
// The paper's §4.1 architecture separates the query module from the host
// precisely so the system can serve many callers; this layer supplies the
// serving machinery the paper leaves to the SML top level:
//
//   - a fixed worker pool with a bounded admission queue (back-pressure:
//     overload returns ResourceExhausted instead of queuing unboundedly),
//   - an LRU plan cache keyed by the structural hash of the resolved core
//     term (compile once, run many times — the §3/§5 efficiency story),
//   - per-query deadlines and explicit cancellation, enforced inside the
//     evaluator's and compiled backend's loop constructs via
//     base/cancel.h, so runaway queries stop promptly,
//   - a metrics registry (counters + latency histograms) rendered by the
//     REPL's :stats command.
//
// Concurrency model: queries (pure expressions) execute under a shared
// lock and may run on all workers at once; RunScript — statements that
// mutate the environment (val/macro/readval/writeval) — takes the
// exclusive lock, honouring System's thread-safety contract (system.h).
//
// Typical embedding:
//
//   aql::System sys;                       // setup phase: register, define
//   aql::service::QueryService svc(&sys, {.num_workers = 8});
//   auto sub = svc.Submit("Sum{ x | \\x <- gen!1000 }",
//                         {.deadline = std::chrono::milliseconds(50)});
//   Result<Value> r = sub.Wait();          // value, or DeadlineExceeded
//
// All public methods are thread-safe.

#ifndef AQL_SERVICE_SERVICE_H_
#define AQL_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/cancel.h"
#include "base/result.h"
#include "base/sync.h"
#include "env/system.h"
#include "service/metrics.h"
#include "service/plan_cache.h"
#include "service/result_cache.h"
#include "base/thread_pool.h"

namespace aql {
namespace service {

struct ServiceConfig {
  size_t num_workers = 4;
  size_t max_queue = 256;            // admission bound (queued, not running)
  size_t plan_cache_capacity = 128;  // entries; 0 disables the cache
  // Semantic result cache (service/result_cache.h): repeated queries are
  // answered from their cached VALUE, and constant-extent subslab queries
  // from a slice of a cached containing slab, without compiling or
  // executing anything. Bounded by approximate bytes; 0 disables.
  // AQL_RESULT_CACHE_BYTES=<n>, read once at service construction,
  // overrides the bound (0 disables). Invalidation is automatic — see
  // System::mutation_epoch() and docs/CACHING.md.
  uint64_t result_cache_bytes = 64ull << 20;
  // Applied when QueryOptions.deadline is zero; zero here means none.
  std::chrono::milliseconds default_deadline{0};
  // Run the IR verifier (src/analysis) over every freshly compiled plan
  // before it enters the cache. A violation fails that query with Internal
  // (and counts plans.verify_failures) instead of caching — and then
  // serving — a corrupted plan. Non-fatal, unlike SystemConfig::verify_ir.
  bool verify_plans = false;
  // Enables the process-wide tracer (src/obs) at construction — the same
  // switch as AQL_TRACE=1 or the REPL's `:trace on`. Spans from every
  // query accumulate in the Tracer sink for Chrome-trace export.
  bool trace = false;
  // Slow-query log: a query whose total worker-side time (compile +
  // execute) exceeds this many microseconds has its per-stage profile
  // emitted through slow_query_sink, and `obs.slow_queries` is bumped.
  // 0 disables. Enabling it traces every query on its worker thread
  // (TraceCapture), a few hundred nanoseconds per pipeline stage.
  uint64_t slow_query_us = 0;
  // Destination for slow-query profiles; default writes to stderr.
  std::function<void(const std::string&)> slow_query_sink = {};
};

struct QueryOptions {
  // Measured from Submit(): covers queue wait + compile + execution.
  // Zero falls back to ServiceConfig::default_deadline.
  std::chrono::milliseconds deadline{0};
  bool use_plan_cache = true;
  // false bypasses the semantic result cache for this query (no lookup,
  // no insert) — the HTTP front end's no_cache=1 sets both this and
  // use_plan_cache false.
  bool use_result_cache = true;
  // When set, the worker runs the query under an obs::TraceCapture and
  // stores the rendered per-stage profile (obs::Profile) here — the HTTP
  // front end's ?trace=1 option. Costs the same as the slow-query log's
  // always-on capture.
  std::shared_ptr<std::string> profile_out;
};

// Handle for one submitted query. Wait() may be called once.
class QuerySubmission {
 public:
  // Blocks until the query finishes (or was rejected/cancelled).
  Result<Value> Wait() { return future_.get(); }

  // Requests cooperative cancellation; the query returns Cancelled at its
  // next interrupt poll (immediately, if still queued).
  void Cancel() {
    if (token_) token_->Cancel();
  }

 private:
  friend class QueryService;
  std::future<Result<Value>> future_;
  std::shared_ptr<CancelToken> token_;
};

class QueryService {
 public:
  // `system` must outlive the service and be past its setup phase; the
  // service becomes the sole synchronization point for it.
  explicit QueryService(System* system, ServiceConfig config = {});
  // Equivalent to Shutdown(/*drain=*/true) (the pool destructor then
  // joins the workers, which drains anyway — Shutdown just makes the
  // stop-admitting point explicit and observable).
  ~QueryService();

  // Stops admitting: every later Submit resolves immediately with
  // ResourceExhausted ("service shutting down"). With drain=true, also
  // waits for already-admitted queries (queued or running) to finish, up
  // to `timeout` (zero = wait without limit). Returns true when no
  // queries remain in flight on return. Idempotent and thread-safe;
  // concurrent Submits race benignly (they either got in before the flag
  // or are rejected).
  bool Shutdown(bool drain = true, std::chrono::milliseconds timeout = {});

  // True once Shutdown has been called (the HTTP front end's /healthz
  // turns 503 on this).
  bool shutting_down() const { return shutting_down_.load(std::memory_order_acquire); }

  // Queries admitted but not yet finished (queued + executing).
  size_t InFlight() const;

  // Admits a pure-expression query to the worker pool. The query runs
  // under the calling thread's CurrentExecOptions() (base/cancel.h). When
  // the admission queue is full the returned submission resolves
  // immediately with ResourceExhausted.
  QuerySubmission Submit(std::string expression, QueryOptions options = {});

  // Submit + Wait, for callers without their own concurrency.
  Result<Value> Execute(std::string_view expression, QueryOptions options = {});

  // Executes ';'-terminated statements under the exclusive lock (they may
  // bind vals/macros or perform I/O). Serialized against all queries.
  Result<std::vector<StatementResult>> RunScript(std::string_view program);

  MetricsRegistry* metrics() { return &metrics_; }
  const PlanCache& plan_cache() const { return cache_; }
  const ResultCache& result_cache() const { return result_cache_; }
  // Non-const access for administrative operations (the REPL's
  // `:cache clear`); ResultCache is internally synchronized.
  ResultCache* mutable_result_cache() { return &result_cache_; }

  // ":stats" rendering: configuration line + every counter and histogram.
  std::string StatsReport() const;

  // Pulls the exec layer's process-wide data-parallel counters and the
  // per-mutex contention statistics (base/sync.h SnapshotMutexStats:
  // lock.<name>.{acquisitions,contended,wait_us}) into their service
  // mirrors (StatsReport does this implicitly; the HTTP /metrics endpoint
  // calls it before rendering Prometheus text).
  void SyncExecStats() const;

 private:
  // The worker-side path: compile (with plan cache) + run, under the
  // shared lock and the query's ExecScope.
  Result<Value> RunQuery(const std::string& expression, const QueryOptions& options);
  // `resolved` is the already-resolved core term of the query (the
  // result-cache key, computed by RunQuery before the lookup); kept by
  // value so the plan can own it.
  Result<std::shared_ptr<const CachedPlan>> GetPlan(ExprPtr resolved, bool use_cache);
  void CountOutcome(const Status& status);

  System* const system_;
  const ServiceConfig config_;

  // mutable: SyncExecStats() const mints lock.* mirror counters on demand
  // (GetCounter is itself thread-safe).
  mutable MetricsRegistry metrics_;
  // Well-known instruments, resolved once (recording is lock-free).
  Counter* submitted_;
  Counter* completed_;
  Counter* failed_;
  Counter* rejected_;
  Counter* cancelled_;
  Counter* deadline_exceeded_;
  Counter* statements_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* verify_failures_;
  // Mirrors of the exec layer's process-wide data-parallel statistics
  // (exec cannot depend on service, so StatsReport syncs the deltas).
  Counter* exec_par_tasks_;
  Counter* exec_par_chunks_;
  Counter* exec_unboxed_arrays_;
  Counter* exec_unchecked_kernels_;
  Counter* slow_queries_;
  Histogram* compile_us_;
  Histogram* execute_us_;
  Histogram* script_us_;

  PlanCache cache_;
  ResultCache result_cache_;
  // shared: query execution; exclusive: RunScript's environment mutation.
  SharedMutex system_mu_{"service.system", lock_rank::kSystem};
  // Admission gate + in-flight accounting for Shutdown's drain.
  std::atomic<bool> shutting_down_{false};
  mutable Mutex inflight_mu_{"service.inflight", lock_rank::kServiceInflight};
  CondVar inflight_cv_;
  size_t inflight_ AQL_GUARDED_BY(inflight_mu_) = 0;
  // Declared last: joins workers (which touch everything above) first.
  ThreadPool pool_;
};

}  // namespace service
}  // namespace aql

#endif  // AQL_SERVICE_SERVICE_H_
