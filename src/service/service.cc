#include "service/service.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "analysis/verifier.h"
#include "base/env.h"
#include "base/strings.h"
#include "exec/parallel.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "storage/tile_store.h"

namespace aql {
namespace service {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

}  // namespace

QueryService::QueryService(System* system, ServiceConfig config)
    : system_(system),
      config_(config),
      submitted_(metrics_.GetCounter("queries.submitted")),
      completed_(metrics_.GetCounter("queries.completed")),
      failed_(metrics_.GetCounter("queries.failed")),
      rejected_(metrics_.GetCounter("queries.rejected")),
      cancelled_(metrics_.GetCounter("queries.cancelled")),
      deadline_exceeded_(metrics_.GetCounter("queries.deadline_exceeded")),
      statements_(metrics_.GetCounter("statements.run")),
      cache_hits_(metrics_.GetCounter("plan_cache.hits")),
      cache_misses_(metrics_.GetCounter("plan_cache.misses")),
      verify_failures_(metrics_.GetCounter("plans.verify_failures")),
      exec_par_tasks_(metrics_.GetCounter("exec.par.tasks")),
      exec_par_chunks_(metrics_.GetCounter("exec.par.chunks")),
      exec_unboxed_arrays_(metrics_.GetCounter("exec.unboxed.arrays")),
      exec_unchecked_kernels_(metrics_.GetCounter("exec.unchecked.kernels")),
      slow_queries_(metrics_.GetCounter("obs.slow_queries")),
      compile_us_(metrics_.GetHistogram("latency.compile_us")),
      execute_us_(metrics_.GetHistogram("latency.execute_us")),
      script_us_(metrics_.GetHistogram("latency.script_us")),
      cache_(config.plan_cache_capacity),
      result_cache_(EnvU64("AQL_RESULT_CACHE_BYTES", config.result_cache_bytes)),
      pool_(config.num_workers, config.max_queue, "service.pool") {
  if (config_.trace) obs::Tracer::Get().SetEnabled(true);
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

QuerySubmission QueryService::Submit(std::string expression, QueryOptions options) {
  submitted_->Increment();
  auto token = std::make_shared<CancelToken>();
  std::chrono::milliseconds deadline =
      options.deadline.count() > 0 ? options.deadline : config_.default_deadline;
  if (deadline.count() > 0) token->SetTimeout(deadline);

  auto promise = std::make_shared<std::promise<Result<Value>>>();
  QuerySubmission submission;
  submission.future_ = promise->get_future();
  submission.token_ = token;

  if (shutting_down_.load(std::memory_order_acquire)) {
    rejected_->Increment();
    promise->set_value(
        Status::ResourceExhausted("query rejected: service shutting down"));
    return submission;
  }

  // Count the query in flight *before* the pool sees it, so a concurrent
  // drain either waits for it or rejected it above — never misses it.
  {
    MutexLock lock(&inflight_mu_);
    ++inflight_;
  }
  // The worker runs under the query's token and the submitting thread's
  // execution options.
  bool admitted = pool_.TrySubmit(
      [this, expression = std::move(expression), options, token, promise,
       exec = CurrentExecOptions()] {
        ExecScope scope(token.get(), exec);
        Result<Value> result = RunQuery(expression, options);
        CountOutcome(result.status());
        promise->set_value(std::move(result));
        MutexLock lock(&inflight_mu_);
        --inflight_;
        inflight_cv_.NotifyAll();
      });
  if (!admitted) {
    {
      MutexLock lock(&inflight_mu_);
      --inflight_;
      inflight_cv_.NotifyAll();
    }
    rejected_->Increment();
    promise->set_value(Status::ResourceExhausted(
        StrCat("query rejected: admission queue at capacity (",
               config_.max_queue, ")")));
  }
  return submission;
}

bool QueryService::Shutdown(bool drain, std::chrono::milliseconds timeout) {
  shutting_down_.store(true, std::memory_order_release);
  MutexLock lock(&inflight_mu_);
  if (!drain) return inflight_ == 0;
  if (timeout.count() <= 0) {
    while (inflight_ != 0) inflight_cv_.Wait(&inflight_mu_);
    return true;
  }
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (inflight_ != 0) {
    if (!inflight_cv_.WaitUntil(&inflight_mu_, deadline)) return inflight_ == 0;
  }
  return true;
}

size_t QueryService::InFlight() const {
  MutexLock lock(&inflight_mu_);
  return inflight_;
}

Result<Value> QueryService::Execute(std::string_view expression, QueryOptions options) {
  return Submit(std::string(expression), options).Wait();
}

Result<Value> QueryService::RunQuery(const std::string& expression,
                                     const QueryOptions& options) {
  // Queued past the deadline, or cancelled before starting: don't compile.
  AQL_RETURN_IF_ERROR(CheckInterrupt());

  // Slow-query logging needs the profile of *every* query, since a query
  // only reveals itself as slow once it has finished; the capture keeps
  // this worker's spans regardless of the global tracer state. A
  // per-query profile request (QueryOptions::profile_out) rides the same
  // capture.
  const bool watch_slow = config_.slow_query_us > 0;
  std::optional<obs::TraceCapture> capture;
  if (watch_slow || options.profile_out != nullptr) capture.emplace();
  std::string proof_text;  // plan proof certificates for the ?trace=1 report

  auto run_timed = [&]() -> Result<Value> {
    obs::Span root("query", "query");
    ReaderMutexLock lock(&system_mu_);

    auto compile_start = std::chrono::steady_clock::now();
    AQL_ASSIGN_OR_RETURN(ExprPtr core, system_->ParseToCore(expression));
    AQL_ASSIGN_OR_RETURN(ExprPtr resolved, system_->ResolveNames(core));

    // Result cache: answered queries skip compilation and execution
    // entirely. The epoch is read under the shared lock, and every
    // mutation that could stale a cached value runs under the exclusive
    // lock (RunScript), so one read is consistent for both the lookup
    // here and the insert after execution.
    const bool use_results = options.use_result_cache && result_cache_.enabled();
    uint64_t epoch = 0;
    if (use_results) {
      epoch = system_->mutation_epoch();
      if (std::optional<Value> hit = result_cache_.Lookup(resolved, epoch)) {
        compile_us_->Record(ElapsedUs(compile_start));
        return *std::move(hit);
      }
    }

    AQL_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan,
                         GetPlan(resolved, options.use_plan_cache));
    compile_us_->Record(ElapsedUs(compile_start));
    if (options.profile_out != nullptr && plan->program != nullptr &&
        !plan->program->proof().empty()) {
      proof_text = plan->program->proof().ToString();
    }

    auto execute_start = std::chrono::steady_clock::now();
    Result<Value> result = plan->program->Run();
    execute_us_->Record(ElapsedUs(execute_start));
    if (use_results && result.ok()) {
      result_cache_.Insert(resolved, *result, epoch);
    }
    return result;
  };

  auto start = std::chrono::steady_clock::now();
  Result<Value> result = run_timed();
  if (capture.has_value()) {
    uint64_t total_us = ElapsedUs(start);
    std::vector<obs::SpanRecord> records = capture->TakeRecords();
    if (options.profile_out != nullptr) {
      *options.profile_out = obs::Profile::Build(records).ToString();
      if (!proof_text.empty()) {
        *options.profile_out += "optimization proofs:\n" + proof_text;
      }
    }
    if (watch_slow && total_us > config_.slow_query_us) {
      slow_queries_->Increment();
      std::string report =
          StrCat("slow query (", total_us, "us > ", config_.slow_query_us,
                 "us): ", expression, "\n",
                 obs::Profile::Build(std::move(records)).ToString());
      if (config_.slow_query_sink) {
        config_.slow_query_sink(report);
      } else {
        std::fprintf(stderr, "%s", report.c_str());
      }
    }
  }
  return result;
}

Result<std::shared_ptr<const CachedPlan>> QueryService::GetPlan(ExprPtr resolved,
                                                                bool use_cache) {
  if (use_cache) {
    if (std::shared_ptr<const CachedPlan> hit = cache_.Lookup(resolved)) {
      cache_hits_->Increment();
      return hit;
    }
    cache_misses_->Increment();
  }
  AQL_RETURN_IF_ERROR(system_->TypeOf(resolved).status());
  ExprPtr optimized;
  if (config_.verify_plans) {
    analysis::Verifier verifier(system_->SchemeResolver());
    analysis::VerifierReport report;
    optimized =
        verifier.OptimizeVerified(*system_->optimizer(), resolved, nullptr, &report);
    if (!report.ok()) {
      verify_failures_->Increment();
      return Status::Internal(
          StrCat("plan failed IR verification; refusing to cache or run it\n",
                 report.ToString()));
    }
  } else {
    optimized = system_->Optimize(resolved);
  }
  AQL_ASSIGN_OR_RETURN(exec::Program program,
                       exec::Compile(optimized, system_->PrimitiveResolver()));
  auto plan = std::make_shared<CachedPlan>(
      CachedPlan{std::move(resolved),
                 std::make_shared<const exec::Program>(std::move(program))});
  if (use_cache) cache_.Insert(plan);
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

void QueryService::CountOutcome(const Status& status) {
  if (status.ok()) {
    completed_->Increment();
    return;
  }
  switch (status.code()) {
    case StatusCode::kCancelled:
      cancelled_->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_->Increment();
      break;
    default:
      failed_->Increment();
      break;
  }
}

Result<std::vector<StatementResult>> QueryService::RunScript(std::string_view program) {
  WriterMutexLock lock(&system_mu_);
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<StatementResult>> results = system_->Run(program);
  script_us_->Record(ElapsedUs(start));
  if (results.ok()) {
    statements_->Increment(results->size());
  } else {
    failed_->Increment();
  }
  return results;
}

void QueryService::SyncExecStats() const {
  // Pull the exec layer's process-wide counters up to their service
  // mirrors. Counters are monotone, so publishing the delta is safe even
  // if several services report concurrently from one process.
  const exec::ExecStats& stats = exec::GlobalExecStats();
  auto sync = [](Counter* counter, const std::atomic<uint64_t>& source) {
    uint64_t current = source.load(std::memory_order_relaxed);
    uint64_t seen = counter->value();
    if (current > seen) counter->Increment(current - seen);
  };
  sync(exec_par_tasks_, stats.par_tasks);
  sync(exec_par_chunks_, stats.par_chunks);
  sync(exec_unboxed_arrays_, stats.unboxed_arrays);
  sync(exec_unchecked_kernels_, stats.unchecked_kernels);
  sync(metrics_.GetCounter("exec.kernels"), stats.kernels);
  sync(metrics_.GetCounter("exec.tab.pushdowns"), stats.tab_pushdowns);
  sync(metrics_.GetCounter("exec.filter.indexed"), stats.filter_indexed);
  sync(metrics_.GetCounter("exec.index.streamed"), stats.index_streamed);

  // Same delta treatment for the per-mutex contention counters
  // (base/sync.h). Names arrive dotted-lowercase, so they pass
  // IsValidInstrumentName as-is under the lock. prefix.
  auto sync_value = [this](const std::string& name, uint64_t current) {
    Counter* counter = metrics_.GetCounter(name);
    uint64_t seen = counter->value();
    if (current > seen) counter->Increment(current - seen);
  };
  for (const MutexStatsSnapshot& m : SnapshotMutexStats()) {
    sync_value(StrCat("lock.", m.name, ".acquisitions"), m.acquisitions);
    sync_value(StrCat("lock.", m.name, ".contended"), m.contended);
    sync_value(StrCat("lock.", m.name, ".wait_us"), m.wait_us);
  }

  // Result-cache counters live in the cache (its mutex is the source of
  // truth); mirror them the same delta way, and publish the two memory
  // gauges alongside.
  const ResultCache::Stats rc = result_cache_.stats();
  sync_value("cache.result.hits", rc.hits);
  sync_value("cache.result.misses", rc.misses);
  sync_value("cache.result.subsumed", rc.subsumptions);
  sync_value("cache.result.evictions", rc.evictions);
  sync_value("cache.result.invalidations", rc.invalidations);
  metrics_.GetGauge("cache.result.bytes")->Set(rc.bytes);
  metrics_.GetGauge("cache.result.entries")->Set(rc.entries);
  metrics_.GetGauge("cache.plans.bytes")->Set(cache_.bytes());

  // Cost-model counters (opt/cost.h) are process-wide atomics for the
  // same reason as ExecStats: the optimizer cannot depend on the service.
  const OptCostStats& cost = GlobalOptCostStats();
  sync(metrics_.GetCounter("opt.cost.estimates"), cost.estimates);
  sync(metrics_.GetCounter("opt.cost.gate_fired"), cost.gate_fired);
  sync(metrics_.GetCounter("opt.cost.gate_suppressed"), cost.gate_suppressed);

  // Tile-store counters (storage/tile_store.h) are process-wide for the
  // same reason; the byte and entry totals are gauges, not counters.
  const storage::TileStoreStats ts = storage::TileStore::Global().stats();
  sync_value("storage.tile.hits", ts.hits);
  sync_value("storage.tile.misses", ts.misses);
  sync_value("storage.tile.evictions", ts.evictions);
  sync_value("storage.tile.zone_fills", ts.zone_fills);
  sync_value("storage.tile.prunes", ts.prunes);
  sync_value("storage.tile.read_errors", ts.read_errors);
  metrics_.GetGauge("storage.tile.bytes")->Set(ts.bytes);
  metrics_.GetGauge("storage.tile.entries")->Set(ts.entries);
}

std::string QueryService::StatsReport() const {
  SyncExecStats();

  const ResultCache::Stats rc = result_cache_.stats();
  std::string out =
      StrCat("service: ", pool_.num_threads(), " workers, queue limit ",
             config_.max_queue, ", plan cache ", cache_.size(), "/",
             cache_.capacity(), " entries (", cache_.evictions(), " evictions)\n");
  out += StrCat("result cache: ", rc.entries, " entries, ", rc.bytes, "/",
                result_cache_.max_bytes(), " bytes (", rc.hits, " hits, ",
                rc.subsumptions, " subsumed, ", rc.evictions, " evictions, ",
                rc.invalidations, " invalidated)\n");
  const storage::TileStoreStats ts = storage::TileStore::Global().stats();
  out += StrCat("tile cache: ", ts.entries, " tiles, ", ts.bytes, "/",
                storage::TileStore::Global().Budget(), " bytes (", ts.hits,
                " hits, ", ts.misses, " misses, ", ts.evictions,
                " evictions, ", ts.prunes, " prunes)\n");
  out += metrics_.Report();
  return out;
}

}  // namespace service
}  // namespace aql
