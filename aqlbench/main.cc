// aql_bench — the end-to-end benchmark driver (README.md has the design).
//
//   aql_bench --workload adhoc-compile|paper-analytics|tiled-http
//             --seed N --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 sets the program up kSetups times, then runs the workload's
// closed loop for S seconds and reports the end-to-end metrics.
// --trace 1 sets up once, runs the same loop for S/2 seconds to take the
// deltas of the program's stats snapshots, then replays the same seeded
// stream for S/2 seconds through the pipeline's public stages one call at
// a time, recording a span around each call; that gives the per-layer
// metrics. Either way every answer is checked against a reference the
// code under test did not produce, and stdout's last line is one JSON
// report that run.py turns into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.h"
#include "base/sync.h"
#include "env/system.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "gen.h"
#include "http_client.h"
#include "io/drivers.h"
#include "net/server.h"
#include "netcdf/reader.h"
#include "object/value_write.h"
#include "service/service.h"
#include "storage/tile_store.h"
#include "surface/desugar.h"
#include "surface/parser.h"

namespace aqlb {
namespace {

using aql::Result;
using aql::Status;
using aql::System;
using aql::Value;
using aql::service::QueryOptions;
using aql::service::QueryService;
using Clock = std::chrono::steady_clock;

// Closed-loop clients. One, so that a query's latency is its own cost and
// not also that of whichever query of another client it overlapped. The
// writer still runs beside it, and the data-parallel loops keep every core.
constexpr int kClients = 1;
constexpr size_t kWorkers = 4;      // service worker threads
constexpr int kSetups = 15;         // set-ups per timed run; setup_s is their median
constexpr double kSliceSeconds = 0.5;  // timed runs take medians per slice
constexpr auto kWritePeriod = std::chrono::milliseconds(100);
constexpr int kProbeEvery = 16;     // staged ops per io.write probe
// Share of the staged worker-side total that the stage spans may leave
// unaccounted (the benchmark's own glue between calls).
constexpr double kLayerSumTolerance = 0.05;
// Premise thresholds: adhoc-compile is front-end bound, paper-analytics
// is execution bound.
constexpr double kAdhocMinFrontShare = 0.5;
constexpr double kPaperMaxFrontShare = 0.10;
constexpr double kPaperMinExecShare = 0.5;
// Stream index bases, so warm-up and staged replay never reuse a timed op.
constexpr uint64_t kWarmBase = 1ull << 40;
constexpr uint64_t kStagedBase = 1ull << 41;

double Us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "aql_bench: %s\n", msg.c_str());
  std::exit(2);
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  MustOk(r.status(), what);
  return std::move(r).value();
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---- the report ----

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& base = "") {
    metrics_[name] = {value, unit, base};
  }
  void Info(const std::string& key, const std::string& value) { info_[key] = value; }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    checks_ok_ = checks_ok_ && ok;
  }
  bool checks_ok() const { return checks_ok_; }

  std::string Json(uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& errors) const {
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"correct\": " +
                      (failed == 0 ? "true" : "false") + ", \"metrics\": {";
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      out += std::string(sep) + "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNum(m.value) +
             ", \"unit\": \"" + JsonEscape(m.unit) + "\", \"base\": \"" + JsonEscape(m.base) +
             "\"}";
      sep = ", ";
    }
    out += "}, \"checks\": [";
    sep = "";
    for (const CheckRec& c : checks_) {
      out += std::string(sep) + "{\"name\": \"" + JsonEscape(c.name) + "\", \"ok\": " +
             (c.ok ? "true" : "false") + ", \"detail\": \"" + JsonEscape(c.detail) + "\"}";
      sep = ", ";
    }
    out += "], \"info\": {";
    sep = "";
    for (const auto& [k, v] : info_) {
      out += std::string(sep) + "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
      sep = ", ";
    }
    out += "}, \"errors\": [";
    sep = "";
    for (const std::string& e : errors) {
      out += std::string(sep) + "\"" + JsonEscape(e) + "\"";
      sep = ", ";
    }
    return out + "]}";
  }

 private:
  struct MetricRec {
    double value;
    std::string unit, base;
  };
  struct CheckRec {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, MetricRec> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<CheckRec> checks_;
  bool checks_ok_ = true;
};

// ---- outcome accounting ----

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;                      // the first few, for the report
  std::map<std::string, std::vector<double>> by_kind;  // latency (µs) per op kind
  std::vector<double> latency, ttfb;                    // query ops only (no writes)

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
    for (const auto& [k, v] : o.by_kind) by_kind[k].insert(by_kind[k].end(), v.begin(), v.end());
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    ttfb.insert(ttfb.end(), o.ttfb.begin(), o.ttfb.end());
  }
};

// ---- values and reference data ----

Value NatVector(const std::vector<uint64_t>& v) {
  return Must(Value::MakeNatArray({v.size()}, v), "nat vector");
}

Value NatMatrix(uint64_t rows, uint64_t cols, const std::vector<uint64_t>& v) {
  return Must(Value::MakeNatArray({rows, cols}, v), "nat matrix");
}

Value RealArray(std::vector<uint64_t> dims, std::vector<double> v) {
  return Must(Value::MakeRealArray(std::move(dims), std::move(v)), "real array");
}

// The paper's §1 heat-wave inputs and its external heat-index primitive.
void BindWeather(System* sys, uint64_t days, const std::vector<double>& t,
                 const std::vector<double>& rh, const std::vector<double>& ws) {
  MustOk(sys->DefineVal("T", RealArray({t.size()}, t)), "bind T");
  MustOk(sys->DefineVal("RH", RealArray({rh.size()}, rh)), "bind RH");
  MustOk(sys->DefineVal("WS", RealArray({days * 48, 3}, ws)), "bind WS");
  MustOk(sys->DefineVal("ND", Value::Nat(days)), "bind ND");
  MustOk(sys->RegisterPrimitive(
             "heatindex", "[[real * real * real]]_1 -> real",
             [](const Value& arg) -> Result<Value> {
               double peak = -1e30;
               const aql::ArrayRep& a = arg.array();
               for (uint64_t i = 0; i < a.Count(); ++i) {
                 const auto& f = a.At(i).tuple_fields();
                 peak = std::max(peak, f[0].real_value() + 0.05 * f[1].real_value() -
                                           0.4 * f[2].real_value());
               }
               return Value::Real(peak);
             }),
         "register heatindex");
}

// The oracle: the tree-walking evaluator on the unoptimized core term.
Value Oracle(System* sys, const std::string& text) {
  auto resolved = Must(sys->CompileUnoptimized(text), "oracle compile of " + text);
  return Must(sys->EvalCore(resolved), "oracle eval of " + text);
}

std::unique_ptr<System> OracleSystem() {
  aql::SystemConfig config;
  config.optimize = false;
  auto sys = std::make_unique<System>(config);
  MustOk(sys->init_status(), "oracle system");
  return sys;
}

// ---- stats snapshots (the program's public counters) ----

struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, aql::service::Histogram::Snapshot> hists;
  aql::service::ResultCache::Stats results;
  aql::storage::TileStoreStats tiles;
  uint64_t par_chunks = 0, unboxed = 0, unchecked = 0, pushdowns = 0;
  std::map<std::string, aql::MutexStatsSnapshot> locks;

  static Snapshot Take(QueryService* svc) {
    Snapshot s;
    s.counters = svc->metrics()->CounterValues();
    s.hists = svc->metrics()->HistogramSnapshots();
    s.results = svc->result_cache().stats();
    s.tiles = aql::storage::TileStore::Global().stats();
    const aql::exec::ExecStats& e = aql::exec::GlobalExecStats();
    s.par_chunks = e.par_chunks.load();
    s.unboxed = e.unboxed_arrays.load();
    s.unchecked = e.unchecked_kernels.load();
    s.pushdowns = e.tab_pushdowns.load();
    for (aql::MutexStatsSnapshot& m : aql::SnapshotMutexStats()) s.locks[m.name] = m;
    return s;
  }

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  aql::service::Histogram::Snapshot Hist(const std::string& name) const {
    auto it = hists.find(name);
    return it == hists.end() ? aql::service::Histogram::Snapshot{} : it->second;
  }
  aql::MutexStatsSnapshot Lock(const std::string& name) const {
    auto it = locks.find(name);
    return it == locks.end() ? aql::MutexStatsSnapshot{} : it->second;
  }
};

// ---- staged replay with spans ----

class SpanLog {
 public:
  struct Rec {
    uint64_t query;
    int parent;  // index into recs, -1 for the per-query root
    std::string name;
    double begin_us, end_us;
  };

  int Open(uint64_t query, int parent, const std::string& name) {
    recs_.push_back({query, parent, name, Us(Clock::now() - epoch_), 0});
    return int(recs_.size()) - 1;
  }
  void Close(int id) { recs_[size_t(id)].end_us = Us(Clock::now() - epoch_); }
  const std::vector<Rec>& recs() const { return recs_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Rec> recs_;
};

// A span around one call; a no-op without a log (the untraced replay).
class StageSpan {
 public:
  StageSpan(SpanLog* log, uint64_t query, int parent, const std::string& name)
      : log_(log), id_(log ? log->Open(query, parent, name) : -1) {}
  ~StageSpan() {
    if (log_) log_->Close(id_);
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Plans kept across staged queries, keyed by text: paper-analytics' warm
// plan cache. Null for the workloads whose every query compiles afresh.
using PlanMemo = std::map<std::string, std::shared_ptr<const aql::exec::Program>>;

struct StagedOut {
  Value value;
  std::string rendered;  // ValueWriter output, when serializing
  size_t rule_firings = 0;
};

// One query through the public stages a service worker runs, in order.
Status StagedQuery(System* sys, const std::string& text, PlanMemo* memo, bool serialize,
                   SpanLog* log, uint64_t query, StagedOut* out) {
  StageSpan root(log, query, -1, "worker");
  const int p = root.id();
  aql::SurfacePtr surface;
  {
    StageSpan s(log, query, p, "surface.parse");
    AQL_ASSIGN_OR_RETURN(surface, aql::ParseExpression(text));
  }
  aql::ExprPtr core;
  {
    StageSpan s(log, query, p, "surface.desugar");
    aql::Desugarer desugarer;
    AQL_ASSIGN_OR_RETURN(core, desugarer.Desugar(surface));
  }
  aql::ExprPtr resolved;
  {
    StageSpan s(log, query, p, "env.resolve");
    AQL_ASSIGN_OR_RETURN(resolved, sys->ResolveNames(core));
  }
  std::shared_ptr<const aql::exec::Program> program;
  if (memo != nullptr) {
    auto it = memo->find(text);
    if (it != memo->end()) program = it->second;
  }
  if (program == nullptr) {
    {
      StageSpan s(log, query, p, "typecheck.infer");
      AQL_RETURN_IF_ERROR(sys->TypeOf(resolved).status());
    }
    aql::ExprPtr optimized = resolved;
    {
      StageSpan opt(log, query, p, "opt.optimize");
      const aql::Optimizer& optimizer = *sys->optimizer();
      aql::RewriteStats stats;
      for (size_t i = 0; i < optimizer.num_phases(); ++i) {
        StageSpan phase(log, query, opt.id(), "opt.phase." + optimizer.phase_name(i));
        optimized = optimizer.RunPhase(i, optimized, &stats);
      }
      out->rule_firings += stats.TotalFirings();
    }
    {
      StageSpan s(log, query, p, "analysis.plan_facts");
      aql::analysis::PlanFacts facts = aql::analysis::AnalyzePlan(optimized);
      (void)facts;
    }
    {
      StageSpan s(log, query, p, "exec.compile");
      AQL_ASSIGN_OR_RETURN(aql::exec::Program compiled,
                           aql::exec::Compile(optimized, sys->PrimitiveResolver()));
      program = std::make_shared<const aql::exec::Program>(std::move(compiled));
    }
    if (memo != nullptr) (*memo)[text] = program;
  }
  {
    StageSpan s(log, query, p, "exec.run");
    AQL_ASSIGN_OR_RETURN(out->value, program->Run());
  }
  if (serialize) {
    StageSpan s(log, query, p, "object.serialize");
    out->rendered.clear();
    aql::ValueWriter writer([out](std::string_view fragment) {
      out->rendered.append(fragment);
      return Status::OK();
    });
    AQL_RETURN_IF_ERROR(writer.Write(out->value));
  }
  return Status::OK();
}

// ---- workloads ----

class Workload {
 public:
  Workload(uint64_t seed, std::string data_dir) : seed_(seed), dir_(std::move(data_dir)) {}
  virtual ~Workload() = default;

  // Inputs and oracle references, once per run (not part of set-up).
  virtual void Prepare() = 0;
  // One program set-up: build the stack, bind or read the data, warm it.
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  virtual Op OpAt(uint64_t index) const = 0;
  // One closed-loop op by client `client`: send, wait, time, verify.
  virtual void RunOp(int client, uint64_t index, Tally* tally) = 0;
  // End-to-end op class of an op kind: "window", "aggregate", "stream" or "".
  virtual std::string ClassOf(const std::string& kind) const = 0;
  // Staged replay: verify a staged answer.
  virtual bool StagedCorrect(const Op& op, const StagedOut& out) const = 0;
  virtual bool serializes() const { return false; }
  virtual PlanMemo* memo() { return nullptr; }
  // Extra per-layer probes run after each staged op (tiled-http's storage,
  // netcdf and net probes). Returns false on a wrong answer.
  virtual bool Probe(const Op& op, std::map<std::string, std::vector<double>>* samples) {
    return true;
  }
  virtual bool http() const { return false; }
  virtual size_t http_threads() const { return 0; }

  QueryService* service() { return service_.get(); }
  System* system() { return system_.get(); }
  const std::string& dir() const { return dir_; }
  uint64_t seed() const { return seed_; }

 protected:
  void TeardownService() {
    if (service_) service_->Shutdown();
    service_.reset();
    system_.reset();
  }

  const uint64_t seed_;
  const std::string dir_;
  std::unique_ptr<System> system_;
  std::unique_ptr<QueryService> service_;
};

void TimeSubmit(QueryService* svc, const Op& op, const QueryOptions& options, const Value& expected,
                Tally* tally) {
  ++tally->attempted;
  Clock::time_point t0 = Clock::now();
  Result<Value> r = svc->Submit(op.text, options).Wait();
  double us = Us(Clock::now() - t0);
  if (!r.ok()) {
    tally->Fail(op.kind + ": " + r.status().ToString());
    return;
  }
  if (*r != expected) {
    tally->Fail(op.kind + ": answer differs from the oracle for " + op.text);
    return;
  }
  tally->by_kind[op.kind].push_back(us);
  tally->latency.push_back(us);
  tally->ttfb.push_back(us);  // in-process, the whole answer arrives at once
}

class AdhocWorkload : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    data_ = MakeAdhocData(seed_);
    auto oracle = OracleSystem();
    Bind(oracle.get());
    for (const Op& op : AdhocVariants()) refs_[op.variant] = Oracle(oracle.get(), op.text);
  }

  void Setup() override {
    system_ = std::make_unique<System>();
    MustOk(system_->init_status(), "system");
    Bind(system_.get());
    service_ = std::make_unique<QueryService>(
        system_.get(), aql::service::ServiceConfig{.num_workers = kWorkers});
    Tally warm;
    for (uint64_t i = 0; i < 50; ++i) RunOp(0, kWarmBase + i, &warm);
    if (warm.failed != 0) Die("adhoc warm-up: " + warm.errors.front());
  }

  void Teardown() override { TeardownService(); }
  Op OpAt(uint64_t index) const override { return AdhocOp(seed_, index); }

  void RunOp(int, uint64_t index, Tally* tally) override {
    Op op = AdhocOp(seed_, index);
    TimeSubmit(service_.get(), op, {}, refs_.at(op.variant), tally);
  }

  std::string ClassOf(const std::string& kind) const override {
    if (kind == "window") return "window";
    if (kind == "hist" || kind == "groupby") return "aggregate";
    if (kind == "transpose") return "stream";
    return "";
  }

  bool StagedCorrect(const Op& op, const StagedOut& out) const override {
    return out.value == refs_.at(op.variant);
  }

 private:
  void Bind(System* sys) {
    BindWeather(sys, data_.days, data_.t, data_.rh, data_.ws);
    MustOk(sys->DefineVal("E", NatVector(data_.e)), "bind E");
    MustOk(sys->DefineVal("A", NatVector(data_.a)), "bind A");
    MustOk(sys->DefineVal("B", NatVector(data_.b)), "bind B");
  }

  AdhocData data_;
  std::map<std::string, Value> refs_;
};

class PaperWorkload : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    data_ = MakePaperData(seed_);
    auto oracle = OracleSystem();
    Bind(oracle.get());
    for (const Op& op : PaperQueries()) refs_[op.variant] = Oracle(oracle.get(), op.text);
  }

  void Setup() override {
    system_ = std::make_unique<System>();
    MustOk(system_->init_status(), "system");
    Bind(system_.get());
    service_ = std::make_unique<QueryService>(
        system_.get(), aql::service::ServiceConfig{.num_workers = kWorkers});
    // Warm the plan cache: every later submission is a plan-cache hit.
    Tally warm;
    for (const Op& op : PaperQueries()) TimeSubmit(service_.get(), op, Options(), refs_.at(op.variant), &warm);
    if (warm.failed != 0) Die("paper warm-up: " + warm.errors.front());
    memo_.clear();
  }

  void Teardown() override { TeardownService(); }
  Op OpAt(uint64_t index) const override { return PaperOp(seed_, index); }

  void RunOp(int, uint64_t index, Tally* tally) override {
    Op op = PaperOp(seed_, index);
    TimeSubmit(service_.get(), op, Options(), refs_.at(op.variant), tally);
  }

  std::string ClassOf(const std::string& kind) const override {
    if (kind == "window") return "window";
    if (kind == "hist" || kind == "groupby") return "aggregate";
    if (kind == "transpose" || kind == "multiply") return "stream";
    return "";
  }

  bool StagedCorrect(const Op& op, const StagedOut& out) const override {
    return out.value == refs_.at(op.variant);
  }
  PlanMemo* memo() override { return &memo_; }

 private:
  // Every submission executes: the result cache would answer repeats.
  static QueryOptions Options() {
    QueryOptions o;
    o.use_result_cache = false;
    return o;
  }

  void Bind(System* sys) {
    BindWeather(sys, data_.days, data_.t, data_.rh, data_.ws);
    MustOk(sys->DefineVal("E", NatVector(data_.e)), "bind E");
    MustOk(sys->DefineVal("V", NatVector(data_.v)), "bind V");
    MustOk(sys->DefineVal("W", NatVector(data_.w)), "bind W");
    MustOk(sys->DefineVal("CV", NatVector(data_.cv)), "bind CV");
    MustOk(sys->DefineVal("K", NatVector(data_.k)), "bind K");
    MustOk(sys->DefineVal("MA", NatMatrix(data_.mm, data_.mm, data_.ma)), "bind MA");
    MustOk(sys->DefineVal("MB", NatMatrix(data_.mm, data_.mm, data_.mb)), "bind MB");
    MustOk(sys->DefineVal("M", NatMatrix(data_.mt, data_.mt, data_.m)), "bind M");
    MustOk(sys->DefineVal("LO", Value::Nat(data_.window_lo)), "bind LO");
  }

  PaperData data_;
  std::map<std::string, Value> refs_;
  PlanMemo memo_;
};

class TiledWorkload : public Workload {
 public:
  using Workload::Workload;

  void Prepare() override {
    grid_path_ = dir_ + "/grid.nc";
    std::vector<uint8_t> bytes = Must(EncodeGridFile(seed_), "encode grid");
    FILE* f = std::fopen(grid_path_.c_str(), "wb");
    if (f == nullptr || std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size() ||
        std::fclose(f) != 0) {
      Die("cannot write " + grid_path_);
    }
    g_ = GridValues(seed_);
    // The full-grid sum in the fold's order: each row summed left to
    // right, the row sums added top to bottom.
    std::vector<double> c = ConstGridValues(seed_);
    double total = 0;
    for (uint64_t r = 0; r < kGridRows; ++r) {
      double row = 0;
      for (uint64_t j = 0; j < kGridCols; ++j) row += c[r * kGridCols + j];
      total += row;
    }
    aggregate_ = Value::Real(total).ToString() + "\n";
  }

  void Setup() override {
    aql::storage::TileStore::Global().Clear();  // every set-up starts cold
    system_ = std::make_unique<System>();
    MustOk(system_->init_status(), "system");
    std::string last = std::to_string(kGridRows - 1) + ", " + std::to_string(kGridCols - 1);
    auto read = system_->Run("readval \\G using NETCDF2 at (\"" + grid_path_ +
                             "\", \"g\", (0, 0), (" + last + "));\n" +
                             "readval \\CG using NETCDF2 at (\"" + grid_path_ +
                             "\", \"c\", (0, 0), (" + last + "));");
    MustOk(read.status(), "readval grid");
    for (const aql::StatementResult& r : *read) {
      if (r.value.array().payload != aql::ArrayRep::Payload::kTiled) {
        Die("readval did not produce a tiled array");
      }
    }
    service_ = std::make_unique<QueryService>(
        system_.get(), aql::service::ServiceConfig{.num_workers = kWorkers});
    aql::net::HttpServerConfig config;
    config.port = 0;
    config.num_threads = kClients;
    server_ = std::make_unique<aql::net::HttpServer>(service_.get(), config);
    MustOk(server_->Start(), "http server");
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(Must(HttpClient::Connect(server_->port()), "connect"));
    }
    // Warm: one op of each kind; the first aggregate loads every tile of
    // "c" once and so fills its zone maps.
    Tally warm;
    std::set<std::string> seen;
    for (uint64_t i = kWarmBase; seen.size() < 4; ++i) {
      if (seen.insert(TiledOp(seed_, i).kind).second) RunOp(0, i, &warm);
    }
    if (warm.failed != 0) Die("tiled warm-up: " + warm.errors.front());
  }

  void Teardown() override {
    clients_.clear();
    if (server_) server_->Shutdown();
    server_.reset();
    TeardownService();
  }

  Op OpAt(uint64_t index) const override { return TiledOp(seed_, index); }

  void RunOp(int client, uint64_t index, Tally* tally) override {
    Op op = TiledOp(seed_, index);
    ++tally->attempted;
    HttpClient::Response resp;
    Clock::time_point t0 = Clock::now();
    Status s = clients_[size_t(client)]->Post(op.target, op.text, &resp);
    double us = Us(Clock::now() - t0);
    if (!s.ok()) {
      tally->Fail(op.kind + ": " + s.ToString());
      return;
    }
    if (resp.status != 200) {
      tally->Fail(op.kind + ": HTTP " + std::to_string(resp.status) + " " + resp.body);
      return;
    }
    if (resp.body != Expected(op)) {
      tally->Fail(op.kind + ": body differs from the reference for " + op.text);
      return;
    }
    tally->by_kind[op.kind].push_back(us);
    tally->latency.push_back(us);
    tally->ttfb.push_back(Us(resp.first_byte - t0));
  }

  std::string ClassOf(const std::string& kind) const override {
    return kind == "hot_window" ? "" : kind;
  }

  bool StagedCorrect(const Op& op, const StagedOut& out) const override {
    return out.rendered + "\n" == Expected(op);
  }
  bool serializes() const override { return true; }
  bool http() const override { return true; }
  size_t http_threads() const override { return kClients; }

  bool Probe(const Op& op, std::map<std::string, std::vector<double>>* samples) override {
    if (op.rows == 0) return true;
    if (slab_ == nullptr) {
      slab_ = Must(aql::storage::TileStore::Global().OpenSlab(grid_path_, "g", {0, 0},
                                                             {kGridRows, kGridCols}),
                   "open slab");
      reader_ = std::make_unique<aql::netcdf::NcReader>(
          Must(aql::netcdf::NcReader::OpenFile(grid_path_), "open grid"));
    }
    std::vector<double> want = Region(op);
    std::vector<double> got(want.size());
    Clock::time_point t0 = Clock::now();
    Status s = slab_->ReadInto({op.r0, op.c0}, {op.rows, op.cols}, got.data());
    (*samples)["storage.read_into_us"].push_back(Us(Clock::now() - t0));
    bool ok = s.ok() && got == want;
    t0 = Clock::now();
    auto eager = reader_->ReadSlab(reader_->header().FindVar("g"), {op.r0, op.c0},
                                   {op.rows, op.cols});
    (*samples)["netcdf.read_slab_us"].push_back(Us(Clock::now() - t0));
    ok = ok && eager.ok() && *eager == want;
    if (op.kind != "window") return ok;
    // The HTTP tax: the same request over HTTP and in-process, both with
    // the caches bypassed, in alternating order.
    QueryOptions direct;
    direct.use_plan_cache = false;
    direct.use_result_cache = false;
    HttpClient::Response resp;
    double http_us = 0, inproc_us = 0;
    Result<Value> v = Status::OK();
    const bool http_first = ++tax_pairs_ % 2 == 0;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == http_first) {
        t0 = Clock::now();
        Status hs = clients_[0]->Post("/query?no_cache=1", op.text, &resp);
        http_us = Us(Clock::now() - t0);
        ok = ok && hs.ok() && resp.status == 200 && resp.body == Expected(op);
      } else {
        t0 = Clock::now();
        v = service_->Execute(op.text, direct);
        inproc_us = Us(Clock::now() - t0);
        ok = ok && v.ok() && v->ToString() + "\n" == Expected(op);
      }
    }
    (*samples)["net.http_us"].push_back(http_us);
    (*samples)["net.inproc_us"].push_back(inproc_us);
    return ok;
  }

 private:
  std::vector<double> Region(const Op& op) const {
    std::vector<double> out;
    out.reserve(op.rows * op.cols);
    for (uint64_t r = 0; r < op.rows; ++r) {
      const double* row = g_.data() + (op.r0 + r) * kGridCols + op.c0;
      out.insert(out.end(), row, row + op.cols);
    }
    return out;
  }

  // Reference response body: Value::ToString of plain C++ data, plus the
  // server's trailing newline. Hot windows, streams and the aggregate
  // recur, so their renderings are kept.
  std::string Expected(const Op& op) const {
    if (op.kind == "aggregate") return aggregate_;
    if (op.kind == "window") return RealArray({op.rows, op.cols}, Region(op)).ToString() + "\n";
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = rendered_.find(op.variant);
    if (it == rendered_.end()) {
      it = rendered_.emplace(op.variant,
                             RealArray({op.rows, op.cols}, Region(op)).ToString() + "\n")
               .first;
    }
    return it->second;
  }

  std::string grid_path_;
  std::vector<double> g_;
  std::string aggregate_;
  mutable std::mutex memo_mu_;
  mutable std::map<std::string, std::string> rendered_;
  std::unique_ptr<aql::net::HttpServer> server_;
  std::vector<std::unique_ptr<HttpClient>> clients_;
  std::shared_ptr<const aql::LazyRealSlab> slab_;
  std::unique_ptr<aql::netcdf::NcReader> reader_;
  uint64_t tax_pairs_ = 0;
};

// ---- the periodic writer shared by every workload ----

// The host quiesces its own clients for a write: while a write is
// pending no client starts a query, and the write runs once the queries
// in flight have finished. Write latency is the write alone, from the
// end of that drain; no query waits behind the write lock. (Without the
// gate, the service's reader-preferring system lock lets a closed loop of
// readers starve the writer for seconds, and write latency measures luck;
// with the drain included, it measures which query was in flight.)
class WriteGate {
 public:
  // Around each client query.
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !closed_; });
    ++in_flight_;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--in_flight_ == 0) cv_.notify_all();
  }
  // Around each write.
  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int in_flight_ = 0;
};

// `tally_now` names the tally of the current time slice.
void WriterLoop(QueryService* svc, const std::string& path, const std::atomic<bool>* stop,
                WriteGate* gate, const std::function<Tally*()>& tally_now) {
  Clock::time_point next = Clock::now() + kWritePeriod;
  for (uint64_t k = 0; !stop->load(); ++k, next += kWritePeriod) {
    std::this_thread::sleep_until(next);
    if (stop->load()) break;
    Tally* tally = tally_now();
    ++tally->attempted;
    gate->Close();
    Clock::time_point t0 = Clock::now();
    auto r = svc->RunScript(WriteStatement(k, path));
    gate->Open();
    double us = Us(Clock::now() - t0);
    if (!r.ok()) {
      tally->Fail("write: " + r.status().ToString());
      continue;
    }
    // Read the write back and compare with the reference values.
    auto reader = aql::netcdf::NcReader::OpenFile(path);
    Result<std::vector<double>> back = Status::IoError("unreadable");
    if (reader.ok()) back = reader->ReadAll(reader->header().FindVar("w"));
    if (!back.ok() || *back != WriteExpected(k)) {
      tally->Fail("write: read-back differs from what was written");
      continue;
    }
    tally->by_kind["write"].push_back(us);
  }
}

struct LoopResult {
  Tally tally;                // the whole loop: query ops and writes
  std::vector<Tally> slices;  // the same, by the time slice each op started in
  uint64_t ops = 0;           // query ops attempted
  double seconds = 0;         // wall time until every client finished
  Snapshot before, after;
};

// Runs the workload's closed-loop clients plus the writer for `seconds`,
// keeping each op's outcome in the tally of the slice it started in.
LoopResult ClosedLoop(Workload* w, double seconds, uint64_t first_index, int slices) {
  LoopResult out;
  std::atomic<uint64_t> next{first_index};
  std::atomic<bool> stop{false};
  std::vector<std::vector<Tally>> tallies(kClients, std::vector<Tally>(size_t(slices)));
  std::vector<Tally> writes(static_cast<size_t>(slices));
  WriteGate gate;
  out.before = Snapshot::Take(w->service());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  auto slice_now = [&] {
    size_t i = size_t(Us(Clock::now() - start) / 1e6 / (seconds / slices));
    return std::min(i, size_t(slices - 1));
  };
  std::thread writer([&] {
    WriterLoop(w->service(), w->dir() + "/written.nc", &stop, &gate,
               [&] { return &writes[slice_now()]; });
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        gate.Enter();
        w->RunOp(c, next.fetch_add(1), &tallies[size_t(c)][slice_now()]);
        gate.Exit();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.seconds = Us(Clock::now() - start) / 1e6;
  stop = true;
  writer.join();
  out.after = Snapshot::Take(w->service());
  out.slices = writes;
  for (const std::vector<Tally>& client : tallies) {
    for (size_t i = 0; i < client.size(); ++i) {
      out.slices[i].Merge(client[i]);
      out.ops += client[i].attempted;
    }
  }
  for (const Tally& t : out.slices) out.tally.Merge(t);
  return out;
}

// Shares of worker time from the service's own stage histograms:
// latency.compile_us covers parse through plan (the front end),
// latency.execute_us the plan's run.
void WorkerShares(const LoopResult& r, double* front, double* exec, double* worker_mean_us) {
  auto c0 = r.before.Hist("latency.compile_us"), c1 = r.after.Hist("latency.compile_us");
  auto e0 = r.before.Hist("latency.execute_us"), e1 = r.after.Hist("latency.execute_us");
  double compile = double(c1.sum_us - c0.sum_us), execute = double(e1.sum_us - e0.sum_us);
  *front = Ratio(compile, compile + execute);
  *exec = Ratio(execute, compile + execute);
  *worker_mean_us = Ratio(compile + execute, double(c1.count - c0.count));
}

// Every workload but tiled-http must leave the tile cache untouched;
// tiled-http must overflow it while still hitting it.
void TilePremise(const std::string& workload, const LoopResult& r, Report* rep) {
  uint64_t hits = r.after.tiles.hits - r.before.tiles.hits;
  uint64_t misses = r.after.tiles.misses - r.before.tiles.misses;
  uint64_t evictions = r.after.tiles.evictions - r.before.tiles.evictions;
  std::string detail = "tile hits " + std::to_string(hits) + ", misses " +
                       std::to_string(misses) + ", evictions " + std::to_string(evictions);
  if (workload == "tiled-http") {
    rep->Check("premise.tiles_overflow_cache", evictions > 0 && hits > 0 && misses > 0, detail);
  } else {
    rep->Check("premise.no_tile_traffic", hits + misses == 0, detail);
  }
}

void SharePremise(const std::string& workload, double front, double exec,
                  const std::string& source, Report* rep) {
  std::string detail = source + ": front end " + JsonNum(front) + ", exec.run " + JsonNum(exec);
  if (workload == "adhoc-compile") {
    rep->Check("premise.front_end_bound." + source, front >= kAdhocMinFrontShare, detail);
  } else if (workload == "paper-analytics") {
    rep->Check("premise.exec_bound." + source,
               front <= kPaperMaxFrontShare && exec >= kPaperMinExecShare, detail);
  }
}

const std::vector<std::string> kQueryKinds = {
    "heatwave", "hist",       "groupby",   "transpose", "multiply", "conv",
    "window",   "hot_window", "aggregate", "stream",    "write"};

// ---- --trace 0: end-to-end metrics ----

void TimedRun(Workload* w, const std::string& workload, double seconds, Report* rep,
              Tally* tally) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point t0 = Clock::now();
    w->Setup();
    setups.push_back(Us(Clock::now() - t0) / 1e6);
    if (i + 1 < kSetups) w->Teardown();
  }
  const int slices = std::max(1, int(std::lround(seconds / kSliceSeconds)));
  LoopResult r = ClosedLoop(w, seconds, 0, slices);
  w->Teardown();
  *tally = r.tally;

  // Timings come from the faster half of the slices, and each median is
  // taken per slice and averaged over them. On the reference box (a
  // 4-vCPU VM) the host steals vCPU time in bursts and its speed switches
  // between modes some 30% apart every few seconds. Dropping the slower
  // half drops most bursts; a change that slows the program slows every
  // slice. A median pooled over many slices would sit on whichever mode
  // or query kind holds its middle sample and jump between runs, while a
  // mean of slice medians moves smoothly with their shares. A slice's pace
  // is the median over its queries of latency / the run's median for that
  // kind, so that slices are not ranked by how many cheap kinds the seeded
  // mix happened to put in them.
  std::map<std::string, double> kind_p50;
  for (const auto& [kind, lat_k] : r.tally.by_kind) kind_p50[kind] = Quantile(lat_k, 0.5);
  std::vector<std::pair<double, size_t>> pace;
  for (size_t i = 0; i < r.slices.size(); ++i) {
    std::vector<double> rel;
    for (const auto& [kind, lat_k] : r.slices[i].by_kind) {
      if (kind == "write") continue;
      for (double us : lat_k) rel.push_back(us / kind_p50[kind]);
    }
    if (!rel.empty()) pace.emplace_back(Quantile(rel, 0.5), i);
  }
  std::sort(pace.begin(), pace.end());
  std::vector<const Tally*> kept;
  Tally pooled;
  for (size_t i = 0; i < std::max<size_t>(1, pace.size() / 2); ++i) {
    kept.push_back(&r.slices[pace[i].second]);
    pooled.Merge(r.slices[pace[i].second]);
  }
  auto slice_p50 = [&](const std::function<const std::vector<double>*(const Tally&)>& pick,
                       size_t* samples) {
    std::vector<double> medians;
    *samples = 0;
    for (const Tally* t : kept) {
      const std::vector<double>* v = pick(*t);
      if (v == nullptr || v->empty()) continue;
      medians.push_back(Quantile(*v, 0.5));
      *samples += v->size();
    }
    return Mean(medians);
  };
  auto kind_of = [](const std::string& kind) {
    return [kind](const Tally& t) -> const std::vector<double>* {
      auto it = t.by_kind.find(kind);
      return it == t.by_kind.end() ? nullptr : &it->second;
    };
  };
  const size_t n = pooled.latency.size();
  const double kept_s = double(kept.size()) * seconds / slices;
  const std::string over = "faster " + std::to_string(kept.size()) + " of " +
                           std::to_string(slices) + " slices of " + JsonNum(seconds / slices) +
                           " s, mean of each slice's median; ";
  size_t count = 0;
  rep->Metric("qps", double(n) / kept_s, "queries/s",
              std::to_string(n) + " queries in the faster " + JsonNum(kept_s) + " s, " +
                  std::to_string(kClients) + " closed-loop clients");
  double p50 = slice_p50([](const Tally& t) { return &t.latency; }, &count);
  rep->Metric("latency_p50_us", p50, "us", over + std::to_string(count) + " queries");
  rep->Metric("latency_p99_us", Quantile(pooled.latency, 0.99), "us",
              "faster slices pooled, " + std::to_string(n) + " queries, " +
                  std::to_string(n - size_t(std::ceil(0.99 * double(n)))) + " beyond the p99");
  double ttfb = slice_p50([](const Tally& t) { return &t.ttfb; }, &count);
  rep->Metric("ttfb_p50_us", ttfb, "us",
              over + (w->http() ? "request sent to first response byte"
                                : "in-process: the answer arrives whole, so equal to latency"));
  // A class's p50 is the mean of its kinds' p50s.
  for (const char* cls : {"window", "aggregate", "stream"}) {
    std::vector<double> medians;
    std::string kinds;
    for (const auto& [kind, lat_k] : r.tally.by_kind) {
      if (w->ClassOf(kind) != cls) continue;
      medians.push_back(slice_p50(kind_of(kind), &count));
      kinds += " " + kind + " (" + std::to_string(count) + ")";
    }
    rep->Metric(std::string(cls) + "_p50_us", Mean(medians), "us",
                over + "mean over kinds:" + kinds);
  }
  double write = slice_p50(kind_of("write"), &count);
  rep->Metric("write_p50_us", write, "us", over + std::to_string(count) + " writes");
  rep->Metric("error_ratio", Ratio(double(r.tally.failed), double(r.tally.attempted)), "ratio",
              std::to_string(r.tally.failed) + " / " + std::to_string(r.tally.attempted));
  rep->Metric("setup_s", Quantile(setups, 0.5), "s",
              "median of " + std::to_string(kSetups) + " set-ups");
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  rep->Metric("peak_rss_mib", double(usage.ru_maxrss) / 1024, "MiB", "getrusage ru_maxrss");
  for (const auto& [kind, lat_k] : r.tally.by_kind) {
    rep->Info("kind." + kind, std::to_string(lat_k.size()) + " ops, p50 " +
                                  JsonNum(Quantile(lat_k, 0.5)) + " us, p99 " +
                                  JsonNum(Quantile(lat_k, 0.99)) + " us");
  }

  double front, exec, worker;
  WorkerShares(r, &front, &exec, &worker);
  SharePremise(workload, front, exec, "service_histograms", rep);
  TilePremise(workload, r, rep);
}

// ---- --trace 1: per-layer metrics ----

void TracedRun(Workload* w, const std::string& workload, double seconds, Report* rep,
               Tally* tally) {
  w->Setup();

  // 1. The untraced loop, for the stats-snapshot deltas.
  LoopResult r = ClosedLoop(w, seconds / 2, 0, 1);
  tally->Merge(r.tally);
  const double ops = double(r.ops);
  const std::string per_query = "per query, " + std::to_string(r.ops) + " queries";
  auto delta = [&](const std::string& c) { return double(r.after.Counter(c) - r.before.Counter(c)); };
  double plan_hits = delta("plan_cache.hits"), plan_misses = delta("plan_cache.misses");
  rep->Metric("service.plan_cache.hit_ratio", Ratio(plan_hits, plan_hits + plan_misses), "ratio",
              JsonNum(plan_hits) + " / " + JsonNum(plan_hits + plan_misses));
  const auto &rc0 = r.before.results, &rc1 = r.after.results;
  double rc_served = double(rc1.hits - rc0.hits + rc1.subsumptions - rc0.subsumptions);
  double rc_lookups = rc_served + double(rc1.misses - rc0.misses);
  rep->Metric("service.result_cache.hit_ratio", Ratio(rc_served, rc_lookups), "ratio",
              JsonNum(rc_served) + " / " + JsonNum(rc_lookups) + " (hits + subsumed)");
  rep->Metric("service.result_cache.subsumed",
              Ratio(double(rc1.subsumptions - rc0.subsumptions), ops), "count/query", per_query);
  rep->Metric("service.result_cache.invalidations",
              Ratio(double(rc1.invalidations - rc0.invalidations), ops), "count/query", per_query);
  double front, exec, worker_mean;
  WorkerShares(r, &front, &exec, &worker_mean);
  rep->Metric("service.overhead_us", Mean(r.tally.latency) - worker_mean, "us",
              "mean client latency minus mean worker compile+execute, " + per_query);
  const auto &t0 = r.before.tiles, &t1 = r.after.tiles;
  double tile_hits = double(t1.hits - t0.hits), tile_misses = double(t1.misses - t0.misses);
  rep->Metric("storage.tile.hit_ratio", Ratio(tile_hits, tile_hits + tile_misses), "ratio",
              JsonNum(tile_hits) + " / " + JsonNum(tile_hits + tile_misses));
  rep->Metric("storage.tile.misses", Ratio(tile_misses, ops), "count/query", per_query);
  rep->Metric("storage.tile.evictions", Ratio(double(t1.evictions - t0.evictions), ops),
              "count/query", per_query);
  rep->Metric("storage.tile.prunes", Ratio(double(t1.prunes - t0.prunes), ops), "count/query",
              per_query);
  rep->Metric("storage.tile.zone_fills", Ratio(double(t1.zone_fills - t0.zone_fills), ops),
              "count/query", per_query);
  rep->Metric("exec.par.chunks", Ratio(double(r.after.par_chunks - r.before.par_chunks), ops),
              "count/query", per_query);
  rep->Metric("exec.unboxed.arrays", Ratio(double(r.after.unboxed - r.before.unboxed), ops),
              "count/query", per_query);
  rep->Metric("exec.unchecked.kernels",
              Ratio(double(r.after.unchecked - r.before.unchecked), ops), "count/query", per_query);
  rep->Metric("exec.tab.pushdowns", Ratio(double(r.after.pushdowns - r.before.pushdowns), ops),
              "count/query", per_query);
  rep->Metric("net.bytes_out", Ratio(delta("http.bytes_out"), ops), "bytes/query", per_query);
  auto sys_lock = [&](bool after) { return (after ? r.after : r.before).Lock("service.system"); };
  rep->Metric("lock.service.system.wait_us",
              Ratio(double(sys_lock(true).wait_us - sys_lock(false).wait_us), ops), "us/query",
              per_query);
  auto tile_lock = [&](bool after) {
    return (after ? r.after : r.before).Lock("storage.tile_cache");
  };
  rep->Metric("lock.storage.tile_cache.contended",
              Ratio(double(tile_lock(true).contended - tile_lock(false).contended), ops),
              "count/query", per_query);
  for (const std::string& kind : kQueryKinds) {
    auto it = r.tally.by_kind.find(kind);
    size_t count = it == r.tally.by_kind.end() ? 0 : it->second.size();
    rep->Metric("query." + kind + ".p50_us", count == 0 ? 0 : Quantile(it->second, 0.5), "us",
                std::to_string(count) + " ops");
  }
  SharePremise(workload, front, exec, "service_histograms", rep);
  TilePremise(workload, r, rep);

  // 2. The staged replay: the same seeded stream through the public stage
  // calls, once with spans and once without, alternating which goes first.
  SpanLog log;
  std::vector<double> traced_us, untraced_us;
  std::map<std::string, std::vector<double>> probes;
  size_t firings = 0, traced_queries = 0;
  auto writer_fn = aql::MakeNetcdfWriter();
  const std::string probe_path = w->dir() + "/io_probe.nc";
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds / 2));
  for (uint64_t i = 0; Clock::now() < deadline || i == 0; ++i) {
    Op op = w->OpAt(kStagedBase + i);
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (i % 2 == 0);
      ++tally->attempted;
      StagedOut out;
      Clock::time_point s0 = Clock::now();
      Status s = StagedQuery(w->system(), op.text, w->memo(), w->serializes(),
                             traced ? &log : nullptr, traced_queries, &out);
      double us = Us(Clock::now() - s0);
      if (!s.ok() || !w->StagedCorrect(op, out)) {
        tally->Fail("staged " + op.kind + ": " + (s.ok() ? "wrong answer" : s.ToString()));
        continue;
      }
      (traced ? traced_us : untraced_us).push_back(us);
      if (traced) {
        firings += out.rule_firings;
        ++traced_queries;
      }
    }
    ++tally->attempted;
    if (!w->Probe(op, &probes)) tally->Fail("probe " + op.kind + ": wrong answer");
    if (i % kProbeEvery == 0) {
      // io: the NETCDF writer driver alone, then a read-back.
      ++tally->attempted;
      uint64_t k = i / kProbeEvery;
      std::vector<double> want = WriteExpected(k);
      std::vector<uint64_t> nats(want.begin(), want.end());
      Value payload = NatMatrix(kWriteSide, kWriteSide, nats);
      Value args = Value::MakeTuple({Value::Str(probe_path), Value::Str("w")});
      Clock::time_point s0 = Clock::now();
      Status ws = writer_fn(payload, args);
      probes["io.write_us"].push_back(Us(Clock::now() - s0));
      auto reader = aql::netcdf::NcReader::OpenFile(probe_path);
      if (!ws.ok() || !reader.ok() || reader->ReadAll(reader->header().FindVar("w")).value() != want) {
        tally->Fail("io probe: read-back differs");
      }
    }
  }
  w->Teardown();

  // Per-stage totals over the traced queries. A span's self time is its
  // duration minus its direct children's.
  const std::vector<SpanLog::Rec>& recs = log.recs();
  std::vector<double> child(recs.size(), 0);
  for (const SpanLog::Rec& s : recs) {
    if (s.parent >= 0) child[size_t(s.parent)] += s.end_us - s.begin_us;
  }
  std::map<std::string, double> inclusive;
  double root_total = 0, root_self = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    double d = recs[i].end_us - recs[i].begin_us;
    if (recs[i].parent < 0) {
      root_total += d;
      root_self += d - child[i];
    } else {
      inclusive[recs[i].name] += d;
    }
  }
  const double q = double(traced_queries);
  const std::string staged = "mean per staged query, " + std::to_string(traced_queries) + " queries";
  for (const char* stage : {"surface.parse", "surface.desugar", "env.resolve", "typecheck.infer",
                            "opt.optimize", "analysis.plan_facts", "exec.compile", "exec.run",
                            "object.serialize"}) {
    std::string name = std::string(stage) == "typecheck.infer" ? "typecheck.infer_us"
                                                                 : std::string(stage) + "_us";
    rep->Metric(name, Ratio(inclusive[stage], q), "us", staged);
  }
  for (const auto& [name, total] : inclusive) {
    if (name.rfind("opt.phase.", 0) == 0) rep->Metric(name + "_us", Ratio(total, q), "us", staged);
  }
  rep->Metric("opt.rule_firings", Ratio(double(firings), q), "count/query", staged);
  double front_us = 0;
  for (const char* stage : {"surface.parse", "surface.desugar", "env.resolve", "typecheck.infer",
                            "opt.optimize", "analysis.plan_facts", "exec.compile"}) {
    front_us += inclusive[stage];
  }
  const double staged_front = Ratio(front_us, root_total);
  const double staged_exec = Ratio(inclusive["exec.run"], root_total);
  rep->Metric("front_end.share", staged_front, "ratio", "front-end stages / worker total, staged");
  rep->Metric("exec.run.share", staged_exec, "ratio", "exec.run / worker total, staged");
  SharePremise(workload, staged_front, staged_exec, "staged_spans", rep);

  const double unaccounted = Ratio(root_self, root_total);
  rep->Metric("trace.layer_sum_error", unaccounted, "ratio",
              "worker total not covered by stage spans, " + staged);
  rep->Check("layer_sum", unaccounted <= kLayerSumTolerance,
             "stage self-times cover " + JsonNum(100 * (1 - unaccounted)) +
                 "% of the worker total; tolerance " + JsonNum(100 * kLayerSumTolerance) + "%");
  const double traced_p50 = Quantile(traced_us, 0.5), untraced_p50 = Quantile(untraced_us, 0.5);
  rep->Metric("trace.overhead_us", traced_p50 - untraced_p50, "us",
              "staged p50 with spans (" + JsonNum(traced_p50) + ") minus without (" +
                  JsonNum(untraced_p50) + ")");
  for (const char* probe : {"storage.read_into_us", "netcdf.read_slab_us", "io.write_us"}) {
    rep->Metric(probe, Mean(probes[probe]), "us",
                "mean per probe, " + std::to_string(probes[probe].size()) + " probes");
  }
  rep->Metric("net.tax_us", Quantile(probes["net.http_us"], 0.5) - Quantile(probes["net.inproc_us"], 0.5),
              "us",
              "p50 HTTP minus p50 in-process Execute of the same uncached window, " +
                  std::to_string(probes["net.http_us"].size()) + " pairs");
}

int Main(int argc, char** argv) {
  std::string workload, data_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--data-dir") data_dir = value;
    else Die("unknown flag " + flag);
  }
  if (workload.empty() || data_dir.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    Die("usage: aql_bench --workload W --seed N --seconds S --trace 0|1 --data-dir DIR");
  }

  // Provenance gate: numbers from a non-Release or sanitizer build are
  // not reported at all.
  bool sanitized = AQLB_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (std::string(AQLB_BUILD_TYPE) != "Release" || !ndebug || sanitized) {
    Die(std::string("refusing to report from a ") + AQLB_BUILD_TYPE +
        (sanitized ? " sanitizer" : "") + " build; build Release without sanitizers");
  }

  // The tile-store knobs are read from the environment; set them before
  // any thread starts.
  ::setenv("AQL_TILE_BYTES", std::to_string(kTileBytes).c_str(), 1);
  ::setenv("AQL_TILE_CACHE_BYTES", std::to_string(kTileCacheBytes).c_str(), 1);
  ::setenv("AQL_TILED_READ_THRESHOLD", std::to_string(kTileCacheBytes).c_str(), 1);

  std::unique_ptr<Workload> w;
  if (workload == "adhoc-compile") w = std::make_unique<AdhocWorkload>(seed, data_dir);
  else if (workload == "paper-analytics") w = std::make_unique<PaperWorkload>(seed, data_dir);
  else if (workload == "tiled-http") w = std::make_unique<TiledWorkload>(seed, data_dir);
  else Die("unknown workload " + workload);

  Report rep;
  rep.Info("workload", workload);
  rep.Info("seed", std::to_string(seed));
  rep.Info("seconds", JsonNum(seconds));
  rep.Info("trace", std::to_string(trace));
  rep.Info("build_type", AQLB_BUILD_TYPE);
  rep.Info("compiler", std::string(AQLB_COMPILER) + " (" + __VERSION__ + ")");
  rep.Info("flags", AQLB_CXX_FLAGS);
  rep.Info("sanitizer", sanitized ? "yes" : "none");
  rep.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.Info("clients", std::to_string(kClients));
  rep.Info("service_workers", std::to_string(kWorkers));
  rep.Info("exec_threads", std::to_string(aql::exec::ExecThreads()));
  rep.Info("http_threads", std::to_string(w->http_threads()));

  Clock::time_point p0 = Clock::now();
  w->Prepare();
  rep.Info("prepare_s", JsonNum(Us(Clock::now() - p0) / 1e6));

  Tally tally;
  if (trace == 0) {
    TimedRun(w.get(), workload, seconds, &rep, &tally);
  } else {
    TracedRun(w.get(), workload, seconds, &rep, &tally);
  }
  std::printf("%s\n", rep.Json(tally.attempted, tally.failed, tally.errors).c_str());
  std::fflush(stdout);
  return tally.failed == 0 && rep.checks_ok() ? 0 : 1;
}

}  // namespace
}  // namespace aqlb

int main(int argc, char** argv) { return aqlb::Main(argc, argv); }
