// Out-of-core tiled storage (storage/tile_store.h): the EXPERIMENTS.md
// storage section. A NetCDF grid several times the tile-cache budget is
// scanned and windowed through the TileStore and through the eager
// (RAM-resident) reader:
//
//   ColdScan_Tiled / ColdScan_Eager — full scan, cache cleared per
//       iteration: prices tile-granular streaming against one bulk read.
//   WarmScan_Tiled                  — full scan with the dataset resident:
//       the cache-hit fast path.
//   Window_TileStore / Window_Materialized — a small window read via the
//       slab's bulk ReadInto (what the exec subslab pushdown issues)
//       against materializing the whole variable and slicing.
//   Aggregate_Pruned / Aggregate_Generic — a repeated sum over a mostly-
//       constant tiled grid under a 3-tile cache, through the compiled
//       exec backend: the pruned fold answers 14 of 16 tiles from their
//       zone maps (no I/O), the generic fold re-reads every tile per
//       iteration.
//
// `bench_storage --smoke` self-checks the acceptance criteria in a few
// seconds for check.sh: a scan of a dataset larger than the budget stays
// under the byte budget and matches the eager read bit-for-bit, the
// window read touches measurably fewer tiles than a full materialize,
// and a repeated aggregate over the mostly-constant grid prunes tile
// reads while staying bit-identical to the generic fold (pushdown off).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "bench_util.h"
#include "core/expr.h"
#include "exec/compiled.h"
#include "netcdf/reader.h"
#include "netcdf/writer.h"
#include "storage/tile_store.h"

namespace aql {
namespace bench {
namespace {

constexpr uint64_t kRows = 512, kCols = 64;  // 256 KiB of doubles
constexpr uint64_t kTileBytes = 16 << 10;    // 32 rows per tile, 16 tiles
constexpr uint64_t kBudget = 48 << 10;       // 3 tiles: the scan must evict

std::string DataPath() {
  return (std::filesystem::temp_directory_path() / "aql_bench_storage.nc").string();
}

void EnsureDataFile() {
  static bool done = [] {
    netcdf::NcWriter w(1);
    uint32_t r = w.AddDim("row", kRows);
    uint32_t c = w.AddDim("col", kCols);
    std::vector<double> data(kRows * kCols);
    for (uint64_t i = 0; i < data.size(); ++i) data[i] = double((i * 37) % 1001) * 0.5;
    w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::move(data));
    Status s = w.WriteFile(DataPath());
    if (!s.ok()) {
      std::fprintf(stderr, "bench_storage: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    ::setenv("AQL_TILE_BYTES", std::to_string(kTileBytes).c_str(), 1);
    return true;
  }();
  (void)done;
}

std::shared_ptr<const LazyRealSlab> OpenWholeSlab(storage::TileStore* store) {
  auto slab = store->OpenSlab(DataPath(), "v", {0, 0}, {kRows, kCols});
  if (!slab.ok()) {
    std::fprintf(stderr, "bench_storage: %s\n", slab.status().ToString().c_str());
    std::exit(1);
  }
  return *slab;
}

void BM_ColdScan_Tiled(benchmark::State& state) {
  EnsureDataFile();
  storage::TileStore store(kBudget);
  auto slab = OpenWholeSlab(&store);
  std::vector<double> out(kRows * kCols);
  for (auto _ : state) {
    store.Clear();
    slab = OpenWholeSlab(&store);  // Clear drops the dataset too
    Status s = slab->ReadInto({0, 0}, {kRows, kCols}, out.data());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(out.size() * 8));
}
BENCHMARK(BM_ColdScan_Tiled);

void BM_ColdScan_Eager(benchmark::State& state) {
  EnsureDataFile();
  for (auto _ : state) {
    auto reader = netcdf::NcReader::OpenFile(DataPath());
    if (!reader.ok()) state.SkipWithError(reader.status().ToString().c_str());
    auto all = reader->ReadSlab(0, {0, 0}, {kRows, kCols});
    if (!all.ok()) state.SkipWithError(all.status().ToString().c_str());
    benchmark::DoNotOptimize(all->data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(kRows * kCols * 8));
}
BENCHMARK(BM_ColdScan_Eager);

void BM_WarmScan_Tiled(benchmark::State& state) {
  EnsureDataFile();
  storage::TileStore store(1 << 20);  // everything fits: all hits
  auto slab = OpenWholeSlab(&store);
  std::vector<double> out(kRows * kCols);
  (void)slab->ReadInto({0, 0}, {kRows, kCols}, out.data());  // warm
  for (auto _ : state) {
    Status s = slab->ReadInto({0, 0}, {kRows, kCols}, out.data());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(out.size() * 8));
}
BENCHMARK(BM_WarmScan_Tiled);

void BM_Window_TileStore(benchmark::State& state) {
  EnsureDataFile();
  storage::TileStore store(kBudget);
  auto slab = OpenWholeSlab(&store);
  std::vector<double> out(16 * kCols);
  uint64_t n = 0;
  for (auto _ : state) {
    uint64_t r0 = (n++ * 61) % (kRows - 16);
    Status s = slab->ReadInto({r0, 0}, {16, kCols}, out.data());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Window_TileStore);

// ---- aggregate pruning over zone maps (docs/STORAGE.md) ----
//
// Same 512x64 shape, but rows [0, 448) hold the constant 2.5: under
// 16 KiB tiles that is 14 constant tiles out of 16. The sum nest
// `sum k < 512. sum l < 64. S[k, l]` compiles to the zone-aware row fold
// (`aggregate-prune` certificate); once the first run has warmed the zone
// maps, every repeat answers the constant tiles without touching the
// store. A 3-tile AQL_TILE_CACHE_BYTES keeps the generic fold honest: it
// must re-read (and evict) every tile per iteration, which is exactly the
// out-of-core case pruning is for — zones survive eviction.

constexpr uint64_t kConstRows = 448;

std::string PruneDataPath() {
  return (std::filesystem::temp_directory_path() / "aql_bench_storage_prune.nc")
      .string();
}

void EnsurePruneDataFile() {
  EnsureDataFile();  // sets AQL_TILE_BYTES
  static bool done = [] {
    netcdf::NcWriter w(1);
    uint32_t r = w.AddDim("row", kRows);
    uint32_t c = w.AddDim("col", kCols);
    std::vector<double> data(kRows * kCols);
    for (uint64_t i = 0; i < kRows; ++i) {
      for (uint64_t j = 0; j < kCols; ++j) {
        data[i * kCols + j] = i < kConstRows ? 2.5 : double(i * 1000 + j);
      }
    }
    w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::move(data));
    Status s = w.WriteFile(PruneDataPath());
    if (!s.ok()) {
      std::fprintf(stderr, "bench_storage: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    return true;
  }();
  (void)done;
}

// Opens the prune grid as a tiled value through readval and compiles the
// full-grid sum nest against it. Returns nullptr (with a message) on any
// setup failure.
std::unique_ptr<System> g_prune_sys;

std::unique_ptr<exec::Program> CompilePruneSum(std::string* err) {
  ::setenv("AQL_TILED_READ_THRESHOLD", "1", 1);
  storage::TileStore::Global().Clear();
  SystemConfig cfg;
  cfg.optimize = false;
  g_prune_sys = std::make_unique<System>(cfg);
  auto rd = g_prune_sys->Run("readval \\S using NETCDF2 at (\"" +
                             PruneDataPath() + "\", \"v\", (0, 0), (" +
                             std::to_string(kRows - 1) + ", " +
                             std::to_string(kCols - 1) + "));");
  if (!rd.ok()) {
    *err = rd.status().ToString();
    return nullptr;
  }
  const Value& tiled = rd->back().value;
  if (tiled.array().payload != ArrayRep::Payload::kTiled) {
    *err = "readval did not produce a tiled payload";
    return nullptr;
  }
  ExprPtr body = Expr::Subscript(
      Expr::Literal(tiled), Expr::Tuple({Expr::Var("k"), Expr::Var("l")}));
  ExprPtr nest = Expr::Sum(
      "k", Expr::Sum("l", std::move(body), Expr::Gen(Expr::NatConst(kCols))),
      Expr::Gen(Expr::NatConst(kRows)));
  auto program = exec::Compile(nest, g_prune_sys->PrimitiveResolver());
  if (!program.ok()) {
    *err = program.status().ToString();
    return nullptr;
  }
  bool certified = false;
  for (const auto& e : program->proof().entries) {
    if (e.optimization == "aggregate-prune") certified = true;
  }
  if (!certified) {
    *err = "sum nest lost its aggregate-prune certificate";
    return nullptr;
  }
  return std::make_unique<exec::Program>(std::move(*program));
}

// The process defaults with subslab/aggregate pushdown switched on or off.
ExecOptions Pushdown(bool on) {
  ExecOptions o = DefaultExecOptions();
  o.pushdown = on;
  return o;
}

void RunAggregate(benchmark::State& state, bool pushdown) {
  EnsurePruneDataFile();
  ::setenv("AQL_TILE_CACHE_BYTES", std::to_string(kBudget).c_str(), 1);
  std::string err;
  auto program = CompilePruneSum(&err);
  if (!program) {
    state.SkipWithError(err.c_str());
    return;
  }
  ExecScope scope(nullptr, Pushdown(pushdown));
  {
    auto warm = program->Run();  // first pass loads every tile, warms zones
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto r = program->Run();
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  ::unsetenv("AQL_TILE_CACHE_BYTES");
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(kRows * kCols * 8));
}

void BM_Aggregate_Pruned(benchmark::State& state) { RunAggregate(state, true); }
void BM_Aggregate_Generic(benchmark::State& state) {
  RunAggregate(state, false);
}
BENCHMARK(BM_Aggregate_Pruned);
BENCHMARK(BM_Aggregate_Generic);

void BM_Window_Materialized(benchmark::State& state) {
  EnsureDataFile();
  std::vector<double> out(16 * kCols);
  uint64_t n = 0;
  for (auto _ : state) {
    auto reader = netcdf::NcReader::OpenFile(DataPath());
    if (!reader.ok()) state.SkipWithError(reader.status().ToString().c_str());
    auto all = reader->ReadSlab(0, {0, 0}, {kRows, kCols});
    if (!all.ok()) state.SkipWithError(all.status().ToString().c_str());
    uint64_t r0 = (n++ * 61) % (kRows - 16);
    std::memcpy(out.data(), all->data() + r0 * kCols, out.size() * 8);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Window_Materialized);

// ---- --smoke: the acceptance criteria, self-checking ----

int Smoke() {
  EnsureDataFile();
  int failures = 0;

  // 1. A full scan of a dataset ~5x the budget completes under budget and
  //    matches the eager read bit-for-bit.
  {
    storage::TileStore store(kBudget);
    auto slab = OpenWholeSlab(&store);
    std::vector<double> tiled(kRows * kCols);
    Status s = slab->ReadInto({0, 0}, {kRows, kCols}, tiled.data());
    if (!s.ok()) {
      std::printf("smoke full-scan       FAIL (%s)\n", s.ToString().c_str());
      return 1;
    }
    auto reader = netcdf::NcReader::OpenFile(DataPath());
    auto eager = reader->ReadSlab(0, {0, 0}, {kRows, kCols});
    bool identical = eager.ok() && *eager == tiled;
    storage::TileStoreStats st = store.stats();
    bool bounded = st.bytes <= kBudget && st.evictions > 0;
    std::printf(
        "smoke full-scan       %llu tile loads, %llu evictions, %llu/%llu "
        "resident bytes, bit-identical %s  %s\n",
        (unsigned long long)st.misses, (unsigned long long)st.evictions,
        (unsigned long long)st.bytes, (unsigned long long)kBudget,
        identical ? "yes" : "NO", identical && bounded ? "ok" : "FAIL");
    if (!identical || !bounded) ++failures;
  }

  // 2. A window read (the shape the exec subslab pushdown issues) touches
  //    measurably fewer tiles than materializing the whole variable.
  {
    storage::TileStore store(kBudget);
    auto slab = OpenWholeSlab(&store);
    std::vector<double> out(16 * kCols);
    Status s = slab->ReadInto({64, 0}, {16, kCols}, out.data());
    uint64_t window_loads = store.stats().misses;
    std::vector<double> full(kRows * kCols);
    (void)slab->ReadInto({0, 0}, {kRows, kCols}, full.data());
    uint64_t total_loads = store.stats().misses;
    bool ok = s.ok() && window_loads * 4 <= total_loads;
    std::printf("smoke subslab-window  %llu tile loads vs %llu for the full scan  %s\n",
                (unsigned long long)window_loads, (unsigned long long)total_loads,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }

  // 3. A repeated aggregate over the mostly-constant grid answers its
  //    constant tiles from zone maps (storage.tile.prunes moves) and stays
  //    bit-identical to the generic fold (pushdown off).
  {
    EnsurePruneDataFile();
    std::string err;
    auto program = CompilePruneSum(&err);
    bool ok = false;
    uint64_t pruned = 0;
    if (!program) {
      std::printf("smoke pruned-agg      FAIL (%s)\n", err.c_str());
      ++failures;
    } else {
      auto warm = program->Run();  // loads every tile, warms the zones
      uint64_t before = storage::TileStore::Global().stats().prunes;
      auto repeat = program->Run();
      pruned = storage::TileStore::Global().stats().prunes - before;
      auto generic = [&] {
        ExecScope scope(nullptr, Pushdown(false));
        return program->Run();
      }();
      bool identical = warm.ok() && repeat.ok() && generic.ok() &&
                       *warm == *generic && *repeat == *generic;
      ok = identical && pruned > 0;
      std::printf(
          "smoke pruned-agg      %llu zone-pruned rows on repeat, "
          "bit-identical %s  %s\n",
          (unsigned long long)pruned, identical ? "yes" : "NO",
          ok ? "ok" : "FAIL");
      if (!ok) ++failures;
    }
  }

  std::printf("smoke result: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace aql

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return aql::bench::Smoke();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
