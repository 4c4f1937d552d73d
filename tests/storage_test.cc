// Tests for the out-of-core tiled storage layer (src/storage): tile-store
// bit-identity against the eager RAM path, LRU eviction under a byte
// budget, zone-map constant refills, file-rewrite staleness, concurrent
// readers, and the end-to-end tab/sum + subslab-pushdown paths through
// the System with a dataset larger than the cache budget.

#include "storage/tile_store.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include <cmath>
#include <limits>

#include "base/cancel.h"
#include "core/expr.h"
#include "env/system.h"
#include "exec/compiled.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "netcdf/reader.h"
#include "netcdf/writer.h"
#include "test_util.h"

namespace aql {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

using aql::testing::ScopedEnv;

// The process defaults with subslab/aggregate pushdown switched on or off.
ExecOptions Pushdown(bool on) {
  ExecOptions o = DefaultExecOptions();
  o.pushdown = on;
  return o;
}

// Writes an R x C double variable `v` where element (i,j) = i * 1000 + j.
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

TEST(TileStore, BitIdenticalToEagerReads) {
  std::string path = TempPath("aql_storage_ident.nc");
  WriteGrid(path, 64, 16);
  // 4 rows of 16 doubles per tile: the 64-row slab spans 16 tiles.
  ScopedEnv tile("AQL_TILE_BYTES", "512");

  TileStore store;
  auto slab = store.OpenSlab(path, "v", {0, 0}, {64, 16});
  ASSERT_TRUE(slab.ok()) << slab.status().ToString();
  EXPECT_EQ((*slab)->dims(), (std::vector<uint64_t>{64, 16}));

  auto reader = netcdf::NcReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());

  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t r0 = rng() % 64, c0 = rng() % 16;
    std::vector<uint64_t> start{r0, c0};
    std::vector<uint64_t> count{1 + rng() % (64 - r0), 1 + rng() % (16 - c0)};
    auto eager = reader->ReadSlab(0, start, count);
    ASSERT_TRUE(eager.ok());
    std::vector<double> tiled(eager->size());
    ASSERT_TRUE((*slab)->ReadInto(start, count, tiled.data()).ok());
    EXPECT_EQ(tiled, *eager) << "trial " << trial;
  }
  // Point reads agree with the flat row-major order.
  for (uint64_t flat : {0ull, 15ull, 16ull, 517ull, 64ull * 16 - 1}) {
    auto d = (*slab)->AtFlat(flat);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, double((flat / 16) * 1000 + flat % 16));
  }
  std::remove(path.c_str());
}

TEST(TileStore, SubRegionSlabShiftsCoordinates) {
  std::string path = TempPath("aql_storage_region.nc");
  WriteGrid(path, 32, 8);
  ScopedEnv tile("AQL_TILE_BYTES", "512");

  TileStore store;
  // Region rows [10, 30), cols [2, 8).
  auto slab = store.OpenSlab(path, "v", {10, 2}, {20, 6});
  ASSERT_TRUE(slab.ok()) << slab.status().ToString();
  std::vector<double> out(20 * 6);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {20, 6}, out.data()).ok());
  for (uint64_t i = 0; i < 20; ++i) {
    for (uint64_t j = 0; j < 6; ++j) {
      EXPECT_EQ(out[i * 6 + j], double((i + 10) * 1000 + (j + 2)));
    }
  }
  auto d = (*slab)->AtFlat(3 * 6 + 1);  // (13, 3) in file coordinates
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 13003.0);
  std::remove(path.c_str());
}

TEST(TileStore, EvictsToStayUnderBudget) {
  std::string path = TempPath("aql_storage_evict.nc");
  WriteGrid(path, 64, 16);
  ScopedEnv tile("AQL_TILE_BYTES", "512");  // 512-byte tiles (4 rows)

  // Budget of 3 tiles; the 16-tile scan must evict.
  TileStore store(/*max_bytes=*/1536);
  auto slab = store.OpenSlab(path, "v", {0, 0}, {64, 16});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(64 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {64, 16}, out.data()).ok());

  TileStoreStats s = store.stats();
  EXPECT_GE(s.misses, 16u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 1536u);
  EXPECT_LE(s.entries, 3u);

  // A re-scan stays under budget too, and the data is still right.
  std::vector<double> again(64 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {64, 16}, again.data()).ok());
  EXPECT_EQ(out, again);
  EXPECT_LE(store.stats().bytes, 1536u);
  std::remove(path.c_str());
}

TEST(TileStore, CacheHitsOnRepeatedReads) {
  std::string path = TempPath("aql_storage_hits.nc");
  WriteGrid(path, 16, 16);
  ScopedEnv tile("AQL_TILE_BYTES", "1024");

  TileStore store(/*max_bytes=*/1 << 20);
  auto slab = store.OpenSlab(path, "v", {0, 0}, {16, 16});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(16 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {16, 16}, out.data()).ok());
  uint64_t misses_after_first = store.stats().misses;
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {16, 16}, out.data()).ok());
  TileStoreStats s = store.stats();
  EXPECT_EQ(s.misses, misses_after_first) << "second scan must be all hits";
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);
  std::remove(path.c_str());
}

TEST(TileStore, ConstantTilesRefillFromZoneMapWithoutIo) {
  std::string path = TempPath("aql_storage_zone.nc");
  netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", 32);
  uint32_t c = w.AddDim("col", 16);
  // All elements identical: every tile's zone map is constant.
  w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::vector<double>(32 * 16, 2.5));
  ASSERT_TRUE(w.WriteFile(path).ok());
  ScopedEnv tile("AQL_TILE_BYTES", "512");  // 8 tiles of 4 rows

  // Budget of one tile (576 bytes with entry overhead): each new tile
  // evicts the previous one, but the last one scanned stays resident.
  TileStore store(/*max_bytes=*/1000);
  auto slab = store.OpenSlab(path, "v", {0, 0}, {32, 16});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(32 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {32, 16}, out.data()).ok());
  uint64_t misses_cold = store.stats().misses;
  EXPECT_EQ(store.stats().zone_fills, 0u);

  // Every tile was evicted except the last, but all zones are known
  // constant: the second scan refills from zone maps, not the file.
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {32, 16}, out.data()).ok());
  TileStoreStats s = store.stats();
  EXPECT_EQ(s.misses, misses_cold) << "refills must not count as misses";
  EXPECT_GT(s.zone_fills, 0u);
  for (double d : out) EXPECT_EQ(d, 2.5);
  std::remove(path.c_str());
}

TEST(TileStore, RewrittenFileInvalidatesDataset) {
  std::string path = TempPath("aql_storage_stale.nc");
  WriteGrid(path, 8, 8);
  ScopedEnv tile("AQL_TILE_BYTES", "512");

  TileStore store;
  auto slab1 = store.OpenSlab(path, "v", {0, 0}, {8, 8});
  ASSERT_TRUE(slab1.ok());
  auto first = (*slab1)->AtFlat(0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0.0);

  // Rewrite with different contents (and different size via extra var so
  // staleness triggers even on filesystems with coarse mtime).
  netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", 8);
  uint32_t c = w.AddDim("col", 8);
  w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::vector<double>(64, 7.0));
  w.AddVar("pad", netcdf::NcType::kDouble, {r}, std::vector<double>(8, 0.0));
  ASSERT_TRUE(w.WriteFile(path).ok());

  auto slab2 = store.OpenSlab(path, "v", {0, 0}, {8, 8});
  ASSERT_TRUE(slab2.ok()) << slab2.status().ToString();
  auto fresh = (*slab2)->AtFlat(0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 7.0);
  std::remove(path.c_str());
}

TEST(TileStore, OversizeTileServedUncached) {
  std::string path = TempPath("aql_storage_oversize.nc");
  WriteGrid(path, 8, 8);
  // One giant tile per file, but a budget smaller than the tile: the
  // store must serve reads without ever caching (or exceeding budget).
  ScopedEnv tile("AQL_TILE_BYTES", "1048576");
  TileStore store(/*max_bytes=*/128);
  auto slab = store.OpenSlab(path, "v", {0, 0}, {8, 8});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(64);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {8, 8}, out.data()).ok());
  EXPECT_EQ(out[9], 1001.0);
  TileStoreStats s = store.stats();
  EXPECT_LE(s.bytes, 128u);
  EXPECT_EQ(s.entries, 0u);
  std::remove(path.c_str());
}

TEST(TileStore, ConcurrentReadersAgreeUnderTinyBudget) {
  std::string path = TempPath("aql_storage_conc.nc");
  WriteGrid(path, 64, 16);
  ScopedEnv tile("AQL_TILE_BYTES", "512");

  TileStore store(/*max_bytes=*/1024);  // 2 tiles: constant churn
  auto slab = store.OpenSlab(path, "v", {0, 0}, {64, 16});
  ASSERT_TRUE(slab.ok());

  std::vector<double> expect(64 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {64, 16}, expect.data()).ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int iter = 0; iter < 40; ++iter) {
        uint64_t r0 = rng() % 64;
        std::vector<uint64_t> start{r0, 0};
        std::vector<uint64_t> count{1 + rng() % (64 - r0), 16};
        std::vector<double> got(count[0] * 16);
        if (!(*slab)->ReadInto(start, count, got.data()).ok()) {
          ++failures[t];
          continue;
        }
        for (uint64_t i = 0; i < got.size(); ++i) {
          if (got[i] != expect[r0 * 16 + i]) ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  EXPECT_LE(store.stats().bytes, 1024u);
  std::remove(path.c_str());
}

// ---- end-to-end through the System ----

TEST(OutOfCore, TabSumBitIdenticalToRamPathUnderTinyBudget) {
  std::string path = TempPath("aql_storage_e2e.nc");
  WriteGrid(path, 256, 32);  // 64 KiB of doubles

  std::string read_stmt = "readval \\S using NETCDF2 at (\"" + path +
                          "\", \"v\", (0, 0), (255, 31));";
  std::string query =
      "summap(fn \\k => summap(fn \\l => S[k, l] * 2.0)!(gen!32))!(gen!256);";

  Value tiled_sum, eager_sum;
  {
    // Tiled: 4 KiB tiles, 8 KiB budget — the 64 KiB dataset cannot fit.
    ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
    ScopedEnv tb("AQL_TILE_BYTES", "4096");
    ScopedEnv budget("AQL_TILE_CACHE_BYTES", "8192");
    TileStore::Global().Clear();
    System sys;
    auto rd = sys.Run(read_stmt);
    ASSERT_TRUE(rd.ok()) << rd.status().ToString();
    ASSERT_TRUE(rd->back().value.kind() == ValueKind::kArray);
    EXPECT_EQ(rd->back().value.array().payload, ArrayRep::Payload::kTiled)
        << "read must stay out-of-core under the 1-element threshold";
    auto q = sys.Run(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    tiled_sum = q->back().value;
    TileStoreStats s = TileStore::Global().stats();
    EXPECT_LE(s.bytes, 8192u) << "cache must respect the byte budget";
    EXPECT_GT(s.misses, 0u);
  }
  {
    // A threshold above the 64 KiB slab keeps the read eager.
    ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1048576");
    System sys;
    auto rd = sys.Run(read_stmt);
    ASSERT_TRUE(rd.ok()) << rd.status().ToString();
    EXPECT_EQ(rd->back().value.array().payload, ArrayRep::Payload::kReals)
        << "the control run must take the eager RAM path";
    auto q = sys.Run(query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    eager_sum = q->back().value;
  }
  EXPECT_EQ(tiled_sum, eager_sum) << "out-of-core result must be bit-identical";
  std::remove(path.c_str());
}

TEST(OutOfCore, SubslabPushdownSkipsUntouchedTiles) {
  std::string path = TempPath("aql_storage_pushdown.nc");
  WriteGrid(path, 256, 32);
  std::string read_stmt = "readval \\S using NETCDF2 at (\"" + path +
                          "\", \"v\", (0, 0), (255, 31));";
  // A small window: rows [8, 12), all columns shifted by 4.
  std::string window = "[[ S[i + 8, j + 4] | \\i < 4, \\j < 8 ]]";

  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "4096");  // 16 rows per tile -> 16 tiles

  Value with_pd, without_pd;
  uint64_t misses_with = 0, misses_without = 0;
  uint64_t pd_before = exec::GlobalExecStats().tab_pushdowns.load();
  {
    TileStore::Global().Clear();
    // optimize=false keeps the literal tab intact so the backend (not the
    // constant folder) evaluates it.
    SystemConfig cfg;
    cfg.optimize = false;
    System sys(cfg);
    ASSERT_TRUE(sys.Run(read_stmt).ok());
    auto compiled = sys.Compile(window);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ExecScope pd(nullptr, Pushdown(true));
    auto v = sys.EvalCoreCompiled(*compiled);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    with_pd = *v;
    misses_with = TileStore::Global().stats().misses;
  }
  uint64_t pd_after = exec::GlobalExecStats().tab_pushdowns.load();
  EXPECT_GT(pd_after, pd_before) << "the window tab must take the pushdown path";
  {
    TileStore::Global().Clear();
    SystemConfig cfg;
    cfg.optimize = false;
    System sys(cfg);
    ASSERT_TRUE(sys.Run(read_stmt).ok());
    auto compiled = sys.Compile(window);
    ASSERT_TRUE(compiled.ok());
    ExecScope pd(nullptr, Pushdown(false));
    auto v = sys.EvalCoreCompiled(*compiled);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    without_pd = *v;
    misses_without = TileStore::Global().stats().misses;
  }
  EXPECT_EQ(with_pd, without_pd);
  // The window touches one 16-row tile; the generic path gathers
  // point-wise through the same tiles, so both read >= 1, but the
  // pushdown must not read MORE tiles than the generic path, and both
  // must read far fewer than the 16-tile full materialization.
  EXPECT_LE(misses_with, misses_without);
  EXPECT_LT(misses_with, 16u) << "pushdown must not materialize the base";
  // The expected values, independently.
  const auto& arr = with_pd.array();
  ASSERT_EQ(arr.dims, (std::vector<uint64_t>{4, 8}));
  for (uint64_t i = 0; i < 4; ++i) {
    for (uint64_t j = 0; j < 8; ++j) {
      EXPECT_EQ(arr.At(i * 8 + j), Value::Real(double((i + 8) * 1000 + j + 4)));
    }
  }
  std::remove(path.c_str());
}

// ---- static plan facts over tiled data ----

TEST(OutOfCore, PlanFactsOverTiledWindowReadNoTiles) {
  // The bounds summary names the array of each subscript. Over a tiled
  // literal it must print the shape, not render (and so read) every tile.
  std::string path = TempPath("aql_storage_facts.nc");
  WriteGrid(path, 64, 16);
  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "512");  // 4 rows per tile -> 16 tiles
  TileStore::Global().Clear();
  System sys;
  auto rd = sys.Run("readval \\S using NETCDF2 at (\"" + path +
                    "\", \"v\", (0, 0), (63, 15));");
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  ASSERT_EQ(rd->back().value.array().payload, ArrayRep::Payload::kTiled);

  const std::string window = "[[ S[i + 8, j + 4] | \\i < 4, \\j < 4 ]]";
  const TileStoreStats before = TileStore::Global().stats();
  auto lint = sys.Lint(window);
  auto verify = sys.VerifyReport(window);
  const TileStoreStats after = TileStore::Global().stats();
  ASSERT_TRUE(lint.ok()) << lint.status().ToString();
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses)
      << "plan facts must not read tiles";
  EXPECT_NE(lint->find("<array 64 16>"), std::string::npos) << *lint;
  EXPECT_NE(verify->find("<array 64 16>"), std::string::npos) << *verify;
  std::remove(path.c_str());
}

TEST(OutOfCore, ExplainOverTiledWindowReadsNoTiles) {
  // :explain prints the optimized plan. Over a tiled literal the plan
  // line must show the shape, not render (and so read) every tile.
  std::string path = TempPath("aql_storage_explain.nc");
  WriteGrid(path, 64, 16);
  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "512");  // 4 rows per tile -> 16 tiles
  TileStore::Global().Clear();
  System sys;
  auto rd = sys.Run("readval \\S using NETCDF2 at (\"" + path +
                    "\", \"v\", (0, 0), (63, 15));");
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  ASSERT_EQ(rd->back().value.array().payload, ArrayRep::Payload::kTiled);

  const TileStoreStats before = TileStore::Global().stats();
  auto explain = sys.Explain("[[ S[i + 8, j + 4] | \\i < 4, \\j < 4 ]]");
  const TileStoreStats after = TileStore::Global().stats();
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses)
      << ":explain must not read tiles";
  EXPECT_NE(explain->find("plan            : [[ <array 64 16>[(i + 8, j + 4)]"),
            std::string::npos)
      << *explain;
  std::remove(path.c_str());
}

// ---- zone-map min/max (the pruning metadata) ----

TEST(TileStore, ZoneRowRunReportsTileBounds) {
  std::string path = TempPath("aql_storage_zonebounds.nc");
  WriteGrid(path, 32, 8);
  ScopedEnv tile("AQL_TILE_BYTES", "512");  // 8 rows of 8 doubles per tile

  TileStore store;
  auto slab = store.OpenSlab(path, "v", {0, 0}, {32, 8});
  ASSERT_TRUE(slab.ok());

  double mn = 0, mx = 0;
  bool constant = true;
  // Zones exist only after a tile has loaded at least once.
  EXPECT_EQ((*slab)->ZoneRowRun(0, &mn, &mx, &constant), 0u);

  std::vector<double> out(32 * 8);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {32, 8}, out.data()).ok());

  // Tile 0 covers rows [0, 8): min is (0,0)=0, max is (7,7)=7007.
  ASSERT_EQ((*slab)->ZoneRowRun(0, &mn, &mx, &constant), 8u);
  EXPECT_EQ(mn, 0.0);
  EXPECT_EQ(mx, 7007.0);
  EXPECT_FALSE(constant);
  // Mid-tile: the run is what remains of the tile.
  EXPECT_EQ((*slab)->ZoneRowRun(5, &mn, &mx, &constant), 3u);
  // Tile 2 covers rows [16, 24).
  ASSERT_EQ((*slab)->ZoneRowRun(16, &mn, &mx, &constant), 8u);
  EXPECT_EQ(mn, 16000.0);
  EXPECT_EQ(mx, 23007.0);
  // Past the end: nothing.
  EXPECT_EQ((*slab)->ZoneRowRun(32, &mn, &mx, &constant), 0u);
  // The grid is not constant anywhere, so no constant-run prune.
  double c = 0;
  EXPECT_EQ((*slab)->ConstantRowRun(0, &c), 0u);
  EXPECT_EQ(store.stats().prunes, 0u);
  std::remove(path.c_str());
}

TEST(TileStore, ZoneRowRunSurvivesEviction) {
  std::string path = TempPath("aql_storage_zoneevict.nc");
  WriteGrid(path, 32, 16);
  ScopedEnv tile("AQL_TILE_BYTES", "512");  // 4 rows per tile, 8 tiles

  // Budget of ~1 tile: the full scan evicts everything but the last tile,
  // yet every tile's zone map stays behind on the dataset.
  TileStore store(/*max_bytes=*/1000);
  auto slab = store.OpenSlab(path, "v", {0, 0}, {32, 16});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(32 * 16);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {32, 16}, out.data()).ok());
  ASSERT_GT(store.stats().evictions, 0u);

  double mn = 0, mx = 0;
  bool constant = true;
  ASSERT_EQ((*slab)->ZoneRowRun(0, &mn, &mx, &constant), 4u)
      << "zones must survive tile eviction";
  EXPECT_EQ(mn, 0.0);
  EXPECT_EQ(mx, 3015.0);  // (3, 15)
  ASSERT_EQ((*slab)->ZoneRowRun(28, &mn, &mx, &constant), 4u);
  EXPECT_EQ(mx, 31015.0);
  std::remove(path.c_str());
}

TEST(TileStore, NaNPoisonsZoneBoundsButNotBitwiseConstancy) {
  std::string path = TempPath("aql_storage_zonenan.nc");
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // 24 x 8, three 8-row tiles under 512-byte tiles:
  //   tile 0: rows 0..7 varied, with one NaN at (1, 1)
  //   tile 1: rows 8..15 constant 2.5
  //   tile 2: rows 16..23 all the SAME NaN bit pattern
  std::vector<double> data(24 * 8);
  for (uint64_t i = 0; i < 24; ++i) {
    for (uint64_t j = 0; j < 8; ++j) {
      data[i * 8 + j] = i < 8 ? double(i * 1000 + j) : (i < 16 ? 2.5 : qnan);
    }
  }
  data[1 * 8 + 1] = qnan;
  netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", 24);
  uint32_t c = w.AddDim("col", 8);
  w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::move(data));
  ASSERT_TRUE(w.WriteFile(path).ok());
  ScopedEnv tile("AQL_TILE_BYTES", "512");

  TileStore store;
  auto slab = store.OpenSlab(path, "v", {0, 0}, {24, 8});
  ASSERT_TRUE(slab.ok());
  std::vector<double> out(24 * 8);
  ASSERT_TRUE((*slab)->ReadInto({0, 0}, {24, 8}, out.data()).ok());

  double mn = 0, mx = 0, cv = 0;
  bool constant = false;
  // Tile 0: one NaN poisons the bounds — ordered min/max would silently
  // exclude it, so the slab must report "unknown" rather than bounds.
  EXPECT_EQ((*slab)->ZoneRowRun(0, &mn, &mx, &constant), 0u);
  EXPECT_EQ((*slab)->ConstantRowRun(0, &cv), 0u);
  // Tile 1: clean constant — bounds and constant-run both answer.
  ASSERT_EQ((*slab)->ZoneRowRun(8, &mn, &mx, &constant), 8u);
  EXPECT_EQ(mn, 2.5);
  EXPECT_EQ(mx, 2.5);
  EXPECT_TRUE(constant);
  uint64_t prunes_before = store.stats().prunes;
  ASSERT_EQ((*slab)->ConstantRowRun(8, &cv), 8u);
  EXPECT_EQ(cv, 2.5);
  EXPECT_GT(store.stats().prunes, prunes_before);
  // Tile 2: bitwise-constant NaN. The zone knows it is constant (the
  // store's constant REFILL is bitwise and stays exact) but the pruning
  // hooks refuse it: no bounds, no constant-run.
  EXPECT_EQ((*slab)->ZoneRowRun(16, &mn, &mx, &constant), 0u);
  EXPECT_EQ((*slab)->ConstantRowRun(16, &cv), 0u);
  std::remove(path.c_str());
}

// ---- directed pushdown regressions: commuted, bare, strided indices ----

TEST(OutOfCore, PushdownMatchesCommutedBareAndStridedIndices) {
  std::string path = TempPath("aql_storage_pdforms.nc");
  WriteGrid(path, 64, 16);
  std::string read_stmt = "readval \\S using NETCDF2 at (\"" + path +
                          "\", \"v\", (0, 0), (63, 15));";
  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "2048");  // 16 rows per tile

  struct Case {
    const char* window;
    // expected element at output (i, j)
    uint64_t (*at)(uint64_t, uint64_t);
    // expected proof certificate (what `:explain` prints)
    const char* proof;
  };
  const Case cases[] = {
      // Commuted offset: lo + i instead of i + lo.
      {"[[ S[8 + i, j] | \\i < 4, \\j < 8 ]]",
       [](uint64_t i, uint64_t j) { return (i + 8) * 1000 + j; },
       "subslab-pushdown @ tab over <array 64 16>\n"
       "  - dim 0: index = 8 + 1*i (affine in i)\n"
       "  - dim 1: index = 0 + 1*j (affine in j)\n"},
      // Bare binder: no offset at all.
      {"[[ S[i, j] | \\i < 4, \\j < 8 ]]",
       [](uint64_t i, uint64_t j) { return i * 1000 + j; },
       "subslab-pushdown @ tab over <array 64 16>\n"
       "  - dim 0: index = 0 + 1*i (affine in i)\n"
       "  - dim 1: index = 0 + 1*j (affine in j)\n"},
      // Strided: 2*i + 8 sweeps rows 8, 10, ..., 14.
      {"[[ S[2 * i + 8, j] | \\i < 4, \\j < 8 ]]",
       [](uint64_t i, uint64_t j) { return (2 * i + 8) * 1000 + j; },
       "strided-pushdown @ tab over <array 64 16>\n"
       "  - dim 0: index = 8 + 2*i (affine in i)\n"
       "  - dim 1: index = 0 + 1*j (affine in j)\n"},
      // Stride on the trailing axis too.
      {"[[ S[i + 8, 2 * j] | \\i < 4, \\j < 8 ]]",
       [](uint64_t i, uint64_t j) { return (i + 8) * 1000 + 2 * j; },
       "strided-pushdown @ tab over <array 64 16>\n"
       "  - dim 0: index = 8 + 1*i (affine in i)\n"
       "  - dim 1: index = 0 + 2*j (affine in j)\n"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.window);
    Value with_pd, without_pd;
    uint64_t pd_before = exec::GlobalExecStats().tab_pushdowns.load();
    {
      TileStore::Global().Clear();
      SystemConfig cfg;
      cfg.optimize = false;
      System sys(cfg);
      ASSERT_TRUE(sys.Run(read_stmt).ok());
      auto compiled = sys.Compile(c.window);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      auto program = exec::Compile(*compiled, sys.PrimitiveResolver());
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      EXPECT_EQ(program->proof().ToString(), c.proof);
      ExecScope pd(nullptr, Pushdown(true));
      auto v = sys.EvalCoreCompiled(*compiled);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      with_pd = *v;
    }
    EXPECT_GT(exec::GlobalExecStats().tab_pushdowns.load(), pd_before)
        << "window must compile to a pushdown";
    {
      TileStore::Global().Clear();
      SystemConfig cfg;
      cfg.optimize = false;
      System sys(cfg);
      ASSERT_TRUE(sys.Run(read_stmt).ok());
      auto compiled = sys.Compile(c.window);
      ASSERT_TRUE(compiled.ok());
      ExecScope pd(nullptr, Pushdown(false));
      auto v = sys.EvalCoreCompiled(*compiled);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      without_pd = *v;
    }
    EXPECT_EQ(with_pd, without_pd) << "pushdown must be bit-identical";
    const auto& arr = with_pd.array();
    ASSERT_EQ(arr.dims, (std::vector<uint64_t>{4, 8}));
    for (uint64_t i = 0; i < 4; ++i) {
      for (uint64_t j = 0; j < 8; ++j) {
        EXPECT_EQ(arr.At(i * 8 + j), Value::Real(double(c.at(i, j))))
            << "(" << i << ", " << j << ")";
      }
    }
  }
  std::remove(path.c_str());
}

// ---- aggregate pruning over zone maps ----

TEST(OutOfCore, PrunedAggregateSkipsConstantTiles) {
  std::string path = TempPath("aql_storage_prune.nc");
  // 64 x 16: rows [0, 48) constant 1.5 (three 16-row tiles under 2 KiB
  // tiles), rows [48, 64) varied (one tile).
  std::vector<double> data(64 * 16);
  for (uint64_t i = 0; i < 64; ++i) {
    for (uint64_t j = 0; j < 16; ++j) {
      data[i * 16 + j] = i < 48 ? 1.5 : double(i * 1000 + j);
    }
  }
  netcdf::NcWriter w(1);
  uint32_t r = w.AddDim("row", 64);
  uint32_t c = w.AddDim("col", 16);
  w.AddVar("v", netcdf::NcType::kDouble, {r, c}, std::move(data));
  ASSERT_TRUE(w.WriteFile(path).ok());

  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "2048");
  TileStore::Global().Clear();

  SystemConfig cfg;
  cfg.optimize = false;
  System sys(cfg);
  auto rd = sys.Run("readval \\S using NETCDF2 at (\"" + path +
                    "\", \"v\", (0, 0), (63, 15));");
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  const Value& tiled = rd->back().value;
  ASSERT_EQ(tiled.array().payload, ArrayRep::Payload::kTiled);

  // sum k < 64. sum l < 16. S[k, l] — built directly in core form (the
  // exact nest TryMatchSumPushdown targets).
  ExprPtr body = Expr::Subscript(
      Expr::Literal(tiled), Expr::Tuple({Expr::Var("k"), Expr::Var("l")}));
  ExprPtr nest = Expr::Sum(
      "k", Expr::Sum("l", std::move(body), Expr::Gen(Expr::NatConst(16))),
      Expr::Gen(Expr::NatConst(64)));
  auto program = exec::Compile(nest, sys.PrimitiveResolver());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->proof().ToString(),
            "aggregate-prune @ sum over <array 64 16>\n"
            "  - dim 0: k + 0 sweeps [0, 63] inside extent 64\n"
            "  - dim 1: l + 0 sweeps [0, 15] inside extent 16\n");

  // First run: zones are cold, the fold reads every row (and warms them).
  Value first, second, generic;
  {
    ExecScope pd(nullptr, Pushdown(true));
    auto v1 = program->Run();
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    first = *v1;
    // Second run: the three constant tiles answer from their zone maps.
    uint64_t prunes_before = TileStore::Global().stats().prunes;
    auto v2 = program->Run();
    ASSERT_TRUE(v2.ok());
    second = *v2;
    EXPECT_GT(TileStore::Global().stats().prunes, prunes_before)
        << "constant tiles must be answered from zone maps";
  }
  {
    ExecScope pd(nullptr, Pushdown(false));
    auto v = program->Run();
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    generic = *v;
  }
  EXPECT_EQ(first, generic) << "cold pruned fold must be bit-identical";
  EXPECT_EQ(second, generic) << "warm pruned fold must be bit-identical";
  // And the value is right, independently.
  double expect = 48.0 * 16 * 1.5;
  for (uint64_t i = 48; i < 64; ++i) {
    double row = 0;
    for (uint64_t j = 0; j < 16; ++j) row += double(i * 1000 + j);
    expect += row;
  }
  EXPECT_EQ(first, Value::Real(expect));
  std::remove(path.c_str());
}

TEST(OutOfCore, WritevalRoundTripsTiledArrays) {
  std::string path = TempPath("aql_storage_wv_in.nc");
  std::string out_path = TempPath("aql_storage_wv_out.nc");
  WriteGrid(path, 64, 16);
  ScopedEnv thr("AQL_TILED_READ_THRESHOLD", "1");
  ScopedEnv tb("AQL_TILE_BYTES", "512");
  TileStore::Global().Clear();

  System sys;
  ASSERT_TRUE(sys.init_status().ok());
  auto rd = sys.Run("readval \\S using NETCDF2 at (\"" + path +
                    "\", \"v\", (0, 0), (63, 15));");
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  ASSERT_EQ(rd->back().value.array().payload, ArrayRep::Payload::kTiled);
  auto wr = sys.Run("writeval S using NETCDF at (\"" + out_path + "\", \"v\");");
  ASSERT_TRUE(wr.ok()) << wr.status().ToString();

  // Read the copy back eagerly and compare raw element order.
  auto reader = netcdf::NcReader::OpenFile(out_path);
  ASSERT_TRUE(reader.ok());
  auto all = reader->ReadAll(reader->header().FindVar("v"));
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 64u * 16);
  for (uint64_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i], double((i / 16) * 1000 + i % 16));
  }
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace aql
