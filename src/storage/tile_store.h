// Out-of-core tiled array storage (the chunked storage manager of the
// Rusu & Cheng survey, sized for the paper's §4.1 NetCDF workloads).
//
// A TileStore serves fixed-shape tiles of NetCDF-backed variables through
// a byte-bounded LRU cache, so datasets larger than memory stream through
// tab/sum pipelines tile-by-tile instead of being slurped into one flat
// buffer. Tiles split the LEADING dimension only: each tile is a
// contiguous row-major range of the variable, which (a) makes every tile
// one coalesced pread range, (b) keeps global row-major element order —
// results stay bit-identical to the RAM-resident path — and (c) composes
// naturally with exec::ParallelFor's contiguous chunking.
//
// Every tile carries a zone map (min / max / constant-value summary;
// defined-count is the tile volume by construction since NetCDF slabs
// decode every cell — the invariant absint's Definedness domain leans on
// when it treats tiled literals as ⊥-free). Zone maps survive eviction:
// a constant tile refills from its zone entry without touching the file
// (storage.tile.zone_fills), and min/max are ready for aggregate-range
// pruning.
//
// Concurrency: one Mutex at lock_rank::kTileCache guards the maps, the
// LRU list and the stats; file I/O and decoding always run unlocked, so
// concurrent loads of different tiles overlap. Two threads missing on the
// same tile may both read it (the second insert adopts the first's
// buffer); that duplicate read is accepted in exchange for never holding
// the lock across I/O.
//
// Knobs (re-read per OpenSlab, never while tiles are read; strict parse
// via base/env.h):
//   AQL_TILE_CACHE_BYTES  cache budget in bytes       (default 256 MiB)
//   AQL_TILE_BYTES        target tile size in bytes   (default   1 MiB)

#ifndef AQL_STORAGE_TILE_STORE_H_
#define AQL_STORAGE_TILE_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/sync.h"
#include "object/value.h"

namespace aql {
namespace storage {

// Snapshot of the cache counters (surfaced as storage.tile.* in :stats,
// /stats and /metrics).
struct TileStoreStats {
  uint64_t hits = 0;        // tile served from cache
  uint64_t misses = 0;      // tile loaded from the file
  uint64_t evictions = 0;   // tiles evicted to stay under budget
  uint64_t zone_fills = 0;  // constant tiles refilled from the zone map, no I/O
  uint64_t prunes = 0;      // aggregate reads answered from a zone map, no tile
  uint64_t read_errors = 0; // tile loads that failed (I/O or format)
  uint64_t bytes = 0;       // resident tile bytes (≤ budget)
  uint64_t entries = 0;     // resident tile count
  uint64_t datasets = 0;    // open datasets
};

// Per-tile summary, kept (small) even after the tile's data is evicted.
struct ZoneMap {
  double min = 0;
  double max = 0;
  bool constant = false;    // every element bit-identical (NaN-safe)
  uint64_t constant_bits = 0;  // the repeated double's bit pattern
};

class TileStore {
 public:
  // max_bytes == 0 reads AQL_TILE_CACHE_BYTES on every OpenSlab, so tests
  // can shrink the budget mid-process; a nonzero value pins it.
  explicit TileStore(uint64_t max_bytes = 0);
  ~TileStore();

  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  // The process-wide store used by the NETCDF read drivers.
  static TileStore& Global();

  // Opens (or reuses) the tiled dataset for `var` of the classic-format
  // NetCDF file at `path` and returns a lazy slab over the region
  // [lower[j], lower[j]+count[j]) per dimension. Datasets are keyed by
  // (path, var, file size, mtime): rewriting the file invalidates the
  // old dataset and purges its tiles on the next open.
  Result<std::shared_ptr<const LazyRealSlab>> OpenSlab(
      const std::string& path, const std::string& var,
      const std::vector<uint64_t>& lower, const std::vector<uint64_t>& count);

  TileStoreStats stats() const;

  // Drops every dataset, tile and zone map and zeroes the stats.
  void Clear();

  // Effective cache budget right now (pinned value or the env knob).
  uint64_t Budget() const;

 private:
  friend class TiledSlab;
  struct Dataset;
  struct TileKey {
    uint64_t dataset_id;
    uint64_t tile_index;
    bool operator==(const TileKey& o) const {
      return dataset_id == o.dataset_id && tile_index == o.tile_index;
    }
  };
  struct TileKeyHash {
    size_t operator()(const TileKey& k) const {
      return std::hash<uint64_t>()(k.dataset_id * 0x9e3779b97f4a7c15ull ^ k.tile_index);
    }
  };
  struct Entry {
    std::shared_ptr<const std::vector<double>> data;
    uint64_t bytes = 0;
    std::list<TileKey>::iterator lru;  // position in lru_ (front = hottest)
  };

  // Returns the tile's decoded (scale/offset applied) buffer, loading and
  // caching it on a miss. Thread-safe; never holds mu_ across I/O.
  Result<std::shared_ptr<const std::vector<double>>> GetTile(
      const std::shared_ptr<const Dataset>& ds, uint64_t tile_index);

  // Inserts a loaded tile (or adopts a concurrently inserted one) and
  // evicts LRU entries until bytes_ fits the budget.
  std::shared_ptr<const std::vector<double>> InsertTile(
      const TileKey& key, std::shared_ptr<const std::vector<double>> data)
      AQL_REQUIRES(mu_);

  // Zone lookup for aggregate pruning: fills `zone` for the tile holding
  // global row `row` and returns the number of rows from `row` through the
  // end of that tile; 0 when no zone entry exists yet (tile never loaded).
  // No I/O, one short critical section.
  uint64_t ZoneRun(const std::shared_ptr<const Dataset>& ds, uint64_t row,
                   ZoneMap* zone);

  // Records one zone-answered aggregate read (storage.tile.prunes).
  void CountPrune();

  const uint64_t max_bytes_;

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Dataset>> datasets_
      AQL_GUARDED_BY(mu_);
  std::unordered_map<TileKey, Entry, TileKeyHash> tiles_ AQL_GUARDED_BY(mu_);
  std::list<TileKey> lru_ AQL_GUARDED_BY(mu_);
  uint64_t bytes_ AQL_GUARDED_BY(mu_) = 0;
  uint64_t budget_ AQL_GUARDED_BY(mu_) = 0;  // Budget() at the last OpenSlab
  TileStoreStats stats_ AQL_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace aql

#endif  // AQL_STORAGE_TILE_STORE_H_
