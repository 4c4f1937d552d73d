#include "storage/tile_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "base/env.h"
#include "base/strings.h"
#include "exec/parallel.h"
#include "netcdf/reader.h"
#include "obs/trace.h"

namespace aql {
namespace storage {

namespace {

constexpr uint64_t kDefaultCacheBytes = 256ull << 20;
constexpr uint64_t kDefaultTileBytes = 1ull << 20;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h;
}

uint64_t HashBytes(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

std::atomic<uint64_t> g_next_dataset_id{1};

}  // namespace

// One open (path, variable) pair with fixed tile geometry. Immutable after
// construction except for `zones`, which the owning TileStore mutates
// under its mutex.
struct TileStore::Dataset {
  uint64_t id = 0;  // process-unique, never reused (safe memo/tile keys)
  std::string path;
  std::string var_name;
  int var_index = -1;
  netcdf::NcReader reader;
  std::vector<uint64_t> shape;
  double scale = 1.0, offset = 0.0;  // CF packing, baked into tile decode
  uint64_t rows_per_tile = 1;        // leading-dimension rows per tile
  uint64_t row_elems = 1;            // product(shape[1..])
  uint64_t tile_count = 0;
  uint64_t file_size = 0;
  uint64_t mtime_ns = 0;
  mutable std::unordered_map<uint64_t, ZoneMap> zones;  // guarded by store mu_

  Dataset(netcdf::NcReader r) : reader(std::move(r)) {}

  uint64_t FirstRow(uint64_t tile) const { return tile * rows_per_tile; }
  uint64_t RowsInTile(uint64_t tile) const {
    return std::min(rows_per_tile, shape[0] - FirstRow(tile));
  }
};

namespace {

Status StatFile(const std::string& path, uint64_t* size, uint64_t* mtime_ns) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IoError(StrCat("cannot stat ", path));
  }
  *size = uint64_t(st.st_size);
  *mtime_ns = uint64_t(st.st_mtim.tv_sec) * 1000000000ull + uint64_t(st.st_mtim.tv_nsec);
  return Status::OK();
}

}  // namespace

// The lazy slab handed to the rest of the system: a rectangular view
// [lower, lower+dims) of a tiled dataset. Bulk reads go tile-by-tile
// (parallel over leading rows); point reads keep a per-thread tile memo so
// element loops pay one cache probe per tile boundary, not per element —
// this IS the tile-granular iteration mode of the exec loops, since their
// subscript evaluation lands here.
class TiledSlab : public LazyRealSlab {
 public:
  TiledSlab(TileStore* store, std::shared_ptr<const TileStore::Dataset> ds,
            std::vector<uint64_t> lower, std::vector<uint64_t> dims)
      : store_(store), ds_(std::move(ds)), lower_(std::move(lower)),
        dims_(std::move(dims)) {
    const size_t k = dims_.size();
    tail_stride_.assign(k, 1);
    for (size_t j = k - 1; j-- > 0;) tail_stride_[j] = tail_stride_[j + 1] * ds_->shape[j + 1];
    // Content-stable provenance: (file identity, region), not dataset id,
    // so reopening the same file hashes the same (dataset ids change).
    uint64_t h = HashBytes(0xcbf29ce484222325ull, ds_->path);
    h = HashBytes(h, ds_->var_name);
    h = FnvMix(h, ds_->file_size);
    h = FnvMix(h, ds_->mtime_ns);
    for (size_t j = 0; j < k; ++j) h = FnvMix(FnvMix(h, lower_[j]), dims_[j]);
    hash_ = h;
  }

  const std::vector<uint64_t>& dims() const override { return dims_; }

  Status ReadInto(const std::vector<uint64_t>& start, const std::vector<uint64_t>& count,
                  double* out) const override {
    const size_t k = dims_.size();
    if (start.size() != k || count.size() != k) {
      return Status::InvalidArgument("tiled read rank mismatch");
    }
    uint64_t volume = 1;
    for (size_t j = 0; j < k; ++j) {
      if (start[j] > dims_[j] || count[j] > dims_[j] - start[j]) {
        return Status::InvalidArgument(
            StrCat("tiled read out of range on dimension ", j));
      }
      volume *= count[j];  // bounded by CheckedVolume at array construction
    }
    if (volume == 0) return Status::OK();

    obs::Span span("io", "storage.read_into");
    span.AddCount("elems", volume);

    const uint64_t out_row = volume / count[0];  // elements per leading row
    auto rows = [&](uint64_t begin, uint64_t end) -> Status {
      std::vector<uint64_t> abs_tail(k > 1 ? k - 1 : 0);
      for (uint64_t r = begin; r < end; ++r) {
        uint64_t g = lower_[0] + start[0] + r;  // global leading row
        uint64_t tile = g / ds_->rows_per_tile;
        AQL_ASSIGN_OR_RETURN(auto data, store_->GetTile(ds_, tile));
        const double* row_base =
            data->data() + (g - ds_->FirstRow(tile)) * ds_->row_elems;
        for (size_t j = 1; j < k; ++j) abs_tail[j - 1] = lower_[j] + start[j];
        CopyTail(row_base, abs_tail.data(), count.data() + 1, k - 1,
                 out + r * out_row);
      }
      return Status::OK();
    };
    if (exec::ShouldParallelize(volume)) {
      return exec::ParallelFor(count[0], rows);
    }
    return rows(0, count[0]);
  }

  Result<double> AtFlat(uint64_t flat) const override {
    const size_t k = dims_.size();
    // Unflatten over the view, shift into dataset coordinates.
    uint64_t tail_off = 0;  // offset within one leading row of the dataset
    uint64_t rem = flat;
    for (size_t j = k; j-- > 1;) {
      uint64_t coord = lower_[j] + rem % dims_[j];
      rem /= dims_[j];
      tail_off += coord * tail_stride_[j];
    }
    uint64_t g = lower_[0] + rem;  // global leading row
    uint64_t tile = g / ds_->rows_per_tile;

    // Per-thread memo: element-at-a-time loops (exec subscripts, the value
    // writers) touch the cache once per tile boundary per thread.
    struct Memo {
      uint64_t dataset_id = 0;  // 0 is never a real id
      uint64_t tile = 0;
      std::shared_ptr<const std::vector<double>> data;
    };
    static thread_local Memo memo;
    if (memo.dataset_id != ds_->id || memo.tile != tile) {
      AQL_ASSIGN_OR_RETURN(auto data, store_->GetTile(ds_, tile));
      memo = Memo{ds_->id, tile, std::move(data)};
    }
    return (*memo.data)[(g - ds_->FirstRow(tile)) * ds_->row_elems + tail_off];
  }

  uint64_t ProvenanceHash() const override { return hash_; }

  // Zone-map pruning hooks (object/value.h): answered from the dataset's
  // zone entries — populated as tiles load, surviving eviction — so a
  // repeated aggregate over a constant region does zero tile I/O. The
  // tile-wide constant covers any trailing-dimension sub-view; NaN
  // constants are refused (the caller's fold could not reproduce the
  // generic path's NaN payload bit-for-bit through comparisons).
  uint64_t ConstantRowRun(uint64_t row, double* value) const override {
    if (row >= dims_[0]) return 0;
    const uint64_t g = lower_[0] + row;
    ZoneMap zone;
    const uint64_t run = store_->ZoneRun(ds_, g, &zone);
    if (run == 0 || !zone.constant) return 0;
    double v;
    std::memcpy(&v, &zone.constant_bits, sizeof(v));
    if (std::isnan(v)) return 0;
    *value = v;
    store_->CountPrune();
    return std::min(run, dims_[0] - row);
  }

  // Conservative per-row bounds: the zone min/max cover the WHOLE tile,
  // so for a trailing-dimension sub-view they are outer bounds, which is
  // the direction range pruning needs. NaN-poisoned zones report unknown.
  uint64_t ZoneRowRun(uint64_t row, double* min, double* max,
                      bool* constant) const override {
    if (row >= dims_[0]) return 0;
    const uint64_t g = lower_[0] + row;
    ZoneMap zone;
    const uint64_t run = store_->ZoneRun(ds_, g, &zone);
    if (run == 0 || std::isnan(zone.min) || std::isnan(zone.max)) return 0;
    *min = zone.min;
    *max = zone.max;
    *constant = zone.constant;
    return std::min(run, dims_[0] - row);
  }

 private:
  // Copies the rectangular tail region (m = rank-1 trailing dimensions,
  // absolute coords abs_tail, extents cnt_tail) out of one dataset row.
  // Innermost dimension is contiguous, so the copy moves whole runs.
  void CopyTail(const double* row_base, const uint64_t* abs_tail,
                const uint64_t* cnt_tail, size_t m, double* out) const {
    if (m == 0) {
      *out = *row_base;
      return;
    }
    const uint64_t run = cnt_tail[m - 1];
    uint64_t rows = 1;
    for (size_t j = 0; j + 1 < m; ++j) rows *= cnt_tail[j];
    std::vector<uint64_t> idx(m, 0);
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t off = 0;
      for (size_t j = 0; j < m; ++j) off += (abs_tail[j] + idx[j]) * tail_stride_[j + 1];
      std::memcpy(out, row_base + off, run * sizeof(double));
      out += run;
      for (size_t j = m - 1; j-- > 0;) {  // odometer over the outer m-1 dims
        if (++idx[j] < cnt_tail[j]) break;
        idx[j] = 0;
      }
    }
  }

  TileStore* store_;
  std::shared_ptr<const TileStore::Dataset> ds_;
  std::vector<uint64_t> lower_;
  std::vector<uint64_t> dims_;
  std::vector<uint64_t> tail_stride_;  // dataset row-major strides
  uint64_t hash_ = 0;
};

TileStore::TileStore(uint64_t max_bytes)
    : max_bytes_(max_bytes), mu_("storage.tile_cache", lock_rank::kTileCache) {}

TileStore::~TileStore() = default;

TileStore& TileStore::Global() {
  static TileStore* store = new TileStore();  // leaked: outlives all queries
  return *store;
}

uint64_t TileStore::Budget() const {
  return max_bytes_ != 0 ? max_bytes_ : EnvU64("AQL_TILE_CACHE_BYTES", kDefaultCacheBytes);
}

Result<std::shared_ptr<const LazyRealSlab>> TileStore::OpenSlab(
    const std::string& path, const std::string& var,
    const std::vector<uint64_t>& lower, const std::vector<uint64_t>& count) {
  uint64_t size = 0, mtime_ns = 0;
  AQL_RETURN_IF_ERROR(StatFile(path, &size, &mtime_ns));
  const std::string key = StrCat(path, "\n", var);

  // Desired geometry under the current knob; a cached dataset with a
  // different tile shape (test flipped AQL_TILE_BYTES) must not be reused,
  // since tile indexes would alias.
  const uint64_t tile_bytes = std::max<uint64_t>(EnvU64("AQL_TILE_BYTES", kDefaultTileBytes),
                                                 sizeof(double));
  const uint64_t budget = Budget();

  std::shared_ptr<const Dataset> ds;
  {
    MutexLock lock(&mu_);
    budget_ = budget;
    auto it = datasets_.find(key);
    if (it != datasets_.end()) {
      const Dataset& d = *it->second;
      uint64_t want_rows = std::max<uint64_t>(
          1, std::min(d.shape[0], (tile_bytes / sizeof(double)) / std::max<uint64_t>(1, d.row_elems)));
      if (d.file_size == size && d.mtime_ns == mtime_ns && d.rows_per_tile == want_rows) {
        ds = it->second;
      }
    }
  }

  if (ds == nullptr) {
    // (Re)open outside the lock: header parsing is I/O.
    AQL_ASSIGN_OR_RETURN(netcdf::NcReader reader, netcdf::NcReader::OpenFile(path));
    int var_index = reader.header().FindVar(var);
    if (var_index < 0) {
      return Status::NotFound(StrCat("no variable ", var, " in ", path));
    }
    auto fresh = std::make_shared<Dataset>(std::move(reader));
    fresh->id = g_next_dataset_id.fetch_add(1, std::memory_order_relaxed);
    fresh->path = path;
    fresh->var_name = var;
    fresh->var_index = var_index;
    fresh->shape = fresh->reader.header().VarShape(fresh->reader.header().vars[var_index]);
    if (fresh->shape.empty() || fresh->shape[0] == 0) {
      return Status::InvalidArgument(
          StrCat("variable ", var, " has no tileable extent"));
    }
    for (const netcdf::NcAttr& attr : fresh->reader.header().vars[var_index].attrs) {
      if (attr.name == "scale_factor" && attr.numbers.size() == 1) {
        fresh->scale = attr.numbers[0];
      } else if (attr.name == "add_offset" && attr.numbers.size() == 1) {
        fresh->offset = attr.numbers[0];
      }
    }
    fresh->row_elems = 1;
    for (size_t j = 1; j < fresh->shape.size(); ++j) fresh->row_elems *= fresh->shape[j];
    if (fresh->row_elems == 0) {
      return Status::InvalidArgument(
          StrCat("variable ", var, " has a zero trailing extent"));
    }
    fresh->rows_per_tile = std::max<uint64_t>(
        1, std::min(fresh->shape[0], (tile_bytes / sizeof(double)) / fresh->row_elems));
    fresh->tile_count =
        (fresh->shape[0] + fresh->rows_per_tile - 1) / fresh->rows_per_tile;
    fresh->file_size = size;
    fresh->mtime_ns = mtime_ns;

    MutexLock lock(&mu_);
    auto it = datasets_.find(key);
    if (it != datasets_.end()) {
      const Dataset& d = *it->second;
      if (d.file_size == size && d.mtime_ns == mtime_ns &&
          d.rows_per_tile == fresh->rows_per_tile) {
        ds = it->second;  // lost the open race; adopt theirs
      } else {
        // Stale (rewritten file or re-tiled): purge its resident tiles so
        // a write-then-read flow never serves old bytes.
        uint64_t stale = d.id;
        for (auto t = tiles_.begin(); t != tiles_.end();) {
          if (t->first.dataset_id == stale) {
            bytes_ -= t->second.bytes;
            lru_.erase(t->second.lru);
            t = tiles_.erase(t);
          } else {
            ++t;
          }
        }
        datasets_.erase(it);
      }
    }
    if (ds == nullptr) {
      datasets_[key] = fresh;
      ds = fresh;
    }
  }

  // Validate the requested region against the variable shape.
  if (lower.size() != ds->shape.size() || count.size() != ds->shape.size()) {
    return Status::InvalidArgument(
        StrCat("slab rank ", lower.size(), " does not match variable ", var, " (rank ",
               ds->shape.size(), ")"));
  }
  for (size_t j = 0; j < ds->shape.size(); ++j) {
    if (lower[j] > ds->shape[j] || count[j] > ds->shape[j] - lower[j]) {
      return Status::InvalidArgument(
          StrCat("slab out of range on dimension ", j, " of ", var));
    }
  }
  return std::shared_ptr<const LazyRealSlab>(
      std::make_shared<TiledSlab>(this, ds, lower, count));
}

Result<std::shared_ptr<const std::vector<double>>> TileStore::GetTile(
    const std::shared_ptr<const Dataset>& ds, uint64_t tile_index) {
  const TileKey key{ds->id, tile_index};
  bool constant_refill = false;
  uint64_t constant_bits = 0;
  {
    MutexLock lock(&mu_);
    auto it = tiles_.find(key);
    if (it != tiles_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
      return it->second.data;
    }
    auto z = ds->zones.find(tile_index);
    if (z != ds->zones.end() && z->second.constant) {
      ++stats_.zone_fills;
      constant_refill = true;
      constant_bits = z->second.constant_bits;
    } else {
      ++stats_.misses;
    }
  }

  const uint64_t rows = ds->RowsInTile(tile_index);
  const uint64_t elems = rows * ds->row_elems;
  auto data = std::make_shared<std::vector<double>>(elems);

  if (constant_refill) {
    // The zone map proves every element of this tile is one bit pattern:
    // rebuild it without touching the file.
    double v;
    std::memcpy(&v, &constant_bits, sizeof(v));
    std::fill(data->begin(), data->end(), v);
    MutexLock lock(&mu_);
    return InsertTile(key, std::move(data));
  }

  obs::Span span("io", "storage.tile_load");
  span.AddCount("elems", elems);
  std::vector<uint64_t> start(ds->shape.size(), 0);
  start[0] = ds->FirstRow(tile_index);
  std::vector<uint64_t> cnt = ds->shape;
  cnt[0] = rows;
  Status read = ds->reader.ReadSlabInto(ds->var_index, start, cnt, data->data());
  if (!read.ok()) {
    MutexLock lock(&mu_);
    ++stats_.read_errors;
    return read;
  }
  // CF unpack inside tile decode — elementwise identical to the eager
  // reader's loop, which is what keeps results bit-identical.
  if (ds->scale != 1.0 || ds->offset != 0.0) {
    for (double& d : *data) d = d * ds->scale + ds->offset;
  }

  ZoneMap zone;
  uint64_t first_bits = 0;
  std::memcpy(&first_bits, data->data(), sizeof(first_bits));
  zone.min = (*data)[0];
  zone.max = (*data)[0];
  zone.constant = true;
  zone.constant_bits = first_bits;
  bool poisoned = false;
  for (double d : *data) {
    if (std::isnan(d)) poisoned = true;
    if (d < zone.min) zone.min = d;
    if (d > zone.max) zone.max = d;
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    if (bits != first_bits) zone.constant = false;
  }
  // A NaN anywhere in the tile poisons the bounds: ordered comparisons
  // ignore NaN, so min/max would silently exclude it and a range prune
  // would be unsound. (Constancy is bitwise, so constant refill is still
  // exact even for an all-NaN tile.)
  if (poisoned) {
    zone.min = std::numeric_limits<double>::quiet_NaN();
    zone.max = std::numeric_limits<double>::quiet_NaN();
  }

  MutexLock lock(&mu_);
  ds->zones[tile_index] = zone;
  return InsertTile(key, std::move(data));
}

std::shared_ptr<const std::vector<double>> TileStore::InsertTile(
    const TileKey& key, std::shared_ptr<const std::vector<double>> data) {
  auto it = tiles_.find(key);
  if (it != tiles_.end()) {
    // A concurrent load beat us; adopt its buffer so both callers share.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.data;
  }
  const uint64_t budget = budget_;
  const uint64_t tile_bytes = data->size() * sizeof(double) + 64;
  if (tile_bytes > budget) {
    // Oversize for the whole budget: serve uncached so resident bytes
    // never exceed the configured bound.
    return data;
  }
  lru_.push_front(key);
  Entry entry;
  entry.data = data;
  entry.bytes = tile_bytes;
  entry.lru = lru_.begin();
  tiles_.emplace(key, std::move(entry));
  bytes_ += tile_bytes;
  while (bytes_ > budget && !lru_.empty()) {
    const TileKey victim = lru_.back();
    auto v = tiles_.find(victim);
    bytes_ -= v->second.bytes;
    lru_.pop_back();
    tiles_.erase(v);
    ++stats_.evictions;
  }
  return data;
}

uint64_t TileStore::ZoneRun(const std::shared_ptr<const Dataset>& ds, uint64_t row,
                            ZoneMap* zone) {
  if (row >= ds->shape[0]) return 0;
  const uint64_t tile = row / ds->rows_per_tile;
  {
    MutexLock lock(&mu_);
    auto it = ds->zones.find(tile);
    if (it == ds->zones.end()) return 0;
    *zone = it->second;
  }
  return ds->FirstRow(tile) + ds->RowsInTile(tile) - row;
}

void TileStore::CountPrune() {
  MutexLock lock(&mu_);
  ++stats_.prunes;
}

TileStoreStats TileStore::stats() const {
  MutexLock lock(&mu_);
  TileStoreStats s = stats_;
  s.bytes = bytes_;
  s.entries = tiles_.size();
  s.datasets = datasets_.size();
  return s;
}

void TileStore::Clear() {
  MutexLock lock(&mu_);
  datasets_.clear();
  tiles_.clear();
  lru_.clear();
  bytes_ = 0;
  stats_ = TileStoreStats{};
}

}  // namespace storage
}  // namespace aql
