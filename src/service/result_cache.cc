#include "service/result_cache.h"

#include <utility>
#include <vector>

#include "analysis/absint.h"
#include "analysis/affine.h"
#include "core/expr_ops.h"

namespace aql {
namespace service {

namespace {

// A lookup key matching the subslab shape:
//   [[ base[i1+lower1, ..., ik+lowerk] | i1 < e1, ..., ik < ek ]]
// with `base` binder-free and every extent proven constant by the shape
// domain. The syntactic part (offsets, base) is analysis::MatchRectAccess
// restricted to unit stride — SliceArray copies contiguous runs; the
// semantic part (extents) rides the abstract interpreter so bounds need
// not be literal NatConsts — anything the shape/cardinality domains can
// pin down works.
struct SubslabPattern {
  analysis::RectAccess access;
  std::vector<uint64_t> extents;  // per-dimension slice size (filled by
                                  // ProveExtents, only once a base entry
                                  // is actually found)
};

std::optional<SubslabPattern> MatchSubslab(const ExprPtr& resolved) {
  if (!resolved->is(ExprKind::kTab)) return std::nullopt;
  // Distinct binders, one syntactic index part per dimension (a projected
  // index can permute dimensions, which a rectangular slice cannot
  // express), part j = binder j + offset: transposed slices never match.
  std::optional<analysis::RectAccess> m =
      analysis::MatchRectAccess(resolved->tab_body(), resolved->binders());
  if (!m || !m->UnitStride()) return std::nullopt;
  // The base must not depend on the loop — it has to BE the cached slab.
  for (const std::string& b : resolved->binders()) {
    if (OccursFree(m->base, b)) return std::nullopt;
  }
  return SubslabPattern{std::move(*m), {}};
}

// Extents: the shape domain's verdict on the whole tabulation. This is
// the proof obligation — serve the slice only when the analysis pins
// every extent to a constant. Deferred until a base entry is found so the
// exact-hit and plain-miss paths never pay for an abstract interpretation.
bool ProveExtents(const ExprPtr& resolved, SubslabPattern* pat) {
  size_t k = pat->access.lower.size();
  analysis::AbsVal abs = analysis::AnalyzeAbs(resolved);
  if (abs.shape.kind != analysis::ShapeVal::Kind::kArray ||
      abs.shape.extents.size() != k) {
    return false;
  }
  pat->extents.resize(k);
  for (size_t j = 0; j < k; ++j) {
    const analysis::Extent& ext = abs.shape.extents[j];
    if (ext.kind != analysis::Extent::Kind::kConst) return false;
    pat->extents[j] = ext.value;
  }
  return true;
}

uint64_t EntryBytes(const ExprPtr& key, const Value& value) {
  constexpr uint64_t kEntryOverhead = 256;  // list/index nodes, Node itself
  return kEntryOverhead + ApproxExprBytes(key) + ApproxValueBytes(value);
}

}  // namespace

ResultCache::ResultCache(uint64_t max_bytes, HashFn hash_for_test)
    : max_bytes_(max_bytes),
      hash_(hash_for_test ? std::move(hash_for_test)
                          : [](const ExprPtr& e) { return HashExpr(e); }) {}

ResultCache::LruList::iterator ResultCache::FindLocked(const ExprPtr& resolved,
                                                       uint64_t hash) {
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (AlphaEqual(it->second->key, resolved)) return it->second;
  }
  return lru_.end();
}

std::optional<Value> ResultCache::Lookup(const ExprPtr& resolved, uint64_t epoch) {
  if (!enabled()) return std::nullopt;
  uint64_t hash = hash_(resolved);
  // Syntactic pattern match outside the lock; pure over the immutable term.
  std::optional<SubslabPattern> pat = MatchSubslab(resolved);
  uint64_t base_hash = pat ? hash_(pat->access.base) : 0;

  MutexLock lock(&mu_);
  FlushIfStaleLocked(epoch);

  auto it = FindLocked(resolved, hash);
  if (it != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, it);
    ++stats_.hits;
    return it->value;
  }

  if (pat) {
    auto base_it = FindLocked(pat->access.base, base_hash);
    if (base_it != lru_.end() && base_it->value.kind() == ValueKind::kArray &&
        ProveExtents(resolved, &*pat)) {
      const ArrayRep& arr = base_it->value.array();
      // Double-check the analysis against the concrete dims: the slice
      // must lie fully inside the cached slab.
      if (pat->access.Fits(pat->extents, arr.dims)) {
        Result<Value> slice = SliceArray(arr, pat->access.lower, pat->extents);
        if (slice.ok()) {
          lru_.splice(lru_.begin(), lru_, base_it);  // the slab stays hot
          ++stats_.subsumptions;
          // Memoize the slice under its own key: the repeat is an exact hit.
          InsertLocked(resolved, hash, *slice);
          return *std::move(slice);
        }
      }
    }
  }

  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::Insert(const ExprPtr& resolved, Value value, uint64_t epoch) {
  if (!enabled()) return;
  uint64_t hash = hash_(resolved);
  MutexLock lock(&mu_);
  FlushIfStaleLocked(epoch);
  InsertLocked(resolved, hash, std::move(value));
}

void ResultCache::InsertLocked(const ExprPtr& resolved, uint64_t hash,
                               Value value) {
  uint64_t bytes = EntryBytes(resolved, value);
  if (bytes > max_bytes_) return;  // would evict everything and still not fit
  auto it = FindLocked(resolved, hash);
  if (it != lru_.end()) {
    bytes_ += bytes - it->bytes;
    it->bytes = bytes;
    it->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it);
  } else {
    lru_.push_front(Node{hash, bytes, resolved, std::move(value)});
    index_.emplace(hash, lru_.begin());
    bytes_ += bytes;
  }
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void ResultCache::FlushIfStaleLocked(uint64_t epoch) {
  if (epoch == valid_epoch_) return;
  stats_.invalidations += lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  valid_epoch_ = epoch;
}

void ResultCache::EraseLocked(LruList::iterator it) {
  auto [begin, end] = index_.equal_range(it->hash);
  for (auto idx = begin; idx != end; ++idx) {
    if (idx->second == it) {
      index_.erase(idx);
      break;
    }
  }
  bytes_ -= it->bytes;
  lru_.erase(it);
}

void ResultCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(&mu_);
  Stats s = stats_;
  s.bytes = bytes_;
  s.entries = lru_.size();
  return s;
}

}  // namespace service
}  // namespace aql
