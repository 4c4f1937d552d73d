// Semantic result cache: resolved core expressions → computed values.
//
// Sits ABOVE the plan cache: where PlanCache saves re-compiling a repeated
// query, ResultCache saves re-running it. Keys are the same as PlanCache's
// — resolved, pre-optimization core terms, bucketed by HashExpr and
// confirmed by AlphaEqual — so alpha-variant and macro-expanded spellings
// of one query share an entry, and a changed `val` binding changes the key
// itself (vals are substituted in during ResolveNames).
//
// Two capabilities beyond a plain memo table:
//
//  1. Epoch invalidation. Queries are pure EXCEPT through registered
//     primitives/readers observing external state that `writeval` (or a
//     new registration) may mutate. System::mutation_epoch() advances on
//     every such mutation; a lookup or insert carrying a newer epoch than
//     the cache's watermark flushes everything first. Coarse by design:
//     writers are opaque, so no per-entry dependency tracking is sound.
//
//  2. Subslab subsumption. A query of the form
//         [[ BASE[i1+o1, ..., ik+ok] | i1 < n1, ..., ik < nk ]]
//     (analysis::MatchRectAccess with unit stride: distinct binders)
//     where BASE is alpha-equal to a cached key, the offsets oj are
//     constants, and the extents nj are PROVEN constant by the shape/
//     cardinality abstract domains (analysis/absint.h), is answered by
//     slicing the cached unboxed buffer (SliceArray) — no evaluation at
//     all. The proof obligation is double-checked against the concrete
//     cached array: rank must match and oj + nj must stay within dims[j].
//     The slice is inserted as its own entry so a repeat becomes an exact
//     hit. See docs/CACHING.md for the full protocol.
//
// Bounded by approximate BYTES (ApproxValueBytes of the value plus
// ApproxExprBytes of the key plus fixed overhead), evicting LRU entries;
// results can be arbitrarily larger than the plans that produce them, so
// an entry-count bound would be dishonest. max_bytes == 0 disables the
// cache entirely.
//
// Thread-safe; one internal mutex at lock_rank::kResultCache (above
// kSystem — lookups run under the service's system reader lock — and
// distinct from kPlanCache; the two cache locks are never nested).

#ifndef AQL_SERVICE_RESULT_CACHE_H_
#define AQL_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

#include "base/sync.h"
#include "core/expr.h"
#include "object/value.h"

namespace aql {
namespace service {

class ResultCache {
 public:
  using HashFn = std::function<uint64_t(const ExprPtr&)>;

  // Monotone counters, snapshot under the cache mutex.
  struct Stats {
    uint64_t hits = 0;           // exact alpha-equal hits
    uint64_t misses = 0;         // lookups answered by neither path
    uint64_t subsumptions = 0;   // served by slicing a containing slab
    uint64_t evictions = 0;      // entries dropped by the byte bound
    uint64_t invalidations = 0;  // entries dropped by an epoch flush
    uint64_t bytes = 0;          // current approximate footprint
    uint64_t entries = 0;        // current entry count
  };

  // max_bytes == 0 disables caching. `hash_for_test` as in PlanCache:
  // tests force collisions to pin that alpha-distinct results sharing a
  // bucket coexist and never serve each other's values.
  explicit ResultCache(uint64_t max_bytes, HashFn hash_for_test = {});

  // Returns the cached value for `resolved` (exact or by subslab
  // subsumption), or nullopt. `epoch` is the caller's current
  // System::mutation_epoch(); a change flushes the cache first.
  std::optional<Value> Lookup(const ExprPtr& resolved, uint64_t epoch);

  // Caches `value` keyed by `resolved`. Entries whose approximate size
  // exceeds max_bytes are dropped silently (one oversized result must not
  // wipe the whole cache). Replaces an alpha-equal entry in place.
  void Insert(const ExprPtr& resolved, Value value, uint64_t epoch);

  void Clear();

  bool enabled() const { return max_bytes_ > 0; }
  uint64_t max_bytes() const { return max_bytes_; }
  Stats stats() const;

 private:
  struct Node {
    uint64_t hash;
    uint64_t bytes;
    ExprPtr key;  // resolved core term
    Value value;
  };
  using LruList = std::list<Node>;

  void FlushIfStaleLocked(uint64_t epoch) AQL_REQUIRES(mu_);
  void InsertLocked(const ExprPtr& resolved, uint64_t hash, Value value)
      AQL_REQUIRES(mu_);
  void EraseLocked(LruList::iterator it) AQL_REQUIRES(mu_);
  LruList::iterator FindLocked(const ExprPtr& resolved, uint64_t hash)
      AQL_REQUIRES(mu_);

  const uint64_t max_bytes_;
  const HashFn hash_;
  mutable Mutex mu_{"service.result_cache", lock_rank::kResultCache};
  LruList lru_ AQL_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<uint64_t, LruList::iterator> index_ AQL_GUARDED_BY(mu_);
  uint64_t valid_epoch_ AQL_GUARDED_BY(mu_) = 0;
  uint64_t bytes_ AQL_GUARDED_BY(mu_) = 0;
  Stats stats_ AQL_GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace aql

#endif  // AQL_SERVICE_RESULT_CACHE_H_
