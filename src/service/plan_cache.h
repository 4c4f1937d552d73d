// LRU plan cache: resolved core expressions → compiled plans.
//
// The paper's efficiency story (§3, §5) compiles a query once and runs it
// many times; this cache makes that automatic for a service handling
// repeated queries. Keys are *resolved* core expressions (macros and vals
// substituted in, primitives resolved) so textually different surface
// queries that desugar to the same core term share one plan. Bucketing is
// by HashExpr and confirmed by AlphaEqual, so alpha-variants — e.g. the
// same comprehension written with different binder names — also share.
//
// A cached plan is the exec::Program compiled from the optimized core
// term, kept under its resolved key; the optimized term itself is dropped
// once compiled. Programs are immutable and safe to run concurrently, so
// one entry serves any number of workers at once.
//
// Thread-safe; every operation takes one internal mutex. The expensive
// parts (hashing, alpha-comparison) touch only immutable expression trees.

#ifndef AQL_SERVICE_PLAN_CACHE_H_
#define AQL_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "base/sync.h"
#include "core/expr.h"
#include "exec/compiled.h"

namespace aql {
namespace service {

// One compiled plan. Immutable after construction; shared by workers.
struct CachedPlan {
  ExprPtr resolved;  // cache key: resolved, pre-optimization core term
  std::shared_ptr<const exec::Program> program;  // slot-compiled plan
};

class PlanCache {
 public:
  using HashFn = std::function<uint64_t(const ExprPtr&)>;

  // capacity == 0 disables caching (Lookup always misses, Insert drops).
  // `hash_for_test` overrides HashExpr for bucketing — tests pass a
  // constant (or coarse) hash to force every key into one bucket and pin
  // the collision behavior: alpha-distinct plans sharing a hash must
  // coexist, never replace each other, and never skew `evictions()`.
  explicit PlanCache(size_t capacity, HashFn hash_for_test = {});

  // Returns the cached plan alpha-equal to `resolved` and marks it
  // most-recently used, or nullptr.
  std::shared_ptr<const CachedPlan> Lookup(const ExprPtr& resolved);

  // Inserts a plan keyed by plan->resolved, evicting least-recently-used
  // entries over capacity. A plan alpha-equal to an existing key replaces
  // that entry.
  void Insert(std::shared_ptr<const CachedPlan> plan);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const;
  // Approximate heap bytes held by the cached plans (the resolved key via
  // ApproxExprBytes, plus a fixed per-entry overhead standing in for the
  // compiled program). Reporting only — the eviction bound stays the
  // entry-count capacity — surfaced as the `cache.plans.bytes` gauge so
  // both caches report memory honestly.
  uint64_t bytes() const;
  void Clear();

 private:
  struct Node {
    uint64_t hash;
    uint64_t bytes;
    std::shared_ptr<const CachedPlan> plan;
  };
  using LruList = std::list<Node>;

  // Erases `it` from both index and LRU list.
  void EraseLocked(LruList::iterator it) AQL_REQUIRES(mu_);

  const size_t capacity_;
  const HashFn hash_;
  mutable Mutex mu_{"service.plan_cache", lock_rank::kPlanCache};
  LruList lru_ AQL_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<uint64_t, LruList::iterator> index_ AQL_GUARDED_BY(mu_);
  uint64_t evictions_ AQL_GUARDED_BY(mu_) = 0;
  uint64_t bytes_ AQL_GUARDED_BY(mu_) = 0;
};

}  // namespace service
}  // namespace aql

#endif  // AQL_SERVICE_PLAN_CACHE_H_
