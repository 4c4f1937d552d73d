#include "service/plan_cache.h"

#include "core/expr_ops.h"

namespace aql {
namespace service {

PlanCache::PlanCache(size_t capacity, HashFn hash_for_test)
    : capacity_(capacity),
      hash_(hash_for_test ? std::move(hash_for_test)
                          : [](const ExprPtr& e) { return HashExpr(e); }) {}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const ExprPtr& resolved) {
  if (capacity_ == 0) return nullptr;
  uint64_t hash = hash_(resolved);
  MutexLock lock(&mu_);
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (AlphaEqual(it->second->plan->resolved, resolved)) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
      return it->second->plan;
    }
  }
  return nullptr;
}

namespace {

// Approximate footprint of one entry. The exec::Program is opaque here; a
// fixed overhead per entry keeps the gauge honest enough without a
// deep-size protocol on every plan component.
uint64_t PlanBytes(const CachedPlan& plan) {
  constexpr uint64_t kEntryOverhead = 1024;
  uint64_t b = kEntryOverhead;
  if (plan.resolved) b += ApproxExprBytes(plan.resolved);
  return b;
}

}  // namespace

void PlanCache::Insert(std::shared_ptr<const CachedPlan> plan) {
  if (capacity_ == 0 || plan == nullptr) return;
  uint64_t hash = hash_(plan->resolved);
  uint64_t bytes = PlanBytes(*plan);
  MutexLock lock(&mu_);
  // Replace an alpha-equal entry in place (two workers racing the same
  // cold query both compile; last insert wins, both plans stay valid).
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (AlphaEqual(it->second->plan->resolved, plan->resolved)) {
      bytes_ += bytes - it->second->bytes;
      it->second->plan = std::move(plan);
      it->second->bytes = bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
  }
  lru_.push_front(Node{hash, bytes, std::move(plan)});
  index_.emplace(hash, lru_.begin());
  bytes_ += bytes;
  while (lru_.size() > capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++evictions_;
  }
}

void PlanCache::EraseLocked(LruList::iterator it) {
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

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

uint64_t PlanCache::evictions() const {
  MutexLock lock(&mu_);
  return evictions_;
}

uint64_t PlanCache::bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

void PlanCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace service
}  // namespace aql
