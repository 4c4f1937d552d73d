// Semantic result cache (service/result_cache.h): keying, byte-bounded
// LRU eviction, epoch invalidation, subslab subsumption — and the
// correctness contract that justifies the whole layer: with the cache on,
// every query's value is bit-identical to the cache-off run, including
// across writeval invalidations and under concurrent submission (the
// fuzz at the bottom; this test runs in the asan and tsan lanes).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "env/system.h"
#include "gtest/gtest.h"
#include "service/result_cache.h"
#include "service/service.h"

namespace aql {
namespace service {
namespace {

ExprPtr MustResolve(System* sys, const std::string& query) {
  auto core = sys->ParseToCore(query);
  EXPECT_TRUE(core.ok()) << core.status().ToString();
  auto resolved = sys->ResolveNames(*core);
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  return *resolved;
}

Value MustEval(System* sys, const std::string& query) {
  auto v = sys->Eval(query);
  EXPECT_TRUE(v.ok()) << query << ": " << v.status().ToString();
  return *v;
}

TEST(ResultCacheTest, ExactHitSharesAlphaVariants) {
  System sys;
  ResultCache cache(1 << 20);
  ExprPtr key = MustResolve(&sys, "{ x * x | \\x <- gen!5 }");
  Value v = MustEval(&sys, "{ x * x | \\x <- gen!5 }");
  cache.Insert(key, v, /*epoch=*/0);

  ExprPtr variant = MustResolve(&sys, "{ y * y | \\y <- gen!5 }");
  auto hit = cache.Lookup(variant, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, v);
  EXPECT_EQ(cache.stats().hits, 1u);

  ExprPtr other = MustResolve(&sys, "{ y * y | \\y <- gen!6 }");
  EXPECT_FALSE(cache.Lookup(other, 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, DisabledCacheNeverStores) {
  System sys;
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  ExprPtr key = MustResolve(&sys, "1 + 2");
  cache.Insert(key, Value::Nat(3), 0);
  EXPECT_FALSE(cache.Lookup(key, 0).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, EpochChangeFlushesEverything) {
  System sys;
  ResultCache cache(1 << 20);
  ExprPtr key = MustResolve(&sys, "gen!4");
  cache.Insert(key, MustEval(&sys, "gen!4"), /*epoch=*/0);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Same epoch: still there. New epoch: flushed before the lookup.
  EXPECT_TRUE(cache.Lookup(key, 0).has_value());
  EXPECT_FALSE(cache.Lookup(key, 1).has_value());
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTest, ByteBoundEvictsLeastRecentlyUsed) {
  System sys;
  // ~8KB per 1000-nat array; a 20KB bound holds two entries, not three.
  ResultCache cache(20 * 1024);
  ExprPtr a = MustResolve(&sys, "[[ i | \\i < 1000 ]]");
  ExprPtr b = MustResolve(&sys, "[[ i + 1 | \\i < 1000 ]]");
  ExprPtr c = MustResolve(&sys, "[[ i + 2 | \\i < 1000 ]]");
  cache.Insert(a, MustEval(&sys, "[[ i | \\i < 1000 ]]"), 0);
  cache.Insert(b, MustEval(&sys, "[[ i + 1 | \\i < 1000 ]]"), 0);
  EXPECT_TRUE(cache.Lookup(a, 0).has_value());  // touch a: b becomes LRU
  cache.Insert(c, MustEval(&sys, "[[ i + 2 | \\i < 1000 ]]"), 0);

  EXPECT_TRUE(cache.Lookup(a, 0).has_value());
  EXPECT_FALSE(cache.Lookup(b, 0).has_value());
  EXPECT_TRUE(cache.Lookup(c, 0).has_value());
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 20u * 1024u);
}

TEST(ResultCacheTest, OversizedResultIsNotCached) {
  System sys;
  ResultCache cache(512);  // smaller than one 1000-element array
  ExprPtr key = MustResolve(&sys, "[[ i | \\i < 1000 ]]");
  cache.Insert(key, MustEval(&sys, "[[ i | \\i < 1000 ]]"), 0);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(key, 0).has_value());
}

TEST(ResultCacheTest, HashCollisionsKeepEntriesDistinct) {
  System sys;
  ResultCache cache(1 << 20, [](const ExprPtr&) { return uint64_t{7}; });
  ExprPtr a = MustResolve(&sys, "1 + 2");
  ExprPtr b = MustResolve(&sys, "2 + 3");
  cache.Insert(a, Value::Nat(3), 0);
  cache.Insert(b, Value::Nat(5), 0);
  auto va = cache.Lookup(a, 0);
  auto vb = cache.Lookup(b, 0);
  ASSERT_TRUE(va.has_value() && vb.has_value());
  EXPECT_EQ(*va, Value::Nat(3));
  EXPECT_EQ(*vb, Value::Nat(5));
}

// ---- subslab subsumption ----

constexpr char kSlab[] = "[[ i * 10 + j | \\i < 8, \\j < 9 ]]";

TEST(ResultCacheTest, SubslabServedBySlicingCachedSlab) {
  System sys;
  ResultCache cache(1 << 20);
  cache.Insert(MustResolve(&sys, kSlab), MustEval(&sys, kSlab), 0);

  // [lower (2,3), extents (4,5)] of the cached 8x9 slab.
  std::string sub = std::string("[[ (") + kSlab +
                    ")[a + 2, b + 3] | \\a < 4, \\b < 5 ]]";
  auto hit = cache.Lookup(MustResolve(&sys, sub), 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, MustEval(&sys, sub));  // bit-identical to direct evaluation
  EXPECT_EQ(cache.stats().subsumptions, 1u);

  // The slice was memoized under its own key: the repeat is an exact hit.
  EXPECT_TRUE(cache.Lookup(MustResolve(&sys, sub), 0).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCacheTest, ZeroOffsetWholeSlabAliasSubsumes) {
  System sys;
  ResultCache cache(1 << 20);
  cache.Insert(MustResolve(&sys, kSlab), MustEval(&sys, kSlab), 0);
  // Identity re-indexing: offsets 0, full extents.
  std::string sub =
      std::string("[[ (") + kSlab + ")[a, b] | \\a < 8, \\b < 9 ]]";
  auto hit = cache.Lookup(MustResolve(&sys, sub), 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, MustEval(&sys, sub));
  EXPECT_EQ(cache.stats().subsumptions, 1u);
}

TEST(ResultCacheTest, SubsumptionRejectsUnsafeShapes) {
  System sys;
  ResultCache cache(1 << 20);
  cache.Insert(MustResolve(&sys, kSlab), MustEval(&sys, kSlab), 0);

  // Transposed index: a rectangular slice cannot express it.
  std::string transposed =
      std::string("[[ (") + kSlab + ")[b, a] | \\a < 4, \\b < 5 ]]";
  EXPECT_FALSE(cache.Lookup(MustResolve(&sys, transposed), 0).has_value());

  // Out of range: offset + extent exceeds the cached dims (6 + 4 > 8).
  std::string oob = std::string("[[ (") + kSlab +
                    ")[a + 6, b] | \\a < 4, \\b < 5 ]]";
  EXPECT_FALSE(cache.Lookup(MustResolve(&sys, oob), 0).has_value());

  // Repeated binder: the inner i shadows the outer one, so both index
  // parts read the inner binder — a diagonal, not a rectangle.
  std::string shadowed =
      std::string("[[ (") + kSlab + ")[i, i] | \\i < 3, \\i < 4 ]]";
  EXPECT_FALSE(cache.Lookup(MustResolve(&sys, shadowed), 0).has_value());

  EXPECT_EQ(cache.stats().subsumptions, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

// ---- service integration ----

// One System with a window into mutable external state: `peek!k` returns
// state + k (so cached values are distinguishable across writes), and
// `writeval v using POKE at 0` stores v. Exactly the coupling the epoch
// protocol exists for.
struct ExternalState {
  std::atomic<uint64_t> state{1};
  std::atomic<uint64_t> peeks{0};

  void Install(System* sys) {
    ASSERT_TRUE(sys->RegisterPrimitive(
                       "peek", "nat -> nat",
                       [this](const Value& arg) -> Result<Value> {
                         peeks.fetch_add(1, std::memory_order_relaxed);
                         return Value::Nat(state.load(std::memory_order_relaxed) +
                                           arg.nat_value());
                       })
                    .ok());
    ASSERT_TRUE(sys->RegisterWriter("POKE",
                                    [this](const Value& payload, const Value&) {
                                      state.store(payload.nat_value(),
                                                  std::memory_order_relaxed);
                                      return Status::OK();
                                    })
                    .ok());
  }
};

TEST(ResultCacheServiceTest, RepeatedQuerySkipsExecution) {
  System sys;
  ExternalState ext;
  ext.Install(&sys);
  QueryService svc(&sys, {.num_workers = 2});
  for (int i = 0; i < 5; ++i) {
    auto r = svc.Execute("peek!3");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, Value::Nat(4));
  }
  // One real execution; four served from the cache.
  EXPECT_EQ(ext.peeks.load(), 1u);
  EXPECT_EQ(svc.result_cache().stats().hits, 4u);
}

TEST(ResultCacheServiceTest, WritevalInvalidatesCachedValues) {
  System sys;
  ExternalState ext;
  ext.Install(&sys);
  QueryService svc(&sys, {.num_workers = 2});
  ASSERT_EQ(*svc.Execute("peek!0"), Value::Nat(1));
  ASSERT_EQ(*svc.Execute("peek!0"), Value::Nat(1));  // cached

  ASSERT_TRUE(svc.RunScript("writeval 41 using POKE at 0;").ok());
  auto r = svc.Execute("peek!0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value::Nat(41));  // NOT the stale 1
  EXPECT_GE(svc.result_cache().stats().invalidations, 1u);
}

TEST(ResultCacheServiceTest, FailingWriterStillInvalidatesCache) {
  System sys;
  ExternalState ext;
  ext.Install(&sys);
  // A writer that mutates external state and THEN reports failure — a
  // partial write is observable even though the status is an error, so
  // the mutation epoch must advance on the attempt, not the success.
  ASSERT_TRUE(sys.RegisterWriter("POKE_FAIL",
                                 [&ext](const Value& payload, const Value&) {
                                   ext.state.store(payload.nat_value(),
                                                   std::memory_order_relaxed);
                                   return Status::IoError("disk full after mutating");
                                 })
                  .ok());
  QueryService svc(&sys, {.num_workers = 1});
  ASSERT_EQ(*svc.Execute("peek!0"), Value::Nat(1));
  ASSERT_EQ(*svc.Execute("peek!0"), Value::Nat(1));  // cached

  EXPECT_FALSE(svc.RunScript("writeval 99 using POKE_FAIL at 0;").ok());
  auto r = svc.Execute("peek!0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value::Nat(99)) << "failed write must still flush stale entries";
}

TEST(ResultCacheServiceTest, PerQueryOptOutBypassesTheCache) {
  System sys;
  ExternalState ext;
  ext.Install(&sys);
  QueryService svc(&sys, {.num_workers = 1});
  QueryOptions no_cache;
  no_cache.use_result_cache = false;
  ASSERT_TRUE(svc.Execute("peek!0", no_cache).ok());
  ASSERT_TRUE(svc.Execute("peek!0", no_cache).ok());
  EXPECT_EQ(ext.peeks.load(), 2u);  // both really ran
  EXPECT_EQ(svc.result_cache().stats().hits, 0u);
}

TEST(ResultCacheServiceTest, SubsumedSubslabThroughTheService) {
  System sys;
  QueryService svc(&sys, {.num_workers = 2});
  ASSERT_TRUE(svc.Execute(kSlab).ok());
  std::string sub = std::string("[[ (") + kSlab +
                    ")[a + 1, b + 2] | \\a < 3, \\b < 4 ]]";
  auto r = svc.Execute(sub);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, MustEval(&sys, sub));
  EXPECT_EQ(svc.result_cache().stats().subsumptions, 1u);
}

TEST(ResultCacheServiceTest, ShadowedBinderMatchesTheTreeWalker) {
  System sys;
  QueryService svc(&sys, {.num_workers = 2});
  ASSERT_TRUE(svc.RunScript(std::string("val \\S = ") + kSlab + ";").ok());
  ASSERT_TRUE(svc.Execute("S").ok());  // the slab is now a cached value
  const std::string shadowed = "[[ S[i, i] | \\i < 3, \\i < 4 ]]";
  auto r = svc.Execute(shadowed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The oracle: the tree walker on the unoptimized term.
  auto core = sys.CompileUnoptimized(shadowed);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto oracle = sys.EvalCore(*core);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(*r, *oracle);
  EXPECT_EQ(r->array().At(1), Value::Nat(11));  // (0, 1) is S[1, 1]
  EXPECT_EQ(svc.result_cache().stats().subsumptions, 0u);
}

// ---- the bit-identity fuzz ----
//
// Two services over identically-configured Systems, result cache on vs
// off, driven through the same sequence of random queries and writeval
// mutations. Every query runs twice on the cached service (the second
// forced down the hit path) and once uncached; all three values must be
// identical. Then a concurrent phase: many simultaneous submissions of
// pure queries racing a writeval flush.

class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    x_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t x_;
};

std::string RandomQuery(SplitMix* rng) {
  uint64_t a = 1 + rng->Below(9);
  uint64_t b = 1 + rng->Below(20);
  switch (rng->Below(6)) {
    case 0:
      return "[[ i * " + std::to_string(a) + " + j | \\i < " +
             std::to_string(b) + ", \\j < " + std::to_string(1 + rng->Below(8)) +
             " ]]";
    case 1:
      return "summap(fn \\x => x * " + std::to_string(a) + ")!(gen!" +
             std::to_string(b * 10) + ")";
    case 2:
      return "{ x + " + std::to_string(a) + " | \\x <- gen!" +
             std::to_string(b) + " }";
    case 3:
      return "peek!" + std::to_string(a);
    case 4: {
      // A subslab of a fixed 16x16 slab; offsets+extents stay in range.
      uint64_t lo = rng->Below(8), ext = 1 + rng->Below(8);
      return "[[ ([[ i * 16 + j | \\i < 16, \\j < 16 ]])[a + " +
             std::to_string(lo) + ", b] | \\a < " + std::to_string(ext) +
             ", \\b < 16 ]]";
    }
    default:
      return "let val \\s = summap(fn \\j => j)!(gen!" + std::to_string(b) +
             ") in s + " + std::to_string(a) + " end";
  }
}

TEST(ResultCacheFuzzTest, CacheOnMatchesCacheOffBitForBit) {
  System sys_on, sys_off;
  ExternalState ext_on, ext_off;
  ext_on.Install(&sys_on);
  ext_off.Install(&sys_off);
  QueryService on(&sys_on, {.num_workers = 2});
  QueryService off(&sys_off, {.num_workers = 2, .result_cache_bytes = 0});

  SplitMix rng(20260808);
  for (int i = 0; i < 120; ++i) {
    if (i % 7 == 6) {
      // Interleaved invalidation: both worlds take the same write.
      std::string w = "writeval " + std::to_string(rng.Below(100)) +
                      " using POKE at 0;";
      ASSERT_TRUE(on.RunScript(w).ok());
      ASSERT_TRUE(off.RunScript(w).ok());
    }
    std::string q = RandomQuery(&rng);
    auto cold = on.Execute(q);
    auto warm = on.Execute(q);  // second time: served from the cache
    auto ref = off.Execute(q);
    ASSERT_TRUE(cold.ok() && warm.ok() && ref.ok())
        << q << ": " << cold.status().ToString() << " / "
        << warm.status().ToString() << " / " << ref.status().ToString();
    EXPECT_EQ(*cold, *ref) << q;
    EXPECT_EQ(*warm, *ref) << q;
  }
  // The cache did real work during all that.
  EXPECT_GT(on.result_cache().stats().hits, 0u);
  EXPECT_EQ(off.result_cache().stats().hits, 0u);
}

TEST(ResultCacheFuzzTest, ConcurrentSubmitsRacingInvalidation) {
  System sys;
  QueryService svc(&sys, {.num_workers = 4, .max_queue = 256});
  ASSERT_TRUE(sys.RegisterWriter("NOOP", [](const Value&, const Value&) {
                   return Status::OK();
                 }).ok());
  // Pure queries: their values are write-independent, so every result is
  // checkable even while writeval flushes race the submissions.
  std::vector<std::string> queries;
  std::vector<Value> expected;
  SplitMix rng(4242);
  for (int i = 0; i < 6; ++i) {
    uint64_t a = 1 + rng.Below(9);
    queries.push_back("summap(fn \\x => x + " + std::to_string(a) +
                      ")!(gen!100)");
    expected.push_back(Value::Nat(100 * a + 99 * 100 / 2));
  }
  for (int round = 0; round < 8; ++round) {
    std::vector<QuerySubmission> subs;
    for (int rep = 0; rep < 6; ++rep) {
      for (const std::string& q : queries) subs.push_back(svc.Submit(q));
    }
    // Flush mid-flight: successful writes bump the epoch.
    ASSERT_TRUE(svc.RunScript("writeval 1 using NOOP at 0;").ok());
    for (size_t i = 0; i < subs.size(); ++i) {
      auto r = subs[i].Wait();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, expected[i % queries.size()]);
    }
  }
  EXPECT_GT(svc.result_cache().stats().hits, 0u);
}

}  // namespace
}  // namespace service
}  // namespace aql
