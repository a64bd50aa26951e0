// Tests for the guidance amortization layer (paper §4.4: ~8.7 jobs share
// one graph): GuidanceCache hit/miss/eviction/invalidation behavior, the
// GuidanceProvider's policy-driven acquisition, singleflight coalescing,
// the negative cache, persistence through the GuidanceStore (spill →
// clear/evict → reload), graph fingerprinting, and the end-to-end app path
// (a repeated job retrieves cached guidance and computes identical
// results).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "slfe/apps/sssp.h"
#include "slfe/core/guidance_cache.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/guidance_store.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

std::shared_ptr<const RRGuidance> Gen(const Graph& g,
                                      const std::vector<VertexId>& roots) {
  return std::make_shared<const RRGuidance>(RRGuidance::Generate(g, roots));
}

/// Field-by-field equality of two guidance objects (the arrays the store
/// round-trips, plus the sweep depth).
void ExpectGuidanceEqual(const RRGuidance& a, const RRGuidance& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.depth(), b.depth());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.last_iter(v), b.last_iter(v)) << "v=" << v;
    ASSERT_EQ(a.visited(v), b.visited(v)) << "v=" << v;
  }
}

/// A provider persisting to a fresh (emptied) per-test store directory.
GuidanceProviderOptions StoreOptions(const std::string& name,
                                     size_t cache_capacity = 32) {
  GuidanceProviderOptions options;
  options.cache_capacity = cache_capacity;
  options.store_dir = ::testing::TempDir() + name;
  return options;
}

// ------------------------------------------------------------ Fingerprint

TEST(GraphFingerprintTest, DeterministicAndTopologySensitive) {
  Graph a = Graph::FromEdges(GenerateChain(10));
  Graph b = Graph::FromEdges(GenerateChain(10));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  Graph c = Graph::FromEdges(GenerateChain(11));
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EdgeList e(10);  // same vertex count, different wiring
  for (VertexId v = 0; v + 1 < 10; ++v) e.Add(v + 1, v);
  Graph d = Graph::FromEdges(e);
  EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(GraphFingerprintTest, WeightsDoNotChangeFingerprint) {
  // Guidance treats every weight as 1, so the cache may legally share
  // guidance between same-topology graphs with different weights.
  EdgeList light(3), heavy(3);
  light.Add(0, 1, 1.0f);
  light.Add(1, 2, 1.0f);
  heavy.Add(0, 1, 7.0f);
  heavy.Add(1, 2, 9.0f);
  EXPECT_EQ(Graph::FromEdges(light).fingerprint(),
            Graph::FromEdges(heavy).fingerprint());
}

// ------------------------------------------------------------------ Cache

TEST(GuidanceCacheTest, MissThenHit) {
  Graph g = Graph::FromEdges(GenerateChain(12));
  GuidanceCache cache(4);
  GuidanceKey key = GuidanceCache::MakeKey(g.fingerprint(), {0});

  EXPECT_EQ(cache.Lookup(key), nullptr);
  auto generated = Gen(g, {0});
  cache.Insert(key, generated);
  EXPECT_EQ(cache.Lookup(key).get(), generated.get());

  GuidanceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GuidanceCacheTest, DistinctRootsAreDistinctEntries) {
  Graph g = Graph::FromEdges(GenerateChain(12));
  GuidanceCache cache(4);
  cache.Insert(GuidanceCache::MakeKey(g.fingerprint(), {0}), Gen(g, {0}));
  EXPECT_EQ(cache.Lookup(GuidanceCache::MakeKey(g.fingerprint(), {1})),
            nullptr);
  EXPECT_EQ(cache.Lookup(GuidanceCache::MakeKey(g.fingerprint(), {0, 1})),
            nullptr);
  EXPECT_NE(cache.Lookup(GuidanceCache::MakeKey(g.fingerprint(), {0})),
            nullptr);
}

TEST(GuidanceCacheTest, LruEviction) {
  Graph g = Graph::FromEdges(GenerateChain(12));
  GuidanceCache cache(2);
  auto key = [&](VertexId r) {
    return GuidanceCache::MakeKey(g.fingerprint(), {r});
  };
  cache.Insert(key(0), Gen(g, {0}));
  cache.Insert(key(1), Gen(g, {1}));
  ASSERT_NE(cache.Lookup(key(0)), nullptr);  // bump 0 to MRU
  cache.Insert(key(2), Gen(g, {2}));         // evicts 1, the LRU entry
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);
  EXPECT_NE(cache.Lookup(key(0)), nullptr);
  EXPECT_NE(cache.Lookup(key(2)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(GuidanceCacheTest, InvalidateGraphDropsOnlyThatGraph) {
  Graph a = Graph::FromEdges(GenerateChain(12));
  Graph b = Graph::FromEdges(GenerateStar(6));
  GuidanceCache cache(8);
  cache.Insert(GuidanceCache::MakeKey(a.fingerprint(), {0}), Gen(a, {0}));
  cache.Insert(GuidanceCache::MakeKey(a.fingerprint(), {1}), Gen(a, {1}));
  cache.Insert(GuidanceCache::MakeKey(b.fingerprint(), {0}), Gen(b, {0}));
  cache.InvalidateGraph(a.fingerprint());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(GuidanceCache::MakeKey(a.fingerprint(), {0})),
            nullptr);
  EXPECT_NE(cache.Lookup(GuidanceCache::MakeKey(b.fingerprint(), {0})),
            nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(GuidanceCacheTest, EvictedEntryStaysAliveForHolders) {
  Graph g = Graph::FromEdges(GenerateChain(12));
  GuidanceCache cache(1);
  auto held = Gen(g, {0});
  cache.Insert(GuidanceCache::MakeKey(g.fingerprint(), {0}), held);
  cache.Insert(GuidanceCache::MakeKey(g.fingerprint(), {1}), Gen(g, {1}));
  // The {0} entry was evicted, but the shared_ptr keeps it valid.
  EXPECT_EQ(held->depth(), 11u);
}

// --------------------------------------------------------------- Provider

TEST(GuidanceProviderTest, PolicySelectionMatchesRootSelectors) {
  RmatOptions opt;
  opt.num_vertices = 128;
  opt.num_edges = 600;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kSingleSource;
  req.root = 7;
  EXPECT_EQ(GuidanceProvider::SelectRoots(g, req),
            std::vector<VertexId>{7});
  req.policy = GuidanceRootPolicy::kSourceVertices;
  EXPECT_EQ(GuidanceProvider::SelectRoots(g, req), SelectSourceRoots(g));
  req.policy = GuidanceRootPolicy::kLocalMinima;
  EXPECT_EQ(GuidanceProvider::SelectRoots(g, req), SelectLocalMinimaRoots(g));
}

TEST(GuidanceProviderTest, SecondAcquireHitsAndSharesTheObject) {
  Graph g = Graph::FromEdges(GenerateChain(32));
  GuidanceProvider provider;
  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kSingleSource;
  req.root = 0;

  GuidanceAcquisition first = provider.Acquire(g, req);
  ASSERT_TRUE(first);
  EXPECT_FALSE(first.cache_hit);

  GuidanceAcquisition second = provider.Acquire(g, req);
  ASSERT_TRUE(second);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.guidance.get(), second.guidance.get());

  GuidanceCacheStats stats = provider.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(GuidanceProviderTest, CacheBypassRegeneratesEveryTime) {
  Graph g = Graph::FromEdges(GenerateChain(32));
  GuidanceProvider provider;
  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kSingleSource;
  req.use_cache = false;
  GuidanceAcquisition a = provider.Acquire(g, req);
  GuidanceAcquisition b = provider.Acquire(g, req);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(a.guidance.get(), b.guidance.get());
  EXPECT_EQ(provider.cache().size(), 0u);
}

TEST(GuidanceProviderTest, CachedMatchesRegeneratedAfterClear) {
  // Regression for the amortization contract: what the cache serves must
  // be indistinguishable from a fresh sweep.
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1500;
  opt.seed = 3;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  GuidanceProvider provider;
  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kLocalMinima;

  provider.Acquire(g, req);                             // warm
  GuidanceAcquisition cached = provider.Acquire(g, req);
  ASSERT_TRUE(cached.cache_hit);
  provider.cache().Clear();
  GuidanceAcquisition regenerated = provider.Acquire(g, req);
  ASSERT_FALSE(regenerated.cache_hit);

  ASSERT_EQ(cached.guidance->num_vertices(),
            regenerated.guidance->num_vertices());
  EXPECT_EQ(cached.guidance->depth(), regenerated.guidance->depth());
  for (VertexId v = 0; v < cached.guidance->num_vertices(); ++v) {
    ASSERT_EQ(cached.guidance->last_iter(v),
              regenerated.guidance->last_iter(v));
    ASSERT_EQ(cached.guidance->visited(v), regenerated.guidance->visited(v));
  }
}

// ---------------------------------------------------------- Singleflight

TEST(GuidanceProviderTest, ConcurrentMissesGenerateExactlyOnce) {
  RmatOptions opt;
  opt.num_vertices = 4096;
  opt.num_edges = 20000;
  opt.seed = 5;
  Graph g = Graph::FromEdges(GenerateRmat(opt));

  GuidanceProviderOptions popt;
  GuidanceProvider provider(popt);

  constexpr int kThreads = 8;
  std::vector<GuidanceAcquisition> acquisitions(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      GuidanceRequest req;
      req.policy = GuidanceRootPolicy::kLocalMinima;
      acquisitions[t] = provider.Acquire(g, req);
    });
  }
  for (std::thread& th : threads) th.join();

  // The singleflight contract: one O(|E|) sweep, shared by everyone.
  EXPECT_EQ(provider.stats().generations, 1u);
  int leaders = 0, followers = 0;
  for (const GuidanceAcquisition& a : acquisitions) {
    ASSERT_TRUE(a);
    EXPECT_EQ(a.get(), acquisitions[0].get());  // one shared object
    if (a.cache_hit || a.coalesced) {
      ++followers;
    } else {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);  // everyone else coalesced or hit the cache
  EXPECT_EQ(followers, kThreads - 1);
}

// -------------------------------------------------------- Negative cache

TEST(GuidanceProviderTest, UnproducibleRequestsAreNegativelyCached) {
  Graph empty;  // zero vertices: every policy selects an empty root set
  GuidanceProvider provider;
  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kSourceVertices;

  GuidanceAcquisition first = provider.Acquire(empty, req);
  EXPECT_FALSE(first);  // null guidance = baseline mode
  EXPECT_EQ(provider.stats().negative_hits, 0u);

  GuidanceAcquisition second = provider.Acquire(empty, req);
  EXPECT_FALSE(second);
  EXPECT_EQ(provider.stats().negative_hits, 1u);  // remembered

  EXPECT_EQ(provider.stats().generations, 0u);  // no no-op sweeps ran
  EXPECT_EQ(provider.cache().size(), 0u);       // nothing useless cached

  provider.ClearNegativeCache();
  provider.Acquire(empty, req);
  EXPECT_EQ(provider.stats().negative_hits, 1u);  // re-learned, not hit
}

TEST(GuidanceProviderTest, ExplicitEmptyRootsReturnBaselineMode) {
  Graph g = Graph::FromEdges(GenerateChain(8));
  GuidanceProvider provider;
  GuidanceAcquisition a = provider.AcquireForRoots(g, {});
  EXPECT_FALSE(a);
  EXPECT_EQ(provider.stats().generations, 0u);
  EXPECT_EQ(provider.cache().size(), 0u);
}

// ------------------------------------------------------------ Store spill

TEST(GuidanceStoreIntegrationTest, SpillClearReloadMatchesRegeneration) {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1500;
  opt.seed = 13;
  Graph g = Graph::FromEdges(GenerateRmat(opt));

  GuidanceProvider provider(StoreOptions("slfe_store_roundtrip"));
  ASSERT_NE(provider.store(), nullptr);
  ASSERT_TRUE(provider.store()->RemoveAll().ok());  // isolate reruns

  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kLocalMinima;
  GuidanceAcquisition generated = provider.Acquire(g, req);  // miss: spills
  ASSERT_TRUE(generated);
  EXPECT_FALSE(generated.cache_hit);

  provider.cache().Clear();  // memory gone, files survive
  GuidanceAcquisition reloaded = provider.Acquire(g, req);
  ASSERT_TRUE(reloaded);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_EQ(provider.cache_stats().store_hits, 1u);
  EXPECT_EQ(provider.stats().generations, 1u);  // the reload swept nothing

  // The store round-trip must be indistinguishable from a fresh sweep.
  RRGuidance fresh = RRGuidance::Generate(g, SelectLocalMinimaRoots(g));
  ExpectGuidanceEqual(*reloaded.guidance, fresh);
  ExpectGuidanceEqual(*reloaded.guidance, *generated.guidance);
}

TEST(GuidanceStoreIntegrationTest, EvictedEntryReloadsFromDisk) {
  Graph g = Graph::FromEdges(GenerateChain(24));
  GuidanceProvider provider(StoreOptions("slfe_store_evict", 1));
  ASSERT_TRUE(provider.store()->RemoveAll().ok());

  GuidanceAcquisition a0 = provider.AcquireForRoots(g, {0});
  provider.AcquireForRoots(g, {1});  // capacity 1: evicts {0}
  EXPECT_EQ(provider.cache_stats().evictions, 1u);

  GuidanceAcquisition again = provider.AcquireForRoots(g, {0});
  ASSERT_TRUE(again);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(provider.cache_stats().store_hits, 1u);
  EXPECT_EQ(provider.stats().generations, 2u);  // no third sweep
  ExpectGuidanceEqual(*again.guidance, *a0.guidance);
}

TEST(GuidanceStoreIntegrationTest, PersistenceSurvivesProviderRestart) {
  RmatOptions opt;
  opt.num_vertices = 128;
  opt.num_edges = 700;
  opt.seed = 21;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  GuidanceProviderOptions popt = StoreOptions("slfe_store_restart");

  GuidanceRequest req;
  req.policy = GuidanceRootPolicy::kSourceVertices;
  GuidanceAcquisition first;
  {
    GuidanceProvider warm(popt);
    ASSERT_TRUE(warm.store()->RemoveAll().ok());
    first = warm.Acquire(g, req);
    ASSERT_FALSE(first.cache_hit);
  }  // "process exit": the provider and its in-memory cache are gone

  GuidanceProvider cold(popt);
  GuidanceAcquisition reloaded = cold.Acquire(g, req);
  ASSERT_TRUE(reloaded);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_EQ(cold.stats().generations, 0u);  // restart paid a read, no sweep
  EXPECT_EQ(cold.cache_stats().store_hits, 1u);
  ExpectGuidanceEqual(*reloaded.guidance, *first.guidance);
}

TEST(GuidanceStoreIntegrationTest, InvalidateGraphAlsoDropsFiles) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  GuidanceProvider provider(StoreOptions("slfe_store_inval"));
  ASSERT_TRUE(provider.store()->RemoveAll().ok());

  provider.AcquireForRoots(g, {0});
  GuidanceKey key = GuidanceCache::MakeKey(g.fingerprint(), {0});
  ASSERT_TRUE(provider.store()->Contains(key));

  provider.cache().InvalidateGraph(g.fingerprint());
  EXPECT_FALSE(provider.store()->Contains(key));
  GuidanceAcquisition again = provider.AcquireForRoots(g, {0});
  EXPECT_FALSE(again.cache_hit);  // both levels were dropped
  EXPECT_EQ(provider.stats().generations, 2u);
}

// ------------------------------------------------------------- App layer

TEST(GuidanceProviderTest, RepeatedSsspJobHitsCacheWithIdenticalResults) {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1500;
  opt.seed = 9;
  Graph g = Graph::FromEdges(GenerateRmat(opt));

  GuidanceProvider provider;
  AppConfig cfg;
  cfg.num_nodes = 2;
  cfg.enable_rr = true;
  cfg.guidance_provider = &provider;

  SsspResult first = RunSssp(g, cfg);
  EXPECT_FALSE(first.info.guidance_cache_hit);
  SsspResult second = RunSssp(g, cfg);
  EXPECT_TRUE(second.info.guidance_cache_hit);
  EXPECT_EQ(second.info.guidance_depth, first.info.guidance_depth);
  EXPECT_EQ(second.dist, first.dist);
  EXPECT_EQ(provider.cache_stats().hits, 1u);
}

// -------------------------------------------------- Hotness admission

TEST(GuidanceAdmissionTest, ColdGraphSkipsTheStoreWrite) {
  Graph g = Graph::FromEdges(GenerateChain(20));
  GuidanceProviderOptions opt = StoreOptions("slfe_admission_cold");
  opt.store_admission = [](uint64_t) { return false; };  // everything cold
  GuidanceProvider provider(opt);
  ASSERT_TRUE(provider.store()->RemoveAll().ok());

  GuidanceAcquisition acq = provider.AcquireForRoots(g, {0});
  ASSERT_TRUE(acq);  // in-memory guidance is unaffected by the gate
  GuidanceKey key = GuidanceCache::MakeKey(g.fingerprint(), {0});
  EXPECT_FALSE(provider.store()->Contains(key));
  EXPECT_EQ(provider.cache_stats().admission_skips, 1u);
  EXPECT_EQ(provider.cache_stats().admission_promotions, 0u);

  // The price of staying cold: nothing durable, so a cache wipe means a
  // full regeneration instead of a store reload.
  provider.cache().Clear();
  GuidanceAcquisition again = provider.AcquireForRoots(g, {0});
  ASSERT_TRUE(again);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(provider.cache_stats().store_hits, 0u);
  EXPECT_EQ(provider.stats().generations, 2u);
}

TEST(GuidanceAdmissionTest, MemoryHitPromotesOnceTheGraphTurnsHot) {
  Graph g = Graph::FromEdges(GenerateChain(24));
  std::atomic<uint64_t> demand{0};  // stands in for the demand sketch
  GuidanceProviderOptions opt = StoreOptions("slfe_admission_promote");
  opt.store_admission = [&demand](uint64_t) { return demand.load() >= 2; };
  GuidanceProvider provider(opt);
  ASSERT_TRUE(provider.store()->RemoveAll().ok());

  demand = 1;
  provider.AcquireForRoots(g, {0});  // cold at insert: write skipped
  GuidanceKey key = GuidanceCache::MakeKey(g.fingerprint(), {0});
  EXPECT_FALSE(provider.store()->Contains(key));
  EXPECT_EQ(provider.cache_stats().admission_skips, 1u);

  // The graph turns hot while its guidance still lives in memory. The
  // insert path never runs again (every later acquire is a cache hit),
  // so the hit path itself must notice and persist — otherwise a hot
  // graph that was born cold would never reach the store.
  demand = 5;
  GuidanceAcquisition hot = provider.AcquireForRoots(g, {0});
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_TRUE(provider.store()->Contains(key));
  EXPECT_EQ(provider.cache_stats().admission_promotions, 1u);

  // Promotion is once-per-entry, not once-per-hit.
  provider.AcquireForRoots(g, {0});
  EXPECT_EQ(provider.cache_stats().admission_promotions, 1u);

  // And the promoted bytes are real: wipe memory, reload from disk.
  provider.cache().Clear();
  GuidanceAcquisition reloaded = provider.AcquireForRoots(g, {0});
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_EQ(provider.cache_stats().store_hits, 1u);
  EXPECT_EQ(provider.stats().generations, 1u);
}

TEST(GuidanceAdmissionTest, NullGateAdmitsEverything) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  GuidanceProvider provider(StoreOptions("slfe_admission_null"));
  ASSERT_TRUE(provider.store()->RemoveAll().ok());
  provider.AcquireForRoots(g, {0});
  EXPECT_TRUE(
      provider.store()->Contains(GuidanceCache::MakeKey(g.fingerprint(), {0})));
  EXPECT_EQ(provider.cache_stats().admission_skips, 0u);
}

TEST(GuidanceProviderTest, BaselineRunsAcquireNothing) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  GuidanceProvider provider;
  AppConfig cfg;
  cfg.enable_rr = false;
  cfg.guidance_provider = &provider;
  SsspResult r = RunSssp(g, cfg);
  EXPECT_EQ(r.info.guidance_seconds, 0.0);
  EXPECT_FALSE(r.info.guidance_cache_hit);
  GuidanceCacheStats stats = provider.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace slfe
