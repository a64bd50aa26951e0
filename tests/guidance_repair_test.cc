// Randomized mutation differential harness for incremental guidance
// repair: on seeded random graphs across shapes (chains, stars, RMAT,
// disconnected unions), a chain of >= 8 random insert/delete batches is
// applied version by version, and at EVERY version the repaired guidance
// (RRGuidance::Repair over the previous version's guidance) must be
// bit-identical — last_iter, visited, depth, AND the levels plane — to a
// fresh Generate on the post-delta graph. The repaired output of step k
// seeds the repair of step k+1, so a single bit of drift anywhere in the
// chain compounds and fails loudly. This is the proof obligation that
// lets the provider treat repair as a pure performance choice.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "slfe/core/guidance_provider.h"
#include "slfe/core/guidance_store.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

enum class Shape { kChain, kStar, kRmat, kDisconnected };

struct HarnessParam {
  Shape shape;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<HarnessParam>& info) {
  const char* shape = info.param.shape == Shape::kChain   ? "Chain"
                      : info.param.shape == Shape::kStar  ? "Star"
                      : info.param.shape == Shape::kRmat  ? "Rmat"
                                                          : "Disconnected";
  return std::string(shape) + "_seed" + std::to_string(info.param.seed);
}

Graph MakeShapeGraph(const HarnessParam& p) {
  switch (p.shape) {
    case Shape::kChain:
      return Graph::FromEdges(
          GenerateChain(static_cast<VertexId>(48 + p.seed * 13 % 71)));
    case Shape::kStar:
      return Graph::FromEdges(
          GenerateStar(static_cast<VertexId>(24 + p.seed * 7 % 53)));
    case Shape::kRmat: {
      RmatOptions opt;
      opt.num_vertices = 256;
      opt.num_edges = 1500;
      opt.seed = p.seed;
      return Graph::FromEdges(GenerateRmat(opt));
    }
    case Shape::kDisconnected: {
      // Islands with no cross edges: an Erdos-Renyi block, an offset
      // chain, and trailing isolated vertices — deltas here empty and
      // re-populate whole components.
      EdgeList er = GenerateErdosRenyi(96, 300, p.seed);
      EdgeList e(160);
      for (const Edge& edge : er.edges()) e.Add(edge.src, edge.dst);
      for (VertexId v = 96; v < 140; ++v) e.Add(v, v + 1);
      e.set_num_vertices(160);  // 141..159 isolated
      return Graph::FromEdges(e);
    }
  }
  return Graph();
}

std::vector<VertexId> RandomRoots(const Graph& g, uint64_t seed,
                                  size_t count) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::uniform_int_distribution<VertexId> pick(
      0, g.num_vertices() > 0 ? g.num_vertices() - 1 : 0);
  std::vector<VertexId> roots;
  roots.reserve(count);
  for (size_t i = 0; i < count; ++i) roots.push_back(pick(rng));
  return roots;
}

/// The full bit-identity: records, depth, and the levels plane.
void ExpectGuidanceIdentical(const RRGuidance& want, const RRGuidance& got,
                             const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.depth(), got.depth()) << label;
  ASSERT_TRUE(want.has_levels()) << label;
  ASSERT_TRUE(got.has_levels()) << label;
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    ASSERT_EQ(want.last_iter(v), got.last_iter(v))
        << label << " last_iter mismatch at v=" << v;
    ASSERT_EQ(want.visited(v), got.visited(v))
        << label << " visited mismatch at v=" << v;
    ASSERT_EQ(want.level(v), got.level(v))
        << label << " level mismatch at v=" << v;
  }
}

enum class BatchKind { kInsertOnly, kDeleteOnly, kMixed };

/// A random batch of the requested flavor. Deletions come from the live
/// edge set (plus occasional misses); insertions are uniform pairs, some
/// duplicating live edges, some growing the vertex set by one.
GraphDelta RandomDelta(const Graph& g, std::mt19937_64& rng, BatchKind kind,
                       bool allow_growth) {
  GraphDelta delta;
  std::uniform_int_distribution<VertexId> pick_v(0, g.num_vertices() - 1);
  std::uniform_int_distribution<int> count(1, 6);
  if (kind != BatchKind::kInsertOnly) {
    int deletes = count(rng);
    for (int i = 0; i < deletes; ++i) {
      VertexId u = pick_v(rng);
      if (g.out_degree(u) > 0) {
        std::uniform_int_distribution<EdgeId> pick_e(g.out().begin(u),
                                                     g.out().end(u) - 1);
        delta.erase.emplace_back(u, g.out().neighbor(pick_e(rng)));
      } else {
        delta.erase.emplace_back(u, pick_v(rng));  // likely a miss
      }
    }
  }
  if (kind != BatchKind::kDeleteOnly) {
    int inserts = count(rng);
    for (int i = 0; i < inserts; ++i) {
      VertexId src = pick_v(rng);
      VertexId dst = allow_growth && rng() % 8 == 0 ? g.num_vertices()
                                                    : pick_v(rng);
      delta.insert.push_back(Edge{src, dst, 1.0f});
    }
  }
  return delta;
}

/// The differential core: >= 8 batches cycling insert-only / delete-only
/// / mixed, chained ON THE REPAIRED GUIDANCE, checked against a fresh
/// serial sweep at every version.
void RunMutationChain(Graph graph, std::vector<VertexId> roots,
                      uint64_t seed, const std::string& label,
                      bool allow_growth) {
  if (roots.empty()) return;
  std::mt19937_64 rng(seed * 0x51afd6ed558ccd65ull + 7);
  RRGuidance current = RRGuidance::Generate(graph, roots);
  ASSERT_TRUE(current.has_levels()) << label;
  constexpr BatchKind kCycle[] = {BatchKind::kInsertOnly,
                                  BatchKind::kDeleteOnly, BatchKind::kMixed};
  for (int step = 0; step < 9; ++step) {
    GraphDelta delta = RandomDelta(graph, rng, kCycle[step % 3], allow_growth);
    Result<Graph> next = ApplyDelta(graph, delta);
    ASSERT_TRUE(next.ok()) << label << ": " << next.status().ToString();
    GuidanceRepairStats stats;
    Result<RRGuidance> repaired = RRGuidance::Repair(
        next.value(), delta, current, roots, roots, 1.0, &stats);
    std::string tag = label + " step " + std::to_string(step);
    ASSERT_TRUE(repaired.ok()) << tag << ": " << repaired.status().ToString();
    RRGuidance fresh = RRGuidance::Generate(next.value(), roots);
    ExpectGuidanceIdentical(fresh, repaired.value(), tag);
    EXPECT_LE(stats.invalidated, next.value().num_vertices()) << tag;
    graph = std::move(next).value();
    current = std::move(repaired).value();
  }
}

class GuidanceRepairTest : public ::testing::TestWithParam<HarnessParam> {};

TEST_P(GuidanceRepairTest, RepairedEqualsRegeneratedAcrossMutationChains) {
  const HarnessParam& p = GetParam();
  std::string name = ParamName(::testing::TestParamInfo<HarnessParam>(p, 0));
  Graph g = MakeShapeGraph(p);
  RunMutationChain(g, {0}, p.seed, name + " single root",
                   /*allow_growth=*/true);
  RunMutationChain(g, RandomRoots(g, p.seed, 5), p.seed + 1,
                   name + " random roots", /*allow_growth=*/true);
  RunMutationChain(g, SelectSourceRoots(g), p.seed + 2, name + " source roots",
                   /*allow_growth=*/false);
}

// ----------------------------------------------------------- edge cases

TEST(GuidanceRepairEdgeCases, DeltaSeveringTheRootEdge) {
  // Deleting the root's only out-edge orphans the entire downstream chain:
  // the worst-case cascade, still bit-identical with no fraction bound.
  Graph chain = Graph::FromEdges(GenerateChain(30));
  GraphDelta delta;
  delta.erase.emplace_back(0, 1);
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  auto repaired =
      RRGuidance::Repair(next.value(), delta,
                         RRGuidance::Generate(chain, {0}), {0}, {0});
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ExpectGuidanceIdentical(RRGuidance::Generate(next.value(), {0}),
                          repaired.value(), "severed root edge");
}

TEST(GuidanceRepairEdgeCases, RootSetChangesWithEmptyDelta) {
  // Same topology, different roots: removal (old root loses root status)
  // and addition (a mid-chain vertex becomes a root) both repair.
  Graph chain = Graph::FromEdges(GenerateChain(25));
  GraphDelta empty;
  RRGuidance both = RRGuidance::Generate(chain, {0, 12});
  auto removed = RRGuidance::Repair(chain, empty, both, {0, 12}, {0});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ExpectGuidanceIdentical(RRGuidance::Generate(chain, {0}),
                          removed.value(), "root removed");
  RRGuidance solo = RRGuidance::Generate(chain, {0});
  auto added = RRGuidance::Repair(chain, empty, solo, {0}, {0, 12});
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ExpectGuidanceIdentical(RRGuidance::Generate(chain, {0, 12}),
                          added.value(), "root added");
}

TEST(GuidanceRepairEdgeCases, DeltaEmptyingAComponent) {
  // Two islands; the delta deletes every edge of the second AND drops its
  // root, leaving the component fully unreachable.
  EdgeList e(20);
  for (VertexId v = 0; v < 9; ++v) e.Add(v, v + 1);
  for (VertexId v = 10; v < 19; ++v) e.Add(v, v + 1);
  Graph g = Graph::FromEdges(e);
  RRGuidance old_guidance = RRGuidance::Generate(g, {0, 10});
  GraphDelta delta;
  for (VertexId v = 10; v < 19; ++v) delta.erase.emplace_back(v, v + 1);
  Result<Graph> next = ApplyDelta(g, delta);
  ASSERT_TRUE(next.ok());
  auto repaired =
      RRGuidance::Repair(next.value(), delta, old_guidance, {0, 10}, {0});
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ExpectGuidanceIdentical(RRGuidance::Generate(next.value(), {0}),
                          repaired.value(), "emptied component");
  for (VertexId v = 10; v < 20; ++v) {
    EXPECT_FALSE(repaired.value().visited(v)) << "v=" << v;
    EXPECT_EQ(repaired.value().level(v), RRGuidance::kUnreachableLevel)
        << "v=" << v;
  }
}

TEST(GuidanceRepairEdgeCases, NoOpDeltaIsAnIdentityRepair) {
  Graph g = Graph::FromEdges(GenerateStar(12));
  RRGuidance old_guidance = RRGuidance::Generate(g, {0});
  GuidanceRepairStats stats;
  auto repaired = RRGuidance::Repair(g, GraphDelta{}, old_guidance, {0}, {0},
                                     1.0, &stats);
  ASSERT_TRUE(repaired.ok());
  ExpectGuidanceIdentical(old_guidance, repaired.value(), "no-op delta");
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(stats.level_changes, 0u);
}

TEST(GuidanceRepairEdgeCases, AddedRootInTheGrownRegion) {
  // The delta grows the vertex set and the new root lives in the grown
  // region — exercises the old-levels-don't-cover-it path end to end.
  Graph chain = Graph::FromEdges(GenerateChain(10));
  GraphDelta delta;
  delta.insert.push_back(Edge{9, 10, 1.0f});
  delta.insert.push_back(Edge{12, 13, 1.0f});
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  auto repaired =
      RRGuidance::Repair(next.value(), delta,
                         RRGuidance::Generate(chain, {0}), {0}, {0, 12});
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ExpectGuidanceIdentical(RRGuidance::Generate(next.value(), {0, 12}),
                          repaired.value(), "grown root");
}

TEST(GuidanceRepairEdgeCases, LevelslessPredecessorIsFailedPrecondition) {
  // Guidance reloaded from a pre-levels store codec cannot seed a repair.
  Graph g = Graph::FromEdges(GenerateChain(6));
  RRGuidance full = RRGuidance::Generate(g, {0});
  std::vector<VertexGuidance> records(full.raw());
  RRGuidance levelless = RRGuidance::FromParts(std::move(records),
                                               full.depth());
  ASSERT_FALSE(levelless.has_levels());
  EXPECT_EQ(RRGuidance::Repair(g, GraphDelta{}, levelless, {0}, {0})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(GuidanceRepairEdgeCases, CascadeBoundAbortsOversizedRepairs) {
  // Severing a 100-chain at the head invalidates 99% of the vertices;
  // with max_affected_fraction = 0.1 the repair must abort so the caller
  // regenerates instead.
  Graph chain = Graph::FromEdges(GenerateChain(100));
  GraphDelta delta;
  delta.erase.emplace_back(0, 1);
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  RRGuidance old_guidance = RRGuidance::Generate(chain, {0});
  EXPECT_EQ(RRGuidance::Repair(next.value(), delta, old_guidance, {0}, {0},
                               /*max_affected_fraction=*/0.1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // The same repair with no bound succeeds and matches.
  auto unbounded =
      RRGuidance::Repair(next.value(), delta, old_guidance, {0}, {0});
  ASSERT_TRUE(unbounded.ok());
  ExpectGuidanceIdentical(RRGuidance::Generate(next.value(), {0}),
                          unbounded.value(), "unbounded fallback");
}

TEST(GuidanceRepairEdgeCases, TailDeletionStaysLocal) {
  // The whole point of repair: a delta at the far end of a 1000-chain
  // must invalidate exactly the severed vertex, not re-walk the chain.
  Graph chain = Graph::FromEdges(GenerateChain(1000));
  GraphDelta delta;
  delta.erase.emplace_back(998, 999);
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  GuidanceRepairStats stats;
  auto repaired = RRGuidance::Repair(next.value(), delta,
                                     RRGuidance::Generate(chain, {0}),
                                     {0}, {0}, 1.0, &stats);
  ASSERT_TRUE(repaired.ok());
  ExpectGuidanceIdentical(RRGuidance::Generate(next.value(), {0}),
                          repaired.value(), "tail deletion");
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.level_changes, 1u);
  EXPECT_LE(stats.patched, 4u);
}

// ------------------------------------------------- provider repair path

TEST(GuidanceProviderRepair, MissAfterRecordedMutationIsServedByRepair) {
  GuidanceProviderOptions options;
  GuidanceProvider provider(options);
  auto g1 = std::make_shared<const Graph>(Graph::FromEdges(GenerateChain(40)));
  GuidanceAcquisition first = provider.AcquireForRoots(*g1, {0});
  ASSERT_TRUE(first);
  EXPECT_FALSE(first.repaired);
  EXPECT_EQ(provider.stats().generations, 1u);

  auto delta = std::make_shared<const GraphDelta>(
      GraphDelta{{}, {{static_cast<VertexId>(20), static_cast<VertexId>(21)}}});
  Result<Graph> next = ApplyDelta(*g1, *delta);
  ASSERT_TRUE(next.ok());
  auto g2 = std::make_shared<const Graph>(std::move(next).value());
  provider.RecordMutation(g1, *g2, delta);

  GuidanceAcquisition second = provider.AcquireForRoots(*g2, {0});
  ASSERT_TRUE(second);
  EXPECT_TRUE(second.repaired);
  EXPECT_FALSE(second.cache_hit);
  GuidanceProviderStats stats = provider.stats();
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.repair_fallbacks, 0u);
  EXPECT_EQ(stats.generations, 1u);  // the repair replaced the second sweep
  ExpectGuidanceIdentical(RRGuidance::Generate(*g2, {0}),
                          *second.guidance, "provider repair");

  // The repaired entry is cached like any generated one.
  GuidanceAcquisition third = provider.AcquireForRoots(*g2, {0});
  EXPECT_TRUE(third.cache_hit);
}

TEST(GuidanceProviderRepair, PolicyPathRepairsWithRederivedOldRoots) {
  GuidanceProviderOptions options;
  GuidanceProvider provider(options);
  auto g1 = std::make_shared<const Graph>(Graph::FromEdges(GenerateChain(30)));
  GuidanceRequest request;
  request.policy = GuidanceRootPolicy::kSingleSource;
  request.root = 0;
  ASSERT_TRUE(provider.Acquire(*g1, request));

  auto delta = std::make_shared<const GraphDelta>(
      GraphDelta{{Edge{5, 20, 1.0f}}, {}});
  Result<Graph> next = ApplyDelta(*g1, *delta);
  ASSERT_TRUE(next.ok());
  auto g2 = std::make_shared<const Graph>(std::move(next).value());
  provider.RecordMutation(g1, *g2, delta);

  GuidanceAcquisition repaired = provider.Acquire(*g2, request);
  ASSERT_TRUE(repaired);
  EXPECT_TRUE(repaired.repaired);
  ExpectGuidanceIdentical(RRGuidance::Generate(*g2, {0}),
                          *repaired.guidance, "policy repair");
}

TEST(GuidanceProviderRepair, OversizedDeltaFallsBackToRegeneration) {
  GuidanceProviderOptions options;
  options.repair.max_delta_fraction = 0.0;  // every non-empty delta is "big"
  GuidanceProvider provider(options);
  auto g1 = std::make_shared<const Graph>(Graph::FromEdges(GenerateChain(20)));
  ASSERT_TRUE(provider.AcquireForRoots(*g1, {0}));

  auto delta = std::make_shared<const GraphDelta>(
      GraphDelta{{}, {{static_cast<VertexId>(3), static_cast<VertexId>(4)}}});
  Result<Graph> next = ApplyDelta(*g1, *delta);
  ASSERT_TRUE(next.ok());
  auto g2 = std::make_shared<const Graph>(std::move(next).value());
  provider.RecordMutation(g1, *g2, delta);

  GuidanceAcquisition second = provider.AcquireForRoots(*g2, {0});
  ASSERT_TRUE(second);
  EXPECT_FALSE(second.repaired);
  GuidanceProviderStats stats = provider.stats();
  EXPECT_EQ(stats.repairs, 0u);
  EXPECT_EQ(stats.repair_fallbacks, 1u);
  EXPECT_EQ(stats.generations, 2u);
  // Fallback still yields correct guidance, just via the sweep.
  ExpectGuidanceIdentical(RRGuidance::Generate(*g2, {0}),
                          *second.guidance, "fallback guidance");
}

TEST(GuidanceProviderRepair, UnrecordedMutationIsNotCountedAsFallback) {
  // No lineage = nothing to repair = a plain generation, not a "repair
  // fallback" (the counter means "we tried and bailed").
  GuidanceProviderOptions options;
  GuidanceProvider provider(options);
  Graph g = Graph::FromEdges(GenerateChain(10));
  ASSERT_TRUE(provider.AcquireForRoots(g, {0}));
  GuidanceProviderStats stats = provider.stats();
  EXPECT_EQ(stats.repair_fallbacks, 0u);
  EXPECT_EQ(stats.repairs, 0u);
}

TEST(GuidanceProviderRepair, WarmRestartRepairsFromStoredGuidance) {
  // Provider A generates and persists v1's guidance (levels included, the
  // new store codecs). Provider B — a fresh process in spirit — records
  // the mutation and must repair from the STORE-loaded predecessor.
  std::string dir = ::testing::TempDir() + "slfe_repair_store";
  {
    GuidanceStore wipe(dir);
    wipe.RemoveAll();
  }
  auto g1 = std::make_shared<const Graph>(Graph::FromEdges(GenerateChain(35)));
  auto delta = std::make_shared<const GraphDelta>(
      GraphDelta{{Edge{3, 30, 1.0f}}, {{static_cast<VertexId>(17),
                                        static_cast<VertexId>(18)}}});
  Result<Graph> next = ApplyDelta(*g1, *delta);
  ASSERT_TRUE(next.ok());
  auto g2 = std::make_shared<const Graph>(std::move(next).value());

  GuidanceProviderOptions options;
  options.store_dir = dir;
  {
    GuidanceProvider writer(options);
    ASSERT_TRUE(writer.AcquireForRoots(*g1, {0}));
  }
  GuidanceProvider reader(options);
  reader.RecordMutation(g1, *g2, delta);
  GuidanceAcquisition repaired = reader.AcquireForRoots(*g2, {0});
  ASSERT_TRUE(repaired);
  EXPECT_TRUE(repaired.repaired)
      << "store-loaded predecessor guidance must carry its levels plane";
  EXPECT_EQ(reader.stats().generations, 0u);
  ExpectGuidanceIdentical(RRGuidance::Generate(*g2, {0}),
                          *repaired.guidance, "warm-restart repair");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GuidanceRepairTest,
    ::testing::Values(HarnessParam{Shape::kChain, 1},
                      HarnessParam{Shape::kChain, 2},
                      HarnessParam{Shape::kChain, 3},
                      HarnessParam{Shape::kStar, 1},
                      HarnessParam{Shape::kStar, 2},
                      HarnessParam{Shape::kStar, 3},
                      HarnessParam{Shape::kRmat, 1},
                      HarnessParam{Shape::kRmat, 2},
                      HarnessParam{Shape::kRmat, 3},
                      HarnessParam{Shape::kDisconnected, 1},
                      HarnessParam{Shape::kDisconnected, 2},
                      HarnessParam{Shape::kDisconnected, 3}),
    ParamName);

}  // namespace
}  // namespace slfe
