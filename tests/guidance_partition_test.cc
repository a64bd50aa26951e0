// Randomized differential harness for guidance generation: on seeded
// random graphs across shapes (chains, stars, RMAT, disconnected unions),
// the serial reference and the DistGraph-range partitioned sweep must
// produce bit-identical guidance — every last_iter, every visited flag,
// every level, and the depth — for every worker count, every forced
// direction policy, and every root-selection flavor. The same holds
// through the Generate dispatcher and through the provider at 1 and 4
// generation threads. This is the lockdown that lets the provider pick the
// sweep from GuidanceProviderOptions::generation_threads alone. The fixed
// graph families live in guidance_parallel_test.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "guidance_check.h"
#include "slfe/common/thread_pool.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_graph.h"
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

/// Seed-perturbed sizes so every (shape, seed) pair is a distinct
/// topology, including shapes whose generator takes no seed (chain/star).
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
      // Three islands with no cross edges: an Erdos-Renyi block, an offset
      // chain, and trailing isolated vertices — exercises unvisited
      // regions and partitions whose ranges straddle island boundaries.
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

/// Seeded random multi-root set (possibly with duplicates — the
/// generators must dedup identically).
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

class GuidancePartitionTest : public ::testing::TestWithParam<HarnessParam> {
};

TEST_P(GuidancePartitionTest, AllStrategiesBitIdentical) {
  Graph g = MakeShapeGraph(GetParam());
  uint64_t seed = GetParam().seed;
  CheckAgainstSerial(g, {0}, "single root");
  CheckAgainstSerial(g, RandomRoots(g, seed, 5), "random roots");
  CheckAgainstSerial(g, SelectSourceRoots(g), "source roots");
  CheckAgainstSerial(g, SelectLocalMinimaRoots(g), "local minima roots");
}

TEST_P(GuidancePartitionTest, PartitionRangesMatchDistGraph) {
  // The generator must slice exactly where the distributed engine does —
  // the whole point of "partition-aware" is that a worker preprocesses
  // the vertices its node later owns.
  Graph g = MakeShapeGraph(GetParam());
  for (int nodes : {1, 3, 4}) {
    DistGraph dg = DistGraph::Build(g, nodes);
    std::vector<VertexRange> exported = DistGraph::BuildRanges(g, nodes);
    ASSERT_EQ(exported.size(), dg.ranges().size());
    for (size_t i = 0; i < exported.size(); ++i) {
      EXPECT_EQ(exported[i].begin, dg.ranges()[i].begin);
      EXPECT_EQ(exported[i].end, dg.ranges()[i].end);
    }
  }
}

TEST_P(GuidancePartitionTest, ProviderStrategiesAgree) {
  // End to end through the provider: a serial (1-thread) and a
  // partitioned (4-thread) provider hand out bit-identical guidance for
  // the same request.
  Graph g = MakeShapeGraph(GetParam());
  std::vector<VertexId> roots = SelectSourceRoots(g);
  if (roots.empty()) return;
  std::shared_ptr<const RRGuidance> serial = ProviderGuidance(g, roots, 1);
  std::shared_ptr<const RRGuidance> partitioned =
      ProviderGuidance(g, roots, 4);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(partitioned, nullptr);
  ExpectBitIdentical(*serial, *partitioned, "provider partitioned");
}

TEST(GuidancePartitionEdgeCases, EmptyGraphAndEmptyRoots) {
  Graph empty;
  ThreadPool pool(3);
  RRGuidance rrg = RRGuidance::GeneratePartitioned(empty, {}, pool);
  EXPECT_EQ(rrg.num_vertices(), 0u);
  EXPECT_EQ(rrg.depth(), 0u);

  Graph chain = Graph::FromEdges(GenerateChain(8));
  RRGuidance noop = RRGuidance::GeneratePartitioned(chain, {}, pool);
  ExpectBitIdentical(RRGuidance::GenerateSerial(chain, {}), noop,
                     "empty roots");
}

TEST(GuidancePartitionEdgeCases, MoreWorkersThanVertices) {
  // Tail ranges are empty; they must neither crash nor skew results.
  Graph g = Graph::FromEdges(GenerateChain(3));
  ThreadPool pool(8);
  ExpectBitIdentical(RRGuidance::GenerateSerial(g, {0}),
                     RRGuidance::GeneratePartitioned(g, {0}, pool),
                     "8 workers, 3 vertices");
}

TEST(GuidancePartitionEdgeCases, BookkeepingIsAccounted) {
  // The fused-merge claim, observable: the partitioned sweep reports a
  // bookkeeping share, and it never exceeds total generation time.
  RmatOptions opt;
  opt.num_vertices = 2048;
  opt.num_edges = 12000;
  opt.seed = 9;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  ThreadPool pool(4);
  RRGuidance serial = RRGuidance::GenerateSerial(g, {0});
  EXPECT_EQ(serial.bookkeeping_seconds(), 0.0);
  RRGuidance rrg = RRGuidance::GeneratePartitioned(g, {0}, pool);
  EXPECT_GT(rrg.bookkeeping_seconds(), 0.0);
  EXPECT_LE(rrg.bookkeeping_seconds(), rrg.generation_seconds());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GuidancePartitionTest,
    ::testing::Values(HarnessParam{Shape::kChain, 1},
                      HarnessParam{Shape::kChain, 2},
                      HarnessParam{Shape::kStar, 1},
                      HarnessParam{Shape::kStar, 2},
                      HarnessParam{Shape::kRmat, 1},
                      HarnessParam{Shape::kRmat, 2},
                      HarnessParam{Shape::kRmat, 3},
                      HarnessParam{Shape::kDisconnected, 1},
                      HarnessParam{Shape::kDisconnected, 2}),
    ParamName);

}  // namespace
}  // namespace slfe
