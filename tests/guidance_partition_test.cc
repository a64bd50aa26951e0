// Randomized harness for guidance generation: on seeded random graphs
// across shapes (chains, stars, RMAT, disconnected unions) and every
// root-selection flavor, RRGuidance::Generate and the provider must match
// the BFS oracle in every last_iter, every visited flag, every level, and
// the depth. The fixed graph families live in guidance_parallel_test.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "guidance_check.h"
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
      // regions and ranges that straddle island boundaries.
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
  CheckGuidance(g, {0}, "single root");
  CheckGuidance(g, RandomRoots(g, seed, 5), "random roots");
  CheckGuidance(g, SelectSourceRoots(g), "source roots");
  CheckGuidance(g, SelectLocalMinimaRoots(g), "local minima roots");
}

TEST_P(GuidancePartitionTest, PartitionRangesMatchDistGraph) {
  // The exported ranges (ShmEngine's slices, the arena's persisted
  // partition) must be exactly where the distributed engine cuts.
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
  // End to end through the provider: the guidance it hands out is the
  // oracle's.
  Graph g = MakeShapeGraph(GetParam());
  std::vector<VertexId> roots = SelectSourceRoots(g);
  if (roots.empty()) return;
  std::shared_ptr<const RRGuidance> got = ProviderGuidance(g, roots);
  ASSERT_NE(got, nullptr);
  CheckGuidanceInvariant(g, roots, *got, "provider");
}

TEST(GuidancePartitionEdgeCases, EmptyGraphAndEmptyRoots) {
  CheckGuidance(Graph(), {}, "empty graph");
  CheckGuidance(Graph::FromEdges(GenerateChain(8)), {}, "empty roots");
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
