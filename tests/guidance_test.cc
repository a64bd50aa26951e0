// Tests for the RR guidance preprocessing (paper Algorithm 1) and root
// selection: lastIter must equal 1 + the maximum BFS level among a
// vertex's in-neighbors (the oracle in guidance_check.h), the sweep must
// be O(E)-cheap, and the guidance must be reusable.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "guidance_check.h"
#include "slfe/apps/reference.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

TEST(RRGuidanceTest, MatchesBfsInvariantOnChain) {
  Graph g = Graph::FromEdges(GenerateChain(20));
  CheckGuidance(g, {0}, "chain");
}

TEST(RRGuidanceTest, MatchesBfsInvariantOnGrid) {
  Graph g = Graph::FromEdges(GenerateGrid(8, 9));
  CheckGuidance(g, {0}, "grid");
}

TEST(RRGuidanceTest, MatchesBfsInvariantOnRmat) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 3000;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  CheckGuidance(g, {0}, "rmat");
}

TEST(RRGuidanceTest, MultiRootInvariant) {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1200;
  opt.seed = 5;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  CheckGuidance(g, {0, 17, 99}, "rmat multi-root");
}

TEST(RRGuidanceTest, ChainHasMaximalDepth) {
  Graph g = Graph::FromEdges(GenerateChain(50));
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  EXPECT_EQ(rrg.depth(), 49u);
  EXPECT_EQ(rrg.last_iter(49), 49u);
  EXPECT_EQ(rrg.last_iter(1), 1u);
}

TEST(RRGuidanceTest, StarIsDepthOneFromHub) {
  Graph g = Graph::FromEdges(GenerateStar(8));
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  for (VertexId v = 1; v <= 8; ++v) EXPECT_EQ(rrg.last_iter(v), 1u);
  // Hub's lastIter is 2: spokes (level 1) point back at it.
  EXPECT_EQ(rrg.last_iter(0), 2u);
}

TEST(RRGuidanceTest, UnreachableVerticesStayUnvisited) {
  EdgeList e(6);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(4, 5);  // island
  Graph g = Graph::FromEdges(e);
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  EXPECT_FALSE(rrg.visited(4));
  EXPECT_FALSE(rrg.visited(5));
  EXPECT_EQ(rrg.last_iter(5), 0u);
}

TEST(RRGuidanceTest, EmptyRootsYieldEmptySweep) {
  Graph g = Graph::FromEdges(GenerateChain(5));
  RRGuidance rrg = RRGuidance::Generate(g, {});
  EXPECT_EQ(rrg.depth(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_FALSE(rrg.visited(v));
}

TEST(RRGuidanceTest, GenerationTimeRecorded) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 8000;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  EXPECT_GT(rrg.generation_seconds(), 0.0);
}

TEST(RRGuidanceTest, OverheadIsSmallRelativeToGraphSize) {
  // The preprocessing is one O(E) sweep; generating guidance for a
  // 100k-edge graph must take well under a second even on modest hardware
  // (paper: "negligible overhead").
  RmatOptions opt;
  opt.num_vertices = 16384;
  opt.num_edges = 100000;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  EXPECT_LT(rrg.generation_seconds(), 1.0);
}

// ------------------------------------------------------------------ Roots

TEST(RootsTest, SourceRootsAreZeroInDegree) {
  EdgeList e(5);
  e.Add(0, 2);
  e.Add(1, 2);
  e.Add(2, 3);
  e.Add(3, 4);
  Graph g = Graph::FromEdges(e);
  auto roots = SelectSourceRoots(g);
  EXPECT_EQ(roots, (std::vector<VertexId>{0, 1}));
}

TEST(RootsTest, SourceRootsFallBackToVertexZeroOnCycle) {
  EdgeList e(3);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(2, 0);
  Graph g = Graph::FromEdges(e);
  auto roots = SelectSourceRoots(g);
  EXPECT_EQ(roots, (std::vector<VertexId>{0}));
}

TEST(RootsTest, LocalMinimaIncludeComponentMinimum) {
  RmatOptions opt;
  opt.num_vertices = 128;
  opt.num_edges = 700;
  opt.seed = 13;
  EdgeList e = GenerateRmat(opt);
  e.Symmetrize();
  e.Deduplicate();
  Graph g = Graph::FromEdges(e);
  auto roots = SelectLocalMinimaRoots(g);
  auto labels = ReferenceCc(g);
  // Every component's minimum label vertex must appear among the roots.
  std::set<VertexId> root_set(roots.begin(), roots.end());
  std::set<uint32_t> component_minima(labels.begin(), labels.end());
  for (uint32_t m : component_minima) {
    EXPECT_TRUE(root_set.count(m)) << "component min " << m;
  }
}

TEST(RootsTest, VertexZeroIsAlwaysALocalMinimum) {
  Graph g = Graph::FromEdges(GenerateStar(5));
  auto roots = SelectLocalMinimaRoots(g);
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(roots.front(), 0u);
}

}  // namespace
}  // namespace slfe
