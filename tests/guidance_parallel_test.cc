// Guidance generation on fixed graph families (chain, star, random,
// cycle-bound, grid, islands): RRGuidance::Generate and the provider must
// match the BFS oracle in last_iter / visited / level / depth. The
// randomized counterpart lives in guidance_partition_test.

#include <gtest/gtest.h>

#include <vector>

#include "guidance_check.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

TEST(GuidanceParallelTest, Chain) {
  Graph g = Graph::FromEdges(GenerateChain(64));
  CheckGuidance(g, {0}, "chain");
  CheckGuidance(g, {10, 40}, "chain multi-root");
}

TEST(GuidanceParallelTest, Star) {
  Graph g = Graph::FromEdges(GenerateStar(32));
  CheckGuidance(g, {0}, "star hub");
  CheckGuidance(g, {5}, "star spoke");
}

TEST(GuidanceParallelTest, RandomRmat) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 3000;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  CheckGuidance(g, {0}, "rmat single root");
  CheckGuidance(g, {0, 17, 99, 300}, "rmat multi root");
  CheckGuidance(g, SelectSourceRoots(g), "rmat source roots");
}

TEST(GuidanceParallelTest, CycleBound) {
  // Directed ring: no zero-in-degree vertex, maximal propagation depth.
  EdgeList e(48);
  for (VertexId v = 0; v < 48; ++v) e.Add(v, (v + 1) % 48);
  Graph g = Graph::FromEdges(e);
  CheckGuidance(g, {0}, "cycle");
  CheckGuidance(g, SelectSourceRoots(g), "cycle fallback root");
}

TEST(GuidanceParallelTest, Grid) {
  Graph g = Graph::FromEdges(GenerateGrid(12, 13));
  CheckGuidance(g, {0}, "grid");
}

TEST(GuidanceParallelTest, DisconnectedIslands) {
  EdgeList e(10);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(5, 6);  // island unreachable from 0
  e.Add(6, 7);
  Graph g = Graph::FromEdges(e);
  CheckGuidance(g, {0}, "islands from 0");
  CheckGuidance(g, {0, 5}, "islands both");
}

TEST(GuidanceParallelTest, EmptyRootsAndEmptyGraph) {
  Graph g = Graph::FromEdges(GenerateChain(8));
  CheckGuidance(g, {}, "empty roots");
  CheckGuidance(Graph(), {}, "empty graph");
}

TEST(GuidanceParallelTest, DuplicateRootsDedup) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  CheckGuidance(g, {3, 3, 3, 0, 0}, "duplicate roots");
}

TEST(GuidanceParallelTest, GenerateAllRootsMatchesOracle) {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1400;
  opt.seed = 11;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  CheckGuidanceInvariant(g, SelectSourceRoots(g),
                         RRGuidance::GenerateAllRoots(g), "all roots");
}

}  // namespace
}  // namespace slfe
