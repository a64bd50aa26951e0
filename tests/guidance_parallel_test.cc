// Equivalence tests for parallel guidance generation on fixed graph
// families (chain, star, random, cycle-bound, grid, islands): for every
// worker count and direction policy, the partitioned sweep, the Generate
// dispatcher and the provider must produce exactly the serial reference's
// last_iter / visited / level / depth. The randomized counterpart lives in
// guidance_partition_test.

#include <gtest/gtest.h>

#include <vector>

#include "guidance_check.h"
#include "slfe/common/thread_pool.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

TEST(GuidanceParallelTest, Chain) {
  Graph g = Graph::FromEdges(GenerateChain(64));
  CheckAgainstSerial(g, {0}, "chain");
  CheckAgainstSerial(g, {10, 40}, "chain multi-root");
}

TEST(GuidanceParallelTest, Star) {
  Graph g = Graph::FromEdges(GenerateStar(32));
  CheckAgainstSerial(g, {0}, "star hub");
  CheckAgainstSerial(g, {5}, "star spoke");
}

TEST(GuidanceParallelTest, RandomRmat) {
  RmatOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 3000;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  CheckAgainstSerial(g, {0}, "rmat single root");
  CheckAgainstSerial(g, {0, 17, 99, 300}, "rmat multi root");
  CheckAgainstSerial(g, SelectSourceRoots(g), "rmat source roots");
}

TEST(GuidanceParallelTest, CycleBound) {
  // Directed ring: no zero-in-degree vertex, maximal propagation depth.
  EdgeList e(48);
  for (VertexId v = 0; v < 48; ++v) e.Add(v, (v + 1) % 48);
  Graph g = Graph::FromEdges(e);
  CheckAgainstSerial(g, {0}, "cycle");
  CheckAgainstSerial(g, SelectSourceRoots(g), "cycle fallback root");
}

TEST(GuidanceParallelTest, Grid) {
  Graph g = Graph::FromEdges(GenerateGrid(12, 13));
  CheckAgainstSerial(g, {0}, "grid");
}

TEST(GuidanceParallelTest, DisconnectedIslands) {
  EdgeList e(10);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(5, 6);  // island unreachable from 0
  e.Add(6, 7);
  Graph g = Graph::FromEdges(e);
  CheckAgainstSerial(g, {0}, "islands from 0");
  CheckAgainstSerial(g, {0, 5}, "islands both");
}

TEST(GuidanceParallelTest, EmptyRootsAndEmptyGraph) {
  Graph g = Graph::FromEdges(GenerateChain(8));
  CheckAgainstSerial(g, {}, "empty roots");
  Graph empty;
  ThreadPool pool(2);
  RRGuidance rrg = RRGuidance::GeneratePartitioned(empty, {}, pool);
  EXPECT_EQ(rrg.num_vertices(), 0u);
  EXPECT_EQ(rrg.depth(), 0u);
}

TEST(GuidanceParallelTest, DuplicateRootsDedup) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  CheckAgainstSerial(g, {3, 3, 3, 0, 0}, "duplicate roots");
}

TEST(GuidanceParallelTest, SingleWorkerPoolFallsBackToSerial) {
  Graph g = Graph::FromEdges(GenerateChain(16));
  ThreadPool pool(1);
  // The dispatcher routes 1-worker pools to the serial reference.
  ExpectBitIdentical(RRGuidance::GenerateSerial(g, {0}),
                     RRGuidance::Generate(g, {0}, &pool), "single worker");
}

TEST(GuidanceParallelTest, GenerateAllRootsParallelMatchesSerial) {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 1400;
  opt.seed = 11;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  ThreadPool pool(4);
  ExpectBitIdentical(RRGuidance::GenerateAllRoots(g),
                     RRGuidance::GenerateAllRoots(g, &pool), "all roots");
}

}  // namespace
}  // namespace slfe
