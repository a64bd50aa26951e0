// Equivalence and behavior tests for the comparator systems: the
// PowerGraph/PowerLyra-style GAS engine, the Ligra-style shared-memory
// engine, and the GraphChi-style out-of-core engine. All must reach the
// same fixpoints as the sequential references; their cost profiles must
// differ in the ways the paper's comparisons rely on.

#include <gtest/gtest.h>

#include <cstdio>

#include "slfe/apps/reference.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/gas/gas_apps.h"
#include "slfe/graph/generators.h"
#include "slfe/ooc/ooc_engine.h"
#include "slfe/shm/shm_engine.h"

namespace slfe {
namespace {

Graph WeightedRmat(VertexId n, EdgeId m, uint64_t seed) {
  RmatOptions opt;
  opt.num_vertices = n;
  opt.num_edges = m;
  opt.weighted = true;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Deduplicate();
  return Graph::FromEdges(e);
}

Graph SymmetricRmat(VertexId n, EdgeId m, uint64_t seed) {
  RmatOptions opt;
  opt.num_vertices = n;
  opt.num_edges = m;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Symmetrize();
  e.Deduplicate();
  return Graph::FromEdges(e);
}

// ------------------------------------------------------------------- GAS

class GasPlacementTest : public ::testing::TestWithParam<gas::Placement> {};

TEST_P(GasPlacementTest, SsspMatchesDijkstra) {
  Graph g = WeightedRmat(512, 4000, 7);
  gas::GasOptions opt;
  opt.num_nodes = 8;
  opt.placement = GetParam();
  auto result = gas::RunGasSssp(g, 0, opt);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(result.dist[v], ref[v]) << "v=" << v;
  }
}

TEST_P(GasPlacementTest, CcMatchesReference) {
  Graph g = SymmetricRmat(256, 1500, 11);
  gas::GasOptions opt;
  opt.num_nodes = 4;
  opt.placement = GetParam();
  auto result = gas::RunGasCc(g, opt);
  auto ref = ReferenceCc(g);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(result.labels[v], ref[v]) << "v=" << v;
  }
}

TEST_P(GasPlacementTest, WpMatchesReference) {
  Graph g = WeightedRmat(512, 4000, 7);
  gas::GasOptions opt;
  opt.num_nodes = 8;
  opt.placement = GetParam();
  auto result = gas::RunGasWp(g, 0, opt);
  auto ref = ReferenceWp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(result.width[v], ref[v]) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, GasPlacementTest,
                         ::testing::Values(gas::Placement::kRandomVertexCut,
                                           gas::Placement::kHybridCut));

TEST(GasGuidedTest, GuidedCcMatchesBaselineAndSkipsWork) {
  Graph g = SymmetricRmat(256, 1500, 11);
  gas::GasOptions opt;
  opt.num_nodes = 4;
  auto baseline = gas::RunGasCc(g, opt);
  GuidanceProvider provider;
  auto guided = gas::RunGasCcGuided(g, opt, &provider);
  EXPECT_EQ(guided.labels, baseline.labels);
  EXPECT_GT(guided.stats.skipped, 0u);  // "start late" deferred gathers
  EXPECT_EQ(provider.cache_stats().misses, 1u);
  // A repeat run shares the provider's cached guidance (§4.4 amortization
  // now spans the GAS comparator too).
  auto repeat = gas::RunGasCcGuided(g, opt, &provider);
  EXPECT_EQ(repeat.labels, baseline.labels);
  EXPECT_EQ(provider.cache_stats().hits, 1u);
}

TEST(GasGuidedTest, GuidedSsspMatchesBaseline) {
  Graph g = WeightedRmat(512, 4000, 7);
  gas::GasOptions opt;
  opt.num_nodes = 8;
  auto baseline = gas::RunGasSssp(g, 0, opt);
  GuidanceProvider provider;
  auto guided = gas::RunGasSsspGuided(g, 0, opt, &provider);
  ASSERT_EQ(guided.dist.size(), baseline.dist.size());
  for (size_t v = 0; v < baseline.dist.size(); ++v) {
    EXPECT_EQ(guided.dist[v], baseline.dist[v]) << "v=" << v;
  }
  EXPECT_GT(guided.stats.skipped, 0u);
}

TEST(GasEngineTest, PrMatchesReference) {
  Graph g = WeightedRmat(512, 4000, 7);
  gas::GasOptions opt;
  opt.num_nodes = 8;
  auto result = gas::RunGasPr(g, 20, opt);
  auto ref = ReferencePr(g, 20);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(result.ranks[v], ref[v], 1e-4) << "v=" << v;
  }
}

TEST(GasEngineTest, TrMatchesReference) {
  Graph g = WeightedRmat(512, 4000, 7);
  gas::GasOptions opt;
  opt.num_nodes = 8;
  auto result = gas::RunGasTr(g, 15, opt);
  auto ref = ReferenceTr(g, 15);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(result.influence[v], ref[v], 1e-3) << "v=" << v;
  }
}

TEST(GasEngineTest, HybridCutReducesReplication) {
  // PowerLyra's core claim: hybrid placement lowers the replication factor
  // on skewed graphs, hence less communication than PowerGraph.
  Graph g = WeightedRmat(2048, 30000, 21);
  gas::GasOptions pg;
  pg.num_nodes = 8;
  pg.placement = gas::Placement::kRandomVertexCut;
  gas::GasOptions pl = pg;
  pl.placement = gas::Placement::kHybridCut;
  gas::GasEngine<float> eng_pg(g, pg);
  gas::GasEngine<float> eng_pl(g, pl);
  uint64_t rep_pg = 0, rep_pl = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    rep_pg += eng_pg.replication(v);
    rep_pl += eng_pl.replication(v);
  }
  EXPECT_LT(rep_pl, rep_pg);
}

TEST(GasEngineTest, HybridCutLowersCommBytes) {
  Graph g = WeightedRmat(2048, 30000, 21);
  gas::GasOptions pg;
  pg.num_nodes = 8;
  pg.placement = gas::Placement::kRandomVertexCut;
  gas::GasOptions pl = pg;
  pl.placement = gas::Placement::kHybridCut;
  auto r_pg = gas::RunGasPr(g, 5, pg);
  auto r_pl = gas::RunGasPr(g, 5, pl);
  EXPECT_LT(r_pl.stats.bytes, r_pg.stats.bytes);
}

TEST(GasEngineTest, IterationCapStopsRun) {
  Graph g = WeightedRmat(256, 2000, 5);
  gas::GasOptions opt;
  opt.num_nodes = 2;
  auto result = gas::RunGasPr(g, 3, opt);
  EXPECT_EQ(result.stats.supersteps, 3u);
}

// ------------------------------------------------------------------- SHM

class ShmThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShmThreadsTest, SsspMatchesDijkstra) {
  Graph g = WeightedRmat(512, 4000, 7);
  std::vector<float> dist;
  shm::ShmSssp(g, 0, GetParam(), &dist);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(dist[v], ref[v]) << "v=" << v;
  }
}

TEST_P(ShmThreadsTest, CcMatchesReference) {
  Graph g = SymmetricRmat(256, 1500, 11);
  std::vector<uint32_t> labels;
  shm::ShmCc(g, GetParam(), &labels);
  auto ref = ReferenceCc(g);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(labels[v], ref[v]) << "v=" << v;
  }
}

TEST_P(ShmThreadsTest, PrMatchesReference) {
  Graph g = WeightedRmat(512, 4000, 7);
  std::vector<float> ranks;
  shm::ShmPr(g, 20, GetParam(), &ranks);
  auto ref = ReferencePr(g, 20);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(ranks[v], ref[v], 1e-3) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ShmThreadsTest,
                         ::testing::Values(1, 2, 4));

TEST(ShmEngineTest, RangesMatchDistGraphBuildRanges) {
  // The engine's per-worker slices are the exact edge-balanced ranges
  // DistGraph::BuildRanges cuts for a cluster of the same size.
  Graph g = WeightedRmat(300, 2400, 11);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    shm::ShmEngine engine(g, threads);
    std::vector<VertexRange> want =
        DistGraph::BuildRanges(g, static_cast<int>(threads));
    ASSERT_EQ(engine.ranges().size(), want.size()) << threads;
    ASSERT_EQ(want.size(), threads);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(engine.ranges()[i].begin, want[i].begin);
      EXPECT_EQ(engine.ranges()[i].end, want[i].end);
    }
    // The ranges tile [0, |V|) exactly.
    EXPECT_EQ(engine.ranges().front().begin, 0u);
    EXPECT_EQ(engine.ranges().back().end, g.num_vertices());
  }
}

TEST(ShmEngineTest, DirectionOptimizationUsesBothModes) {
  // BFS-like frontier growth on a grid should start sparse (push) and the
  // stats must show edge evaluations bounded by |E| per superstep.
  Graph g = Graph::FromEdges(GenerateGrid(20, 20, true));
  std::vector<float> dist;
  shm::ShmStats stats = shm::ShmSssp(g, 0, 2, &dist);
  EXPECT_GT(stats.supersteps, 10u);  // grid diameter forces many steps
  EXPECT_GT(stats.computations, 0u);
}

// ------------------------------------------------------------------- OOC

TEST(OocEngineTest, BuildCreatesShardsAndStreamsAllEdges) {
  Graph g = WeightedRmat(256, 2000, 9);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t1";
  auto engine = ooc::OocEngine::Build(g, dir, 4);
  ASSERT_TRUE(engine.ok());
  uint64_t edges_seen = 0;
  ooc::OocStats stats;
  ASSERT_TRUE(engine.value()
                  .RunIteration([&](VertexId, VertexId, Weight) { ++edges_seen; },
                                &stats)
                  .ok());
  EXPECT_EQ(edges_seen, g.num_edges());
  EXPECT_EQ(stats.computations, g.num_edges());
  EXPECT_EQ(stats.bytes_read, g.num_edges() * 12u);  // 12-byte records
  EXPECT_GT(stats.io_seconds, 0.0);
  engine.value().RemoveFiles();
}

TEST(OocEngineTest, ShardsPartitionByDestinationInterval) {
  Graph g = WeightedRmat(256, 2000, 9);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t2";
  auto engine = ooc::OocEngine::Build(g, dir, 4).value();
  VertexId span = (g.num_vertices() + 3) / 4;
  VertexId prev_interval = 0;
  bool ordered = true;
  engine.RunIteration(
      [&](VertexId, VertexId dst, Weight) {
        VertexId interval = dst / span;
        if (interval < prev_interval) ordered = false;
        prev_interval = interval;
      },
      nullptr);
  EXPECT_TRUE(ordered);
  engine.RemoveFiles();
}

TEST(OocEngineTest, PrMatchesReference) {
  Graph g = WeightedRmat(512, 4000, 7);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t3";
  auto engine = ooc::OocEngine::Build(g, dir, 3).value();
  std::vector<float> ranks;
  ooc::OocPr(engine, g, 20, &ranks);
  auto ref = ReferencePr(g, 20);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(ranks[v], ref[v], 1e-4) << "v=" << v;
  }
  engine.RemoveFiles();
}

TEST(OocEngineTest, CcMatchesReference) {
  Graph g = SymmetricRmat(256, 1500, 11);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t4";
  auto engine = ooc::OocEngine::Build(g, dir, 4).value();
  std::vector<uint32_t> labels;
  ooc::OocCc(engine, &labels);
  auto ref = ReferenceCc(g);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(labels[v], ref[v]) << "v=" << v;
  }
  engine.RemoveFiles();
}

TEST(OocEngineTest, GuidedCcMatchesBaselineAndSkipsWork) {
  Graph g = SymmetricRmat(256, 1500, 11);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t4g";
  auto engine = ooc::OocEngine::Build(g, dir, 4).value();
  std::vector<uint32_t> baseline, guided;
  ooc::OocCc(engine, &baseline);
  GuidanceProvider provider;
  ooc::OocStats stats = ooc::OocCcGuided(engine, g, &guided, &provider);
  EXPECT_EQ(guided, baseline);
  EXPECT_GT(stats.skipped, 0u);  // "start late" bypassed some updates
  EXPECT_EQ(provider.cache_stats().misses, 1u);
  // A second guided run retrieves the guidance from the provider's cache.
  ooc::OocCcGuided(engine, g, &guided, &provider);
  EXPECT_EQ(guided, baseline);
  EXPECT_EQ(provider.cache_stats().hits, 1u);
  engine.RemoveFiles();
}

TEST(OocEngineTest, GuidedPrMatchesBaselineAndSkipsWork) {
  // A deep chain makes early convergence deterministic: vertex v's rank is
  // exact (and float-stable) once the sweep count passes its depth, so low
  // vertices freeze long before the run ends while high ones keep going.
  Graph g = Graph::FromEdges(GenerateChain(40));
  std::string dir = ::testing::TempDir() + "slfe_ooc_prg";
  auto engine = ooc::OocEngine::Build(g, dir, 3).value();
  constexpr uint32_t kIters = 60;
  std::vector<float> baseline, guided;
  ooc::OocPr(engine, g, kIters, &baseline);

  GuidanceProvider provider;
  ooc::OocStats stats =
      ooc::OocPrGuided(engine, g, kIters, &guided, &provider);
  ASSERT_EQ(guided.size(), baseline.size());
  for (size_t v = 0; v < baseline.size(); ++v) {
    EXPECT_NEAR(guided[v], baseline[v], 1e-6f) << "v=" << v;
  }
  EXPECT_GT(stats.skipped, 0u);  // early-converged vertices bypassed edges
  EXPECT_EQ(provider.cache_stats().misses, 1u);
  // A second guided run retrieves the guidance from the provider's cache.
  ooc::OocPrGuided(engine, g, kIters, &guided, &provider);
  EXPECT_EQ(provider.cache_stats().hits, 1u);
  engine.RemoveFiles();
}

TEST(OocEngineTest, GuidedPrMatchesBaselineOnRmat) {
  Graph g = WeightedRmat(512, 4000, 7);
  std::string dir = ::testing::TempDir() + "slfe_ooc_prg2";
  auto engine = ooc::OocEngine::Build(g, dir, 3).value();
  std::vector<float> baseline, guided;
  ooc::OocPr(engine, g, 20, &baseline);
  GuidanceProvider provider;
  ooc::OocPrGuided(engine, g, 20, &guided, &provider);
  for (size_t v = 0; v < baseline.size(); ++v) {
    EXPECT_NEAR(guided[v], baseline[v], 1e-5f) << "v=" << v;
  }
  engine.RemoveFiles();
}

TEST(OocEngineTest, ZeroShardsRejected) {
  Graph g = WeightedRmat(64, 300, 2);
  auto engine = ooc::OocEngine::Build(g, ::testing::TempDir() + "x", 0);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(OocEngineTest, MissingShardIsIOError) {
  Graph g = WeightedRmat(64, 300, 2);
  std::string dir = ::testing::TempDir() + "slfe_ooc_t5";
  auto engine = ooc::OocEngine::Build(g, dir, 2).value();
  engine.RemoveFiles();
  EXPECT_EQ(
      engine.RunIteration([](VertexId, VertexId, Weight) {}, nullptr).code(),
      StatusCode::kIOError);
}

}  // namespace
}  // namespace slfe
