// Randomized property sweeps: for a spread of generator seeds (each a
// distinct topology) and graph families, the SLFE engine with RR must
// agree exactly with the sequential references, and core structural
// invariants must hold. These parameterized suites are the repository's
// broad-coverage safety net.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "slfe/apps/belief_propagation.h"
#include "slfe/apps/bfs.h"
#include "slfe/apps/cc.h"
#include "slfe/apps/heat_simulation.h"
#include "slfe/apps/numpaths.h"
#include "slfe/apps/pr.h"
#include "slfe/apps/reference.h"
#include "slfe/apps/spmv.h"
#include "slfe/apps/sssp.h"
#include "slfe/apps/tr.h"
#include "slfe/apps/wp.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/degree_stats.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/partitioner.h"

namespace slfe {
namespace {

enum class Family { kRmat, kErdosRenyi, kGrid };

struct SweepParam {
  Family family;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const char* family = info.param.family == Family::kRmat ? "Rmat"
                       : info.param.family == Family::kErdosRenyi
                           ? "ER"
                           : "Grid";
  return std::string(family) + "_seed" + std::to_string(info.param.seed);
}

Graph MakeGraph(const SweepParam& p, bool symmetric) {
  EdgeList edges;
  switch (p.family) {
    case Family::kRmat: {
      RmatOptions opt;
      opt.num_vertices = 384;
      opt.num_edges = 2600;
      opt.weighted = true;
      opt.max_weight = 128.0f;
      opt.seed = p.seed;
      edges = GenerateRmat(opt);
      break;
    }
    case Family::kErdosRenyi:
      edges = GenerateErdosRenyi(384, 2600, p.seed, /*weighted=*/true,
                                 /*max_weight=*/128.0f);
      break;
    case Family::kGrid:
      edges = GenerateGrid(16, 20, /*weighted=*/true, p.seed,
                           /*max_weight=*/64.0f);
      break;
  }
  if (symmetric) edges.Symmetrize();
  edges.Deduplicate();
  return Graph::FromEdges(edges);
}

class RandomTopologyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomTopologyTest, SsspWithRrMatchesDijkstra) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  AppConfig cfg;
  cfg.num_nodes = 3;
  cfg.enable_rr = true;
  SsspResult r = RunSssp(g, cfg);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    ASSERT_FLOAT_EQ(r.dist[v], ref[v]) << "v=" << v;
  }
}

TEST_P(RandomTopologyTest, WpWithRrMatchesReference) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  AppConfig cfg;
  cfg.num_nodes = 2;
  cfg.enable_rr = true;
  WpResult r = RunWp(g, cfg);
  auto ref = ReferenceWp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    ASSERT_FLOAT_EQ(r.width[v], ref[v]) << "v=" << v;
  }
}

TEST_P(RandomTopologyTest, CcWithRrMatchesReference) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/true);
  AppConfig cfg;
  cfg.num_nodes = 4;
  cfg.enable_rr = true;
  CcResult r = RunCc(g, cfg);
  auto ref = ReferenceCc(g);
  for (size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(r.labels[v], ref[v]) << "v=" << v;
  }
}

TEST_P(RandomTopologyTest, CcLabelsAreComponentMinima) {
  // Structural invariant independent of the reference: every label is the
  // minimum vertex id of its label class, and neighbors share labels.
  Graph g = MakeGraph(GetParam(), /*symmetric=*/true);
  AppConfig cfg;
  cfg.enable_rr = true;
  CcResult r = RunCc(g, cfg);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(r.labels[v], v);
    EXPECT_EQ(r.labels[r.labels[v]], r.labels[v]);
    g.out().ForEachNeighbor(v, [&](VertexId u, Weight) {
      EXPECT_EQ(r.labels[v], r.labels[u]);
    });
  }
}

TEST_P(RandomTopologyTest, GuidanceLastIterBoundsBfsLevel) {
  // lastIter(v) >= BFS level of v for reachable non-root vertices: a
  // vertex cannot receive its last update before it is first reached.
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  RRGuidance rrg = RRGuidance::Generate(g, {0});
  auto level = ReferenceBfs(g, 0);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (level[v] == UINT32_MAX) continue;
    EXPECT_GE(rrg.last_iter(v), level[v]) << "v=" << v;
  }
}

TEST_P(RandomTopologyTest, PartitionValidAcrossNodeCounts) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  ChunkPartitioner partitioner;
  for (size_t parts : {1u, 2u, 5u, 8u}) {
    auto ranges = partitioner.Partition(g, parts);
    EXPECT_TRUE(
        ChunkPartitioner::ValidatePartition(ranges, g.num_vertices()).ok());
  }
}

TEST_P(RandomTopologyTest, DegreeStatsConsistent) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.num_vertices, g.num_vertices());
  EXPECT_EQ(s.num_edges, g.num_edges());
  EXPECT_LE(s.top1pct_edge_share, 1.0);
  EXPECT_GE(s.top1pct_edge_share, 0.0);
  EXPECT_LE(s.avg_out_degree, static_cast<double>(s.max_out_degree));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTopologyTest,
    ::testing::Values(SweepParam{Family::kRmat, 1},
                      SweepParam{Family::kRmat, 2},
                      SweepParam{Family::kRmat, 3},
                      SweepParam{Family::kRmat, 4},
                      SweepParam{Family::kErdosRenyi, 1},
                      SweepParam{Family::kErdosRenyi, 2},
                      SweepParam{Family::kErdosRenyi, 3},
                      SweepParam{Family::kGrid, 1},
                      SweepParam{Family::kGrid, 2}),
    ParamName);

// ---------------------------------------------------------------------------
// Guidance cross: every guidance-using app, run guided vs unguided across
// engine shapes on the same seeded random topologies. Min/max apps must
// agree exactly; arithmetic apps within the tolerances their finish-early
// freezing is specified to keep (the same bars apps_equivalence_test holds
// the defaults to).
// ---------------------------------------------------------------------------

class GuidanceStrategyCrossTest
    : public ::testing::TestWithParam<SweepParam> {
 protected:
  /// A private provider per run, so the run cannot hit guidance generated
  /// by another run (or another test) through the global provider.
  AppConfig GuidedConfig(int num_nodes) {
    provider_ = std::make_unique<GuidanceProvider>();
    AppConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.enable_rr = true;
    cfg.guidance_provider = provider_.get();
    return cfg;
  }

  static AppConfig BaselineConfig(int num_nodes) {
    AppConfig cfg;
    cfg.num_nodes = num_nodes;
    cfg.enable_rr = false;
    return cfg;
  }

  std::unique_ptr<GuidanceProvider> provider_;
};

TEST_P(GuidanceStrategyCrossTest, MinMaxAppsExactAcrossEngines) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  Graph gsym = MakeGraph(GetParam(), /*symmetric=*/true);
  for (int nodes : {1, 3}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    {  // SSSP
      SsspResult guided = RunSssp(g, GuidedConfig(nodes));
      SsspResult base = RunSssp(g, BaselineConfig(nodes));
      for (size_t v = 0; v < base.dist.size(); ++v) {
        ASSERT_FLOAT_EQ(guided.dist[v], base.dist[v]) << "sssp v=" << v;
      }
    }
    {  // BFS
      BfsResult guided = RunBfs(g, GuidedConfig(nodes));
      BfsResult base = RunBfs(g, BaselineConfig(nodes));
      for (size_t v = 0; v < base.levels.size(); ++v) {
        ASSERT_EQ(guided.levels[v], base.levels[v]) << "bfs v=" << v;
      }
    }
    {  // WP
      WpResult guided = RunWp(g, GuidedConfig(nodes));
      WpResult base = RunWp(g, BaselineConfig(nodes));
      for (size_t v = 0; v < base.width.size(); ++v) {
        ASSERT_FLOAT_EQ(guided.width[v], base.width[v]) << "wp v=" << v;
      }
    }
    {  // CC (undirected closure)
      CcResult guided = RunCc(gsym, GuidedConfig(nodes));
      CcResult base = RunCc(gsym, BaselineConfig(nodes));
      for (size_t v = 0; v < base.labels.size(); ++v) {
        ASSERT_EQ(guided.labels[v], base.labels[v]) << "cc v=" << v;
      }
    }
    {  // NumPaths (sum aggregation, but exact: bounded-length DP)
      NumPathsResult guided = RunNumPaths(g, GuidedConfig(nodes), 12);
      NumPathsResult base = RunNumPaths(g, BaselineConfig(nodes), 12);
      for (size_t v = 0; v < base.paths.size(); ++v) {
        ASSERT_DOUBLE_EQ(guided.paths[v], base.paths[v])
            << "numpaths v=" << v;
      }
    }
  }
}

TEST_P(GuidanceStrategyCrossTest, ArithmeticAppsWithinToleranceAcrossEngines) {
  Graph g = MakeGraph(GetParam(), /*symmetric=*/false);
  VertexId n = g.num_vertices();
  std::vector<float> ones(n, 1.0f);
  std::vector<float> hotspots(n, 0.0f);
  for (VertexId v = 0; v < n; v += 37) hotspots[v] = 100.0f;
  for (int nodes : {1, 3}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    {  // PageRank (finish-early freezing: 5e-3, the apps_equivalence bar)
      PrResult guided = RunPr(g, GuidedConfig(nodes));
      PrResult base = RunPr(g, BaselineConfig(nodes));
      for (size_t v = 0; v < base.ranks.size(); ++v) {
        ASSERT_NEAR(guided.ranks[v], base.ranks[v], 5e-3) << "pr v=" << v;
      }
    }
    {  // TunkRank (same finish-early bound as PR: on random topologies
       //  the freeze point can land a few 1e-3 from the unfrozen run)
      TrResult guided = RunTr(g, GuidedConfig(nodes));
      TrResult base = RunTr(g, BaselineConfig(nodes));
      for (size_t v = 0; v < base.influence.size(); ++v) {
        ASSERT_NEAR(guided.influence[v], base.influence[v], 5e-3)
            << "tr v=" << v;
      }
    }
    {  // SpMV chain
      SpmvResult guided = RunSpmv(g, ones, GuidedConfig(nodes), 3);
      SpmvResult base = RunSpmv(g, ones, BaselineConfig(nodes), 3);
      for (size_t v = 0; v < base.y.size(); ++v) {
        ASSERT_NEAR(guided.y[v], base.y[v], 1e-3) << "spmv v=" << v;
      }
    }
    {  // Heat simulation
      HeatSimulationResult guided =
          RunHeatSimulation(g, hotspots, GuidedConfig(nodes));
      HeatSimulationResult base =
          RunHeatSimulation(g, hotspots, BaselineConfig(nodes));
      for (size_t v = 0; v < base.heat.size(); ++v) {
        ASSERT_NEAR(guided.heat[v], base.heat[v], 1e-2) << "heat v=" << v;
      }
    }
    {  // Belief propagation
      BeliefPropagationResult guided =
          RunBeliefPropagation(g, hotspots, GuidedConfig(nodes));
      BeliefPropagationResult base =
          RunBeliefPropagation(g, hotspots, BaselineConfig(nodes));
      for (size_t v = 0; v < base.belief.size(); ++v) {
        ASSERT_NEAR(guided.belief[v], base.belief[v], 1e-2)
            << "bp v=" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StrategyCross, GuidanceStrategyCrossTest,
                         ::testing::Values(SweepParam{Family::kRmat, 1},
                                           SweepParam{Family::kRmat, 2},
                                           SweepParam{Family::kErdosRenyi, 1},
                                           SweepParam{Family::kGrid, 1}),
                         ParamName);

}  // namespace
}  // namespace slfe
