// Focused tests of the SLFE core API layer: the three delayed-update
// recovery variants of MinMaxRunner, the ArithRunner's early-convergence
// (EC) semantics, and the runtime-function invariants (Algorithm 2/3):
// skipped work is recorded, verification cost is reclassified, and all
// variants agree with the baseline fixpoint.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "slfe/apps/bfs.h"
#include "slfe/apps/cc.h"
#include "slfe/apps/reference.h"
#include "slfe/apps/sssp.h"
#include "slfe/apps/wp.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/graph/generators.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct SsspRun {
  std::vector<float> dist;
  typename MinMaxRunner<float>::RunResult result;
  uint64_t barriers = 0;  ///< completed by the run's fresh cluster
};

SsspRun RunSsspVariant(const Graph& g, int nodes, int threads,
                       const RRGuidance* guidance, RRVariant variant) {
  SsspRun out;
  out.dist.assign(g.num_vertices(), kInf);
  out.dist[0] = 0.0f;
  std::vector<float>& dist = out.dist;
  DistGraph dg = DistGraph::Build(g, nodes);
  DistEngine<float> engine(dg, EngineOptions{});
  MinMaxRunner<float> runner(&engine, guidance, variant);
  auto gather = [&dist](float acc, VertexId src, Weight w) {
    float c = AtomicLoad(&dist[src]) + w;
    return c < acc ? c : acc;
  };
  auto apply = [&dist](VertexId dst, float acc) {
    if (acc < dist[dst]) {
      AtomicStore(&dist[dst], acc);
      return true;
    }
    return false;
  };
  auto scatter = [&dist](VertexId src, VertexId dst, Weight w) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
  };
  sim::Cluster cluster(nodes, threads);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto r = runner.Run(ctx, {0}, kInf, gather, apply, scatter);
    if (ctx.rank == 0) out.result = r;
  });
  out.barriers = cluster.world().barriers_completed();
  return out;
}

Graph TestGraph(uint64_t seed, float max_weight = 256.0f) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 8000;
  opt.weighted = true;
  opt.max_weight = max_weight;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Deduplicate();
  return Graph::FromEdges(e);
}

class RRVariantTest : public ::testing::TestWithParam<RRVariant> {};

TEST_P(RRVariantTest, MatchesDijkstraOnRmat) {
  Graph g = TestGraph(31);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 4, 1, &guidance, GetParam());
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST_P(RRVariantTest, MatchesDijkstraOnDeepGrid) {
  Graph g = Graph::FromEdges(GenerateGrid(24, 24, true, 8, 128.0f));
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 3, 2, &guidance, GetParam());
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST_P(RRVariantTest, SkipsWorkDuringDelay) {
  Graph g = TestGraph(32);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 2, 1, &guidance, GetParam());
  EXPECT_GT(run.result.stats.skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, RRVariantTest,
                         ::testing::Values(RRVariant::kGatherAllAtStart,
                                           RRVariant::kDirtyPush,
                                           RRVariant::kAllPush));

TEST(MinMaxRunnerTest, BaselineRunHasNoSkipsOrSweep) {
  Graph g = TestGraph(33);
  auto run = RunSsspVariant(g, 2, 1, /*guidance=*/nullptr,
                            RRVariant::kGatherAllAtStart);
  EXPECT_EQ(run.result.stats.skipped, 0u);
  EXPECT_EQ(run.result.safety_sweep_updates, 0u);
  EXPECT_EQ(run.result.verification_computations, 0u);
}

TEST(MinMaxRunnerTest, BaselineSuperstepCostsTwoBarriers) {
  // Setup: BeginRun 1 + ActivateSeeds 1 + PromoteActiveSet 2; teardown:
  // FinishRun 2. Everything else is 2 barriers per superstep.
  Graph g = TestGraph(37);
  auto run = RunSsspVariant(g, 4, 1, /*guidance=*/nullptr,
                            RRVariant::kGatherAllAtStart);
  ASSERT_GT(run.result.supersteps, 3u);
  EXPECT_EQ(run.barriers, 6 + 2 * run.result.supersteps);
}

TEST(MinMaxRunnerTest, CleanSweepCostReclassified) {
  // With guidance rooted at the true source, the terminal sweep should
  // find nothing, and its edge evaluations must be reported as
  // verification rather than algorithm computations.
  Graph g = TestGraph(34);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 2, 1, &guidance, RRVariant::kGatherAllAtStart);
  EXPECT_EQ(run.result.safety_sweep_updates, 0u);
}

TEST(MinMaxRunnerTest, WrongRootGuidanceStillConverges) {
  // Guidance generated from a different root misclassifies propagation
  // levels; the verification sweep must still drive the run to the exact
  // fixpoint (Theorem 1 made unconditional).
  Graph g = TestGraph(35);
  RRGuidance guidance = RRGuidance::Generate(g, {g.num_vertices() / 2});
  auto run = RunSsspVariant(g, 2, 1, &guidance, RRVariant::kGatherAllAtStart);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST(MinMaxRunnerTest, EmptyGuidanceStillConverges) {
  // Degenerate guidance (no roots swept, lastIter == 0 everywhere) makes
  // every vertex unlocked from iteration 1 — equivalent to the baseline.
  Graph g = TestGraph(36);
  RRGuidance guidance = RRGuidance::Generate(g, {});
  auto run = RunSsspVariant(g, 2, 1, &guidance, RRVariant::kGatherAllAtStart);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

// ------------------------------------------------- pinned work counters

// Work counters of the four min/max apps at one node and one thread, where
// they are a pure function of (graph, app, rr): no other rank or thread
// races the pull gathers or the push AtomicMins. A kernel change that
// skips, repeats or reorders an edge evaluation moves one of them.
struct PinnedCounters {
  const char* app;
  bool rr;
  uint64_t computations;
  uint64_t updates;
  uint64_t skipped;
  uint64_t iterations;
  std::vector<uint64_t> per_iter_computations;
};

std::string Format(const PinnedCounters& c) {
  std::ostringstream os;
  os << "{\"" << c.app << "\", " << (c.rr ? "true" : "false") << ", "
     << c.computations << ", " << c.updates << ", " << c.skipped << ", "
     << c.iterations << ", {";
  for (size_t i = 0; i < c.per_iter_computations.size(); ++i) {
    os << (i > 0 ? ", " : "") << c.per_iter_computations[i];
  }
  os << "}}";
  return os.str();
}

PinnedCounters Measure(const Graph& g, const char* app, bool rr) {
  AppConfig cfg;
  cfg.num_nodes = 1;
  cfg.threads_per_node = 1;
  cfg.enable_rr = rr;
  cfg.use_guidance_cache = false;
  const std::string name = app;
  AppRunInfo info;
  if (name == "sssp") {
    info = RunSssp(g, cfg).info;
  } else if (name == "bfs") {
    info = RunBfs(g, cfg).info;
  } else if (name == "wp") {
    info = RunWp(g, cfg).info;
  } else {
    info = RunCc(g, cfg).info;
  }
  const EngineStats& s = info.stats;
  return {app,          rr,           s.computations, s.updates,
          s.skipped,    s.iterations, s.per_iter_computations};
}

TEST(PinnedCountersTest, MinMaxAppsAtOneNodeDoTheRecordedWork) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 8000;
  opt.weighted = true;
  opt.seed = 51;
  EdgeList e = GenerateRmat(opt);
  e.Symmetrize();  // cc needs it; the single-source apps run on it too
  e.Deduplicate();
  Graph g = Graph::FromEdges(e);

  // Recorded before the pull kernel compacted its active in-edges.
  const std::vector<PinnedCounters> want = {
      {"sssp", false, 19798, 1190, 0, 5, {368, 9713, 8394, 1284, 39}},
      {"sssp", true, 21183, 1322, 22370, 8,
       {368, 1785, 10052, 7032, 1825, 116, 5, 0}},
      {"bfs", false, 11972, 796, 0, 4, {368, 9713, 1872, 19}},
      {"bfs", true, 13428, 796, 22370, 7, {368, 1785, 9982, 1067, 207, 19, 0}},
      {"wp", false, 38772, 1830, 0, 11,
       {368, 9713, 11046, 8400, 5471, 2448, 764, 161, 243, 157, 1}},
      {"wp", true, 39973, 1953, 22370, 13,
       {368, 1785, 10034, 9620, 8722, 5598, 2528, 756, 161, 243, 157, 1, 0}},
      {"cc", false, 23579, 797, 0, 3, {11974, 11567, 38}},
      {"cc", true, 23986, 797, 23948, 6, {17, 17, 11957, 11957, 38, 0}},
  };
  for (const PinnedCounters& w : want) {
    PinnedCounters got = Measure(g, w.app, w.rr);
    EXPECT_EQ(got.computations, w.computations) << Format(got);
    EXPECT_EQ(got.updates, w.updates) << Format(got);
    EXPECT_EQ(got.skipped, w.skipped) << Format(got);
    EXPECT_EQ(got.iterations, w.iterations) << Format(got);
    EXPECT_EQ(got.per_iter_computations, w.per_iter_computations)
        << Format(got);
  }
}

// --------------------------------------------------------------- Arith/EC

struct PrRun {
  std::vector<float> contrib;
  typename ArithRunner<float>::RunResult result;
  uint64_t barriers = 0;  ///< completed by the run's fresh cluster
};

PrRun RunPrKernel(const Graph& g, int nodes, const RRGuidance* guidance,
                  uint32_t iters) {
  PrRun out;
  VertexId n = g.num_vertices();
  std::vector<float> ranks(n, 1.0f);
  out.contrib.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = g.out_degree(v);
    out.contrib[v] = od > 0 ? 1.0f / static_cast<float>(od) : 1.0f;
  }
  DistGraph dg = DistGraph::Build(g, nodes);
  DistEngine<float> engine(dg, EngineOptions{});
  ArithRunner<float> runner(&engine, guidance);
  std::vector<float>* contrib = &out.contrib;
  auto gather = [contrib](float acc, VertexId src, Weight) {
    return acc + (*contrib)[src];
  };
  auto vertex_fn = [&g, &ranks](VertexId v, float acc) {
    float rank = 0.15f + 0.85f * acc;
    ranks[v] = rank;
    VertexId od = g.out_degree(v);
    return od > 0 ? rank / static_cast<float>(od) : rank;
  };
  sim::Cluster cluster(nodes, 1);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto r = runner.Run(ctx, contrib, 0.0f, gather, vertex_fn, iters,
                        /*epsilon=*/0.0);
    if (ctx.rank == 0) out.result = r;
  });
  out.barriers = cluster.world().barriers_completed();
  return out;
}

TEST(ArithRunnerTest, EcCountMonotonicallyNondecreasing) {
  Graph g = TestGraph(41);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun run = RunPrKernel(g, 2, &guidance, 120);
  uint64_t prev = 0;
  for (uint64_t ec : run.result.ec_history) {
    EXPECT_GE(ec, prev);
    prev = ec;
  }
  EXPECT_EQ(run.result.ec_vertices, prev);
}

TEST(ArithRunnerTest, FrozenVerticesReduceLaterIterationWork) {
  Graph g = TestGraph(42);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun run = RunPrKernel(g, 2, &guidance, 150);
  const auto& series = run.result.stats.per_iter_computations;
  ASSERT_GE(series.size(), 10u);
  // Once EC freezing has set in, late iterations must cost strictly less
  // than the first (full) iteration.
  EXPECT_LT(series.back(), series.front());
  EXPECT_GT(run.result.ec_vertices, 0u);
}

TEST(ArithRunnerTest, BaselineProcessesEveryVertexEveryIteration) {
  Graph g = TestGraph(43);
  PrRun run = RunPrKernel(g, 2, /*guidance=*/nullptr, 10);
  const auto& series = run.result.stats.per_iter_computations;
  ASSERT_EQ(series.size(), 10u);
  for (uint64_t c : series) EXPECT_EQ(c, series.front());
  EXPECT_EQ(run.result.ec_vertices, 0u);
}

TEST(ArithRunnerTest, EcValuesStayWithinToleranceOfExact) {
  Graph g = TestGraph(44);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun rr = RunPrKernel(g, 2, &guidance, 150);
  PrRun base = RunPrKernel(g, 2, nullptr, 150);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(rr.contrib[v], base.contrib[v], 5e-3) << "v=" << v;
  }
}

TEST(ArithRunnerTest, IterationCostsThreeBarriers) {
  // Per iteration: ProcessEdges 2 + the fused {delta, EC count} reduction
  // 1. Setup: BeginRun 1 + array init 1 + ActivateAll 1 +
  // PromoteActiveSet 2; teardown: FinishRun 2.
  Graph g = TestGraph(45);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  const RRGuidance* configs[] = {nullptr, &guidance};
  for (const RRGuidance* rr : configs) {
    PrRun run = RunPrKernel(g, 3, rr, 25);
    ASSERT_EQ(run.result.supersteps, 25u);
    EXPECT_EQ(run.barriers, 7 + 3 * run.result.supersteps);
  }
}

TEST(ArithRunnerTest, UnvisitedVerticesNeverFreeze) {
  // Island vertices unreachable from the guidance roots must keep being
  // processed (conservative EffectiveLastIter = infinity).
  EdgeList e(8);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(5, 6);  // island pair, unreachable from vertex 0's sweep
  e.Add(6, 5);
  Graph g = Graph::FromEdges(e);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  ASSERT_FALSE(guidance.visited(5));
  PrRun run = RunPrKernel(g, 1, &guidance, 30);
  // EC set may include visited vertices but never 5 or 6; the strongest
  // cheap check: ec count < |V| despite 30 stable iterations.
  EXPECT_LT(run.result.ec_vertices, g.num_vertices());
}

}  // namespace
}  // namespace slfe
