// Tests for the distributed engine layer: DistGraph mirror accounting,
// mode selection, activation semantics, counters, the transition
// reactivation rules, communication accounting, and the callback contract
// (callables are taken as they are, never type-erased).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/generators.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

// ------------------------------------------------------------ AtomicOps

TEST(AtomicOpsTest, AtomicMinOnlyDecreases) {
  float x = 10.0f;
  EXPECT_TRUE(AtomicMin(&x, 5.0f));
  EXPECT_EQ(x, 5.0f);
  EXPECT_FALSE(AtomicMin(&x, 7.0f));
  EXPECT_EQ(x, 5.0f);
  EXPECT_FALSE(AtomicMin(&x, 5.0f));  // equal is not an improvement
}

TEST(AtomicOpsTest, AtomicMaxOnlyIncreases) {
  uint32_t x = 3;
  EXPECT_TRUE(AtomicMax(&x, 9u));
  EXPECT_FALSE(AtomicMax(&x, 4u));
  EXPECT_EQ(x, 9u);
}

TEST(AtomicOpsTest, AtomicAddFloatUnderContention) {
  double total = 0;
  ThreadPool pool(4);
  pool.ParallelRun([&](size_t) {
    for (int i = 0; i < 1000; ++i) AtomicAdd(&total, 1.0);
  });
  EXPECT_DOUBLE_EQ(total, 4000.0);
}

TEST(AtomicOpsTest, AtomicMinUnderContentionKeepsMinimum) {
  float x = std::numeric_limits<float>::infinity();
  ThreadPool pool(4);
  pool.ParallelRun([&](size_t w) {
    for (int i = 1000; i > 0; --i) {
      AtomicMin(&x, static_cast<float>(i + static_cast<int>(w)));
    }
  });
  EXPECT_EQ(x, 1.0f);
}

// ------------------------------------------------------------- DistGraph

TEST(DistGraphTest, SingleNodeHasNoMirrors) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(100, 500, 3));
  DistGraph dg = DistGraph::Build(g, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(dg.MirrorNodeCount(v), 0);
  }
}

TEST(DistGraphTest, MirrorCountBounds) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(256, 2000, 4));
  int nodes = 4;
  DistGraph dg = DistGraph::Build(g, nodes);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(dg.MirrorNodeCount(v), nodes - 1);
    // A vertex with out-degree 0 has no mirrors.
    if (g.out_degree(v) == 0) {
      EXPECT_EQ(dg.MirrorNodeCount(v), 0);
    }
  }
}

TEST(DistGraphTest, ChainMirrorsOnlyAtBoundaries) {
  // In a chain partitioned into contiguous ranges, only the last vertex of
  // each range has a remote successor.
  Graph g = Graph::FromEdges(GenerateChain(100));
  DistGraph dg = DistGraph::Build(g, 4);
  int mirrored = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dg.MirrorNodeCount(v) > 0) ++mirrored;
  }
  EXPECT_LE(mirrored, 3);  // at most one per internal boundary
}

TEST(DistGraphTest, NodeEdgeTotalsSumToGraph) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(300, 2500, 5));
  DistGraph dg = DistGraph::Build(g, 5);
  EdgeId out_total = 0, in_total = 0;
  for (int p = 0; p < dg.num_nodes(); ++p) {
    out_total += dg.NodeOutEdges(p);
    in_total += dg.NodeInEdges(p);
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(DistGraphTest, OwnerLookupConsistentWithRanges) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(200, 1000, 9));
  DistGraph dg = DistGraph::Build(g, 3);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    int owner = dg.OwnerOf(v);
    EXPECT_TRUE(dg.range(owner).Contains(v));
  }
}

// ------------------------------------------------------------ DistEngine

// Pull-mode callables for runs whose policy never pulls, and the reverse:
// ProcessEdges takes every callable, these are never invoked.
constexpr auto kNoGather = [](uint32_t acc, VertexId, Weight) { return acc; };
constexpr auto kNoApply = [](VertexId, uint32_t) { return false; };
constexpr auto kNoScatter = [](VertexId, VertexId, Weight) { return false; };
// The filter runs without guidance use: gather from active sources only.
constexpr ConstantFilter<PullAction::kGatherActive> kActiveOnly{};

// Minimal BFS over the engine to exercise collectives deterministically.
// V is the engine's value type: uint32_t levels for BFS, float for the
// SSSP-shaped tests.
template <typename V = uint32_t>
struct EngineHarness {
  explicit EngineHarness(const Graph& graph, int nodes, int threads,
                         EngineOptions options = {})
      : dg(DistGraph::Build(graph, nodes)),
        engine(dg, options),
        cluster(nodes, threads) {}

  DistGraph dg;
  DistEngine<V> engine;
  sim::Cluster cluster;
};

TEST(DistEngineTest, BfsViaProcessEdges) {
  Graph g = Graph::FromEdges(GenerateGrid(10, 10));
  EngineHarness h(g, 4, 1);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;

  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              AtomicStore(&level[dst], acc);
              return true;
            }
            return false;
          },
          [&level](VertexId src, VertexId dst, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            if (lv == UINT32_MAX) return false;
            return AtomicMin(&level[dst], lv + 1);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  // Grid BFS levels = Manhattan distance from corner (0,0).
  for (VertexId r = 0; r < 10; ++r) {
    for (VertexId c = 0; c < 10; ++c) {
      EXPECT_EQ(level[r * 10 + c], r + c) << "r=" << r << " c=" << c;
    }
  }
}

TEST(DistEngineTest, AlwaysPushPolicyNeverPulls) {
  Graph g = Graph::FromEdges(GenerateChain(40));
  EngineOptions opt;
  opt.mode_policy = ModePolicy::kAlwaysPush;
  EngineHarness h(g, 2, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX, kNoGather, kNoApply,
          [&level](VertexId src, VertexId dst, Weight) {
            return AtomicMin(&level[dst], AtomicLoad(&level[src]) + 1);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  for (Mode m : h.engine.stats().per_iter_mode) {
    EXPECT_EQ(m, Mode::kPush);
  }
  EXPECT_EQ(level[39], 39u);
}

TEST(DistEngineTest, AlwaysPullPolicyNeverPushes) {
  Graph g = Graph::FromEdges(GenerateChain(10));
  EngineOptions opt;
  opt.mode_policy = ModePolicy::kAlwaysPull;
  EngineHarness h(g, 1, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              AtomicStore(&level[dst], acc);
              return true;
            }
            return false;
          },
          kNoScatter, kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  for (Mode m : h.engine.stats().per_iter_mode) {
    EXPECT_EQ(m, Mode::kPull);
  }
  EXPECT_EQ(level[9], 9u);
}

TEST(DistEngineTest, AdaptiveSwitchesWithFrontierSize) {
  // Star graph: first superstep (hub active) covers all edges -> pull;
  // once only leaves are active with tiny out-degree -> push.
  Graph g = Graph::FromEdges(GenerateStar(2000));
  EngineOptions opt;
  opt.dense_fraction = 0.05;
  EngineHarness h(g, 1, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              AtomicStore(&level[dst], acc);
              return true;
            }
            return false;
          },
          [&level](VertexId src, VertexId dst, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            if (lv == UINT32_MAX) return false;
            return AtomicMin(&level[dst], lv + 1);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  const auto& modes = h.engine.stats().per_iter_mode;
  ASSERT_GE(modes.size(), 2u);
  // Hub active: 2000 of 4000 edges -> dense/pull. Leaves active next: 2000
  // out-edges is still above |E|/20 -> pull again.
  EXPECT_EQ(modes[0], Mode::kPull);
  EXPECT_EQ(modes[1], Mode::kPull);

  // A single-vertex frontier (chain) must stay sparse/push throughout.
  Graph chain = Graph::FromEdges(GenerateChain(60));
  EngineHarness hc(chain, 2, 1);
  std::vector<uint32_t> clevel(chain.num_vertices(), UINT32_MAX);
  clevel[0] = 0;
  hc.cluster.Run([&](sim::NodeContext& ctx) {
    hc.engine.BeginRun(ctx);
    hc.engine.ActivateSeeds(ctx, {0});
    uint64_t active = hc.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = hc.engine.ProcessEdges(
          ctx, UINT32_MAX, kNoGather, kNoApply,
          [&clevel](VertexId src, VertexId dst, Weight) {
            return AtomicMin(&clevel[dst], AtomicLoad(&clevel[src]) + 1);
          },
          kActiveOnly);
    }
    hc.engine.FinishRun(ctx);
  });
  for (Mode m : hc.engine.stats().per_iter_mode) EXPECT_EQ(m, Mode::kPush);
  EXPECT_EQ(clevel[59], 59u);
}

TEST(DistEngineTest, CommBytesZeroOnSingleNode) {
  Graph g = Graph::FromEdges(GenerateGrid(8, 8, true));
  EngineHarness h(g, 1, 1);
  std::vector<uint32_t> lv(g.num_vertices(), UINT32_MAX);
  lv[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&lv](uint32_t acc, VertexId src, Weight) {
            uint32_t s = AtomicLoad(&lv[src]);
            return s == UINT32_MAX ? acc : std::min(acc, s + 1);
          },
          [&lv](VertexId dst, uint32_t acc) {
            if (acc < lv[dst]) {
              AtomicStore(&lv[dst], acc);
              return true;
            }
            return false;
          },
          [&lv](VertexId src, VertexId dst, Weight) {
            uint32_t s = AtomicLoad(&lv[src]);
            if (s == UINT32_MAX) return false;
            return AtomicMin(&lv[dst], s + 1);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  EXPECT_EQ(h.engine.stats().bytes, 0u);
  EXPECT_EQ(h.engine.stats().comm_seconds, 0.0);
}

TEST(DistEngineTest, CommBytesGrowWithNodeCount) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(512, 4000, 11, true));
  uint64_t bytes_prev = 0;
  for (int nodes : {2, 8}) {
    EngineHarness<float> h(g, nodes, 1);
    std::vector<float> dist(g.num_vertices(),
                            std::numeric_limits<float>::infinity());
    dist[0] = 0;
    h.cluster.Run([&](sim::NodeContext& ctx) {
      h.engine.BeginRun(ctx);
      h.engine.ActivateSeeds(ctx, {0});
      uint64_t active = h.engine.PromoteActiveSet(ctx);
      while (active > 0) {
        active = h.engine.ProcessEdges(
            ctx, std::numeric_limits<float>::infinity(),
            [&dist](float acc, VertexId src, Weight w) {
              return std::min(acc, AtomicLoad(&dist[src]) + w);
            },
            [&dist](VertexId dst, float acc) {
              if (acc < dist[dst]) {
                AtomicStore(&dist[dst], acc);
                return true;
              }
              return false;
            },
            [&dist](VertexId src, VertexId dst, Weight w) {
              return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
            },
            kActiveOnly);
      }
      h.engine.FinishRun(ctx);
    });
    EXPECT_GT(h.engine.stats().bytes, bytes_prev);
    bytes_prev = h.engine.stats().bytes;
  }
}

TEST(DistEngineTest, ProcessVerticesReducesSum) {
  Graph g = Graph::FromEdges(GenerateChain(100));
  EngineHarness h(g, 4, 2);
  double result = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    double r = h.engine.ProcessVertices(
        ctx, [](VertexId v) { return static_cast<double>(v); });
    if (ctx.rank == 0) result = r;
    h.engine.FinishRun(ctx);
  });
  EXPECT_DOUBLE_EQ(result, 99.0 * 100.0 / 2.0);
}

TEST(DistEngineTest, ActivateSeedsEqualsTheDistinctSeedSet) {
  // Unsorted, duplicated seeds spread over all four ranks' ranges behave
  // like activating each distinct seed once: the promoted count is the
  // distinct count, the first push scans exactly their out-edges, and a
  // multi-source BFS reaches every vertex at its distance to the nearest
  // seed.
  Graph g = Graph::FromEdges(GenerateGrid(10, 10));
  const std::vector<VertexId> seeds = {97, 3, 55, 3, 97, 31, 55, 3};
  const std::vector<VertexId> distinct = {3, 31, 55, 97};
  EngineOptions opt;
  opt.mode_policy = ModePolicy::kAlwaysPush;
  EngineHarness h(g, 4, 2, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  for (VertexId s : distinct) level[s] = 0;
  std::vector<uint64_t> promoted(4);
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, seeds);
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    promoted[ctx.rank] = active;
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX, kNoGather, kNoApply,
          [&level](VertexId src, VertexId dst, Weight) {
            return AtomicMin(&level[dst], AtomicLoad(&level[src]) + 1);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  for (uint64_t p : promoted) EXPECT_EQ(p, distinct.size());
  uint64_t seed_out_edges = 0;
  for (VertexId s : distinct) seed_out_edges += g.out_degree(s);
  ASSERT_FALSE(h.engine.stats().per_iter_computations.empty());
  EXPECT_EQ(h.engine.stats().per_iter_computations[0], seed_out_edges);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    uint32_t want = UINT32_MAX;
    for (VertexId s : distinct) {
      uint32_t d = (v / 10 > s / 10 ? v / 10 - s / 10 : s / 10 - v / 10) +
                   (v % 10 > s % 10 ? v % 10 - s % 10 : s % 10 - v % 10);
      want = std::min(want, d);
    }
    EXPECT_EQ(level[v], want) << "v=" << v;
  }
}

TEST(DistEngineTest, SteadySuperstepCostsTwoBarriers) {
  // The barrier budget, read off the World's completed-barrier counter on
  // rank 0 around each collective call: seeding 1, promotion 2, and every
  // superstep 2 (compute barrier + fused reduction), in both adaptive and
  // pull-only mode.
  Graph g = Graph::FromEdges(GenerateGrid(12, 12, true));
  for (ModePolicy policy : {ModePolicy::kAdaptive, ModePolicy::kAlwaysPull}) {
    EngineOptions opt;
    opt.mode_policy = policy;
    EngineHarness<float> h(g, 4, 1, opt);
    std::vector<float> dist(g.num_vertices(),
                            std::numeric_limits<float>::infinity());
    dist[0] = 0;
    uint64_t seeding = 0, promotion = 0;
    std::vector<uint64_t> steps;
    h.cluster.Run([&](sim::NodeContext& ctx) {
      const sim::World& world = *ctx.world;
      h.engine.BeginRun(ctx);
      uint64_t mark = world.barriers_completed();
      h.engine.ActivateSeeds(ctx, {0});
      if (ctx.rank == 0) seeding = world.barriers_completed() - mark;
      mark = world.barriers_completed();
      uint64_t active = h.engine.PromoteActiveSet(ctx);
      if (ctx.rank == 0) promotion = world.barriers_completed() - mark;
      while (active > 0) {
        mark = world.barriers_completed();
        active = h.engine.ProcessEdges(
            ctx, std::numeric_limits<float>::infinity(),
            [&dist](float acc, VertexId src, Weight w) {
              return std::min(acc, AtomicLoad(&dist[src]) + w);
            },
            [&dist](VertexId dst, float acc) {
              if (acc < dist[dst]) {
                AtomicStore(&dist[dst], acc);
                return true;
              }
              return false;
            },
            [&dist](VertexId src, VertexId dst, Weight w) {
              return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
            },
            kActiveOnly);
        if (ctx.rank == 0) steps.push_back(world.barriers_completed() - mark);
      }
      h.engine.FinishRun(ctx);
    });
    EXPECT_EQ(seeding, 1u);
    EXPECT_EQ(promotion, 2u);
    ASSERT_GT(steps.size(), 5u);
    for (uint64_t b : steps) EXPECT_EQ(b, 2u);
  }
}

TEST(DistEngineTest, PerIterationTraceMatchesTotals) {
  Graph g = Graph::FromEdges(GenerateGrid(12, 12, true));
  EngineHarness<float> h(g, 2, 1);
  std::vector<float> dist(g.num_vertices(),
                          std::numeric_limits<float>::infinity());
  dist[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, std::numeric_limits<float>::infinity(),
          [&dist](float acc, VertexId src, Weight w) {
            return std::min(acc, AtomicLoad(&dist[src]) + w);
          },
          [&dist](VertexId dst, float acc) {
            if (acc < dist[dst]) {
              AtomicStore(&dist[dst], acc);
              return true;
            }
            return false;
          },
          [&dist](VertexId src, VertexId dst, Weight w) {
            return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
          },
          kActiveOnly);
    }
    h.engine.FinishRun(ctx);
  });
  const EngineStats& stats = h.engine.stats();
  uint64_t trace_total = 0;
  for (uint64_t c : stats.per_iter_computations) trace_total += c;
  EXPECT_EQ(trace_total, stats.computations);
  EXPECT_EQ(stats.per_iter_computations.size(), stats.iterations);
  EXPECT_EQ(stats.per_iter_mode.size(), stats.iterations);
}

// Wraps a callable so that it can only be moved. std::function requires
// copyable targets, so DistEngineTest.TakesMoveOnlyCallables stops
// compiling if the engine or the runner goes back to type erasure.
template <typename Fn>
struct MoveOnly {
  Fn fn;
  std::unique_ptr<int> token = nullptr;
  template <typename... Args>
  auto operator()(Args... args) const {
    return fn(args...);
  }
};

TEST(DistEngineTest, TakesMoveOnlyCallables) {
  Graph g = Graph::FromEdges(GenerateGrid(10, 10));
  std::vector<uint32_t> level;
  const MoveOnly gather{[&level](uint32_t acc, VertexId src, Weight) {
    uint32_t lv = AtomicLoad(&level[src]);
    return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
  }};
  const MoveOnly apply{[&level](VertexId dst, uint32_t acc) {
    if (acc >= level[dst]) return false;
    AtomicStore(&level[dst], acc);
    return true;
  }};
  const MoveOnly scatter{[&level](VertexId src, VertexId dst, Weight) {
    uint32_t lv = AtomicLoad(&level[src]);
    return lv != UINT32_MAX && AtomicMin(&level[dst], lv + 1);
  }};
  const MoveOnly filter{kActiveOnly};
  static_assert(!std::is_copy_constructible_v<decltype(gather)>);
  auto reset = [&] {
    level.assign(g.num_vertices(), UINT32_MAX);
    level[0] = 0;
  };
  auto expect_manhattan = [&] {
    for (VertexId v = 0; v < level.size(); ++v) {
      EXPECT_EQ(level[v], v / 10 + v % 10) << "v=" << v;
    }
  };

  for (ModePolicy policy : {ModePolicy::kAlwaysPull, ModePolicy::kAlwaysPush}) {
    EngineOptions opt;
    opt.mode_policy = policy;
    EngineHarness h(g, 4, 2, opt);
    reset();
    h.cluster.Run([&](sim::NodeContext& ctx) {
      h.engine.BeginRun(ctx);
      h.engine.ActivateSeeds(ctx, {0});
      uint64_t active = h.engine.PromoteActiveSet(ctx);
      while (active > 0) {
        active = h.engine.ProcessEdges(ctx, UINT32_MAX, gather, apply,
                                       scatter, filter);
      }
      h.engine.FinishRun(ctx);
    });
    Mode want = policy == ModePolicy::kAlwaysPull ? Mode::kPull : Mode::kPush;
    for (Mode m : h.engine.stats().per_iter_mode) EXPECT_EQ(m, want);
    expect_manhattan();
  }

  // The RR runner passes the app's callables straight through as well.
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  EngineHarness h(g, 3, 1);
  MinMaxRunner<uint32_t> runner(&h.engine, &guidance);
  reset();
  h.cluster.Run([&](sim::NodeContext& ctx) {
    runner.Run(ctx, {0}, UINT32_MAX, gather, apply, scatter);
  });
  expect_manhattan();
}

}  // namespace
}  // namespace slfe
