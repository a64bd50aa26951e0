// Component microbenchmarks (google-benchmark): CSR construction, chunk
// partitioning, RR guidance generation, bitmap throughput, generator
// throughput, and the engine's pull gather over a partly active frontier
// (the min/max apps' dense superstep). These bound the per-edge costs
// every experiment above is built on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/random.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/partitioner.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

EdgeList BenchEdges(EdgeId edges) {
  RmatOptions opt;
  opt.num_vertices = static_cast<VertexId>(edges / 8);
  opt.num_edges = edges;
  opt.seed = 42;
  return GenerateRmat(opt);
}

void BM_RmatGenerate(benchmark::State& state) {
  EdgeId edges = static_cast<EdgeId>(state.range(0));
  for (auto _ : state) {
    EdgeList e = BenchEdges(edges);
    benchmark::DoNotOptimize(e.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_RmatGenerate)->Arg(1 << 14)->Arg(1 << 17);

void BM_CsrBuild(benchmark::State& state) {
  EdgeList e = BenchEdges(static_cast<EdgeId>(state.range(0)));
  for (auto _ : state) {
    Csr csr = Csr::FromEdgesBySource(e);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * e.num_edges());
}
BENCHMARK(BM_CsrBuild)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

void BM_ChunkPartition(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(1 << 17));
  ChunkPartitioner partitioner;
  for (auto _ : state) {
    auto ranges = partitioner.Partition(g, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(ranges.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ChunkPartition)->Arg(2)->Arg(8)->Arg(64);

void BM_RrgGenerate(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(static_cast<EdgeId>(state.range(0))));
  for (auto _ : state) {
    RRGuidance rrg = RRGuidance::Generate(g, {0});
    benchmark::DoNotOptimize(rrg.depth());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RrgGenerate)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

void BM_DistGraphBuild(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(1 << 17));
  for (auto _ : state) {
    DistGraph dg = DistGraph::Build(g, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(dg.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DistGraphBuild)->Arg(1)->Arg(8);

void BM_BitmapSetScan(benchmark::State& state) {
  size_t n = 1 << 20;
  Bitmap bitmap(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; i += 3) bitmap.SetBit(i);
    uint64_t ones = bitmap.CountOnes();
    benchmark::DoNotOptimize(ones);
    bitmap.Clear();
  }
  state.SetItemsProcessed(state.iterations() * n / 3);
}
BENCHMARK(BM_BitmapSetScan);

// One kGatherActive pull superstep, SSSP-shaped, at one node and one
// thread with the given percentage of sources active. Items are in-edges
// scanned: every in-edge's source is tested, and only active ones are
// gathered.
void BM_PullGather(benchmark::State& state) {
  RmatOptions opt;
  opt.num_vertices = 1 << 14;
  opt.num_edges = 1 << 17;
  opt.weighted = true;
  opt.seed = 42;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  DistGraph dg = DistGraph::Build(g, 1);
  DistEngine<float> engine(dg, EngineOptions{});
  const double active_fraction = static_cast<double>(state.range(0)) / 100;
  Random rng(7);
  std::vector<float> dist(g.num_vertices());
  std::vector<VertexId> active;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    dist[v] = static_cast<float>(rng.Uniform(1000));
    if (rng.Bernoulli(active_fraction)) active.push_back(v);
  }
  std::vector<float> sink(g.num_vertices());
  const Mode pull = Mode::kPull;
  sim::Cluster cluster(1, 1);
  cluster.Run([&](sim::NodeContext& ctx) {
    engine.BeginRun(ctx);
    for (auto _ : state) {
      state.PauseTiming();
      engine.ActivateSeeds(ctx, active);
      engine.PromoteActiveSet(ctx);
      state.ResumeTiming();
      uint64_t next_active = engine.ProcessEdges(
          ctx, std::numeric_limits<float>::infinity(),
          [&dist](float acc, VertexId src, Weight w) {
            return std::min(acc, dist[src] + w);
          },
          [&sink](VertexId dst, float acc) {
            sink[dst] = acc;
            return false;  // next stays empty; every pass re-seeds
          },
          [](VertexId, VertexId, Weight) { return false; },
          ConstantFilter<PullAction::kGatherActive>{}, &pull);
      benchmark::DoNotOptimize(next_active);
      benchmark::DoNotOptimize(sink.data());
      benchmark::ClobberMemory();
    }
    engine.FinishRun(ctx);
  });
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PullGather)->Arg(5)->Arg(30)->Arg(50)->Arg(90);

}  // namespace
}  // namespace slfe

BENCHMARK_MAIN();
