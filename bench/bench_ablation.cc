// Ablation bench for the design choices DESIGN.md calls out:
//   1. RR delayed-update recovery variant (gather-all-at-start vs
//      dirty-vertex transition push vs paper-literal all-vertex push);
//   2. dense/sparse switch threshold (Gemini's |E|/20 vs alternatives);
//   3. chunk partitioner alpha (edge weight in the balance metric);
//   4. guidance generation (the sweep vs cached retrieval).
// Each section prints total computations, updates, and runtime so the
// trade-offs are visible side by side.

#include <cstdio>
#include <limits>
#include <numeric>
#include <string>

#include "bench/bench_util.h"
#include "slfe/apps/sssp.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/graph/partitioner.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

/// SSSP under a specific RRVariant (RunSssp hard-codes the default, so
/// this drives the runner directly).
EngineStats SsspWithVariant(const Graph& g, RRVariant variant) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> dist(g.num_vertices(), kInf);
  dist[0] = 0.0f;
  DistGraph dg = DistGraph::Build(g, 8);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  EngineOptions opt;
  DistEngine<float> engine(dg, opt);
  MinMaxRunner<float> runner(&engine, &guidance, variant);
  auto gather = [&dist](float acc, VertexId src, Weight w) {
    float c = AtomicLoad(&dist[src]) + w;
    return c < acc ? c : acc;
  };
  auto apply = [&dist](VertexId dst, float acc) {
    if (acc < dist[dst]) {
      AtomicStore(&dist[dst], acc);  // other ranks gather it concurrently
      return true;
    }
    return false;
  };
  auto scatter = [&dist](VertexId src, VertexId dst, Weight w) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
  };
  EngineStats stats;
  sim::Cluster cluster(8, 1);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto run = runner.Run(ctx, {0}, kInf, gather, apply, scatter);
    if (ctx.rank == 0) stats = run.stats;
  });
  return stats;
}

void VariantAblation() {
  std::printf("\n[1] RR recovery variant (SSSP, 8N)\n");
  std::printf("%-8s %-22s %-14s %-10s %-12s\n", "graph", "variant",
              "computations", "updates", "runtime(s)");
  bench::PrintRule();
  struct Named {
    RRVariant v;
    const char* name;
  };
  for (const char* alias : {"LJ", "FS"}) {
    const Graph& g = bench::LoadGraph(alias);
    for (Named nv : {Named{RRVariant::kGatherAllAtStart, "gather-all-at-start"},
                     Named{RRVariant::kDirtyPush, "dirty-push"},
                     Named{RRVariant::kAllPush, "all-push (paper Alg.3)"}}) {
      EngineStats s = SsspWithVariant(g, nv.v);
      std::printf("%-8s %-22s %-14llu %-10llu %-12.4f\n", alias, nv.name,
                  static_cast<unsigned long long>(s.computations),
                  static_cast<unsigned long long>(s.updates),
                  s.RuntimeSeconds());
    }
  }
}

void ThresholdAblation() {
  std::printf("\n[2] dense/sparse switch threshold (SSSP w/ RR, 8N, FS)\n");
  std::printf("%-12s %-12s %-14s %-12s\n", "threshold", "supersteps",
              "computations", "runtime(s)");
  bench::PrintRule();
  const Graph& g = bench::LoadGraph("FS");
  for (double fraction : {0.01, 0.05, 0.2, 1.0}) {
    AppConfig cfg = bench::ClusterConfig(8, true);
    cfg.dense_fraction = fraction;
    SsspResult r = RunSssp(g, cfg);
    std::printf("|E|*%-7.2f %-12llu %-14llu %-12.4f\n", fraction,
                static_cast<unsigned long long>(r.info.supersteps),
                static_cast<unsigned long long>(r.info.stats.computations),
                r.info.stats.RuntimeSeconds());
  }
  std::printf("(1.0 = push-only in practice; Gemini's default is 0.05)\n");
}

void PartitionerAblation() {
  std::printf("\n[3] chunk partitioner alpha (edge weight in balance "
              "metric), FS, 8 parts\n");
  std::printf("%-8s %-18s\n", "alpha", "edge imbalance");
  bench::PrintRule();
  const Graph& g = bench::LoadGraph("FS");
  for (double alpha : {0.0, 0.5, 1.0, 4.0, 16.0}) {
    ChunkPartitioner::Options opt;
    opt.alpha = alpha;
    ChunkPartitioner partitioner(opt);
    auto ranges = partitioner.Partition(g, 8);
    std::printf("%-8.1f %-18.3f\n", alpha,
                ChunkPartitioner::EdgeImbalance(g, ranges));
  }
  std::printf("(alpha=0 balances vertices only; larger alpha balances "
              "edges, which drives pull-mode work)\n");
}

void GuidanceGenerationAblation() {
  std::printf("\n[4] guidance generation (single-source roots)\n");
  std::printf("%-8s %-22s %-14s %-12s\n", "graph", "path", "seconds",
              "vs sweep");
  bench::PrintRule();
  for (const char* alias : {"LJ", "FS"}) {
    const Graph& g = bench::LoadGraph(alias);
    double sweep = RRGuidance::Generate(g, {0}).generation_seconds();
    std::printf("%-8s %-22s %-14.6f %-12s\n", alias, "serial sweep", sweep,
                "1.00x");
    GuidanceProvider provider;
    provider.AcquireForRoots(g, {0});  // warm the cache
    double hit = provider.AcquireForRoots(g, {0}).acquire_seconds;
    std::printf("%-8s %-22s %-14.6f %.0fx\n", alias, "cached retrieval", hit,
                hit > 0 ? sweep / hit : 0.0);
  }
  std::printf("(cached retrieval is the paper's multi-job amortization "
              "path, ~8.7 jobs/graph)\n");
}

void Run() {
  bench::PrintHeader(
      "Ablations: RR variant, mode threshold, partitioner, guidance");
  VariantAblation();
  ThresholdAblation();
  PartitionerAblation();
  GuidanceGenerationAblation();
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
