#include "slfe/apps/bfs.h"

#include <algorithm>
#include <cstdint>

#include "slfe/api/engine_adapters.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/sim/cluster.h"

namespace slfe {

BfsResult RunBfs(const Graph& graph, const AppConfig& config) {
  BfsResult result;
  result.levels.assign(graph.num_vertices(), UINT32_MAX);
  result.levels[config.root] = 0;

  DistGraph dg = DistGraph::Build(graph, config.num_nodes);

  GuidanceAcquisition guidance =
      AcquireGuidance(graph, config, GuidanceRootPolicy::kSingleSource);
  RecordGuidance(guidance, &result.info);

  DistEngine<uint32_t> engine(dg, MakeEngineOptions(config, guidance));
  MinMaxRunner<uint32_t> runner(&engine);

  std::vector<uint32_t>& levels = result.levels;
  auto gather = [&levels](uint32_t acc, VertexId src, Weight) {
    uint32_t lv = AtomicLoad(&levels[src]);
    uint32_t candidate = lv == UINT32_MAX ? UINT32_MAX : lv + 1;
    return candidate < acc ? candidate : acc;
  };
  auto apply = [&levels](VertexId dst, uint32_t acc) {
    if (acc < levels[dst]) {
      AtomicStore(&levels[dst], acc);  // other ranks gather it concurrently
      return true;
    }
    return false;
  };
  auto scatter = [&levels](VertexId src, VertexId dst, Weight) {
    uint32_t lv = AtomicLoad(&levels[src]);
    if (lv == UINT32_MAX) return false;
    return AtomicMin(&levels[dst], lv + 1);
  };

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto run =
        runner.Run(ctx, {config.root}, UINT32_MAX, gather, apply, scatter);
    if (ctx.rank == 0) {
      result.info.stats = run.stats;
      result.info.supersteps = run.supersteps;
      result.info.safety_sweep_updates = run.safety_sweep_updates;
    }
  });
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppRegistrar register_bfs([] {
  api::AppDescriptor d;
  d.name = "bfs";
  d.summary = "breadth-first search hop counts";
  d.root_policy = GuidanceRootPolicy::kSingleSource;
  d.single_source = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    BfsResult r = RunBfs(ctx.graph, ctx.config);
    api::AppOutcome out;
    out.info = r.info;
    out.values = api::ToValues(r.levels);
    uint32_t depth = 0;
    for (uint32_t l : r.levels) {
      if (l != UINT32_MAX) depth = std::max(depth, l);
    }
    out.summary = depth;
    out.summary_text = "max level=" + std::to_string(depth);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
