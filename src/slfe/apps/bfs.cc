#include "slfe/apps/bfs.h"

#include <algorithm>
#include <cstdint>

#include "slfe/api/engine_adapters.h"
#include "slfe/engine/atomic_ops.h"

namespace slfe {

BfsResult RunBfs(const Graph& graph, const AppConfig& config) {
  BfsResult result;
  result.levels.assign(graph.num_vertices(), UINT32_MAX);
  result.levels[config.root] = 0;

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

  result.info = RunMinMaxApp<uint32_t>(
      graph, config, GuidanceRootPolicy::kSingleSource, {config.root},
      UINT32_MAX, gather, apply, scatter);
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
