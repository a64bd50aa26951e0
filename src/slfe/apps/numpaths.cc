#include "slfe/apps/numpaths.h"

#include "slfe/api/engine_adapters.h"

namespace slfe {

NumPathsResult RunNumPaths(const Graph& graph, const AppConfig& config,
                           uint32_t max_length) {
  VertexId n = graph.num_vertices();
  NumPathsResult result;

  // walks[v] accumulates the number of root->v walks found so far;
  // `frontier_count` holds walks of exactly the current length.
  std::vector<double> walks(n, 0.0);
  std::vector<double> frontier_count(n, 0.0);
  frontier_count[config.root] = 1.0;
  walks[config.root] = 1.0;

  auto gather = [&frontier_count](double acc, VertexId src, Weight) {
    return acc + frontier_count[src];
  };
  auto vertex_fn = [&walks](VertexId v, double acc) {
    walks[v] += acc;
    return acc;  // becomes the next frontier count for v
  };

  result.info = RunArithApp<double>(graph, config,
                                    GuidanceRootPolicy::kSingleSource,
                                    &frontier_count, 0.0, gather, vertex_fn,
                                    max_length, /*epsilon=*/1e-12);
  result.paths = walks;
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppRegistrar register_numpaths([] {
  api::AppDescriptor d;
  d.name = "numpaths";
  d.summary = "walk counts of length <= k from a root";
  d.root_policy = GuidanceRootPolicy::kSingleSource;
  d.single_source = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    NumPathsResult r =
        RunNumPaths(ctx.graph, ctx.config, ctx.config.max_iters);
    api::AppOutcome out;
    out.info = r.info;
    out.values = r.paths;
    uint64_t reached = 0;
    for (double p : r.paths) {
      if (p > 0) ++reached;
    }
    out.summary = reached;
    out.summary_text = "reached=" + std::to_string(reached);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
