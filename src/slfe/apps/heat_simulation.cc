#include "slfe/apps/heat_simulation.h"

#include "slfe/api/engine_adapters.h"
#include "slfe/common/logging.h"

namespace slfe {

HeatSimulationResult RunHeatSimulation(const Graph& graph,
                                       const std::vector<float>& initial,
                                       const AppConfig& config, float alpha) {
  VertexId n = graph.num_vertices();
  SLFE_CHECK_EQ(initial.size(), n);
  HeatSimulationResult result;
  result.heat = initial;

  std::vector<float>& heat = result.heat;
  auto gather = [&heat](float acc, VertexId src, Weight) {
    return acc + heat[src];
  };
  // The runner commits the returned value into `heat` itself; the vertex
  // function only derives it (heat[v] still holds the previous-iteration
  // temperature at this point).
  auto commit = [&graph, &heat, alpha](VertexId v, float acc) {
    VertexId in_deg = graph.in_degree(v);
    if (in_deg == 0) return heat[v];  // boundary source holds temperature
    float avg = acc / static_cast<float>(in_deg);
    return (1.0f - alpha) * heat[v] + alpha * avg;
  };

  result.info = RunArithApp<float>(graph, config,
                                   GuidanceRootPolicy::kSourceVertices, &heat,
                                   0.0f, gather, commit, config.max_iters,
                                   config.epsilon);
  return result;
}

// Self-registration (see api/app_registry.h). Canonical input: a single
// 100-degree hot spot at the request root, everything else cold.
namespace {

api::AppRegistrar register_heat([] {
  api::AppDescriptor d;
  d.name = "heat";
  d.summary = "Jacobi heat diffusion from a hot spot";
  d.root_policy = GuidanceRootPolicy::kSourceVertices;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    std::vector<float> initial(ctx.graph.num_vertices(), 0.0f);
    if (!initial.empty()) {
      initial[ctx.config.root % initial.size()] = 100.0f;
    }
    HeatSimulationResult r = RunHeatSimulation(ctx.graph, initial,
                                               ctx.config, ctx.request.alpha);
    api::AppOutcome out;
    out.info = r.info;
    out.values = api::ToValues(r.heat);
    uint64_t warmed = 0;
    for (float h : r.heat) {
      if (h > 0) ++warmed;
    }
    out.summary = warmed;
    out.summary_text = "warmed=" + std::to_string(warmed);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
