#include "slfe/apps/belief_propagation.h"

#include <cmath>

#include "slfe/api/engine_adapters.h"
#include "slfe/common/logging.h"

namespace slfe {

BeliefPropagationResult RunBeliefPropagation(const Graph& graph,
                                             const std::vector<float>& prior,
                                             const AppConfig& config,
                                             float coupling, float damping) {
  VertexId n = graph.num_vertices();
  SLFE_CHECK_EQ(prior.size(), n);
  BeliefPropagationResult result;
  result.belief = prior;

  std::vector<float>& belief = result.belief;
  auto gather = [&belief](float acc, VertexId src, Weight) {
    return acc + std::tanh(belief[src]);
  };
  auto commit = [&prior, &belief, coupling, damping](VertexId v, float acc) {
    float target = prior[v] + coupling * acc;
    return (1.0f - damping) * belief[v] + damping * target;
  };

  result.info = RunArithApp<float>(graph, config,
                                   GuidanceRootPolicy::kSourceVertices,
                                   &belief, 0.0f, gather, commit,
                                   config.max_iters, config.epsilon);
  return result;
}

// Self-registration (see api/app_registry.h). Canonical input: positive
// log-odds evidence (+2) at the request root, no evidence elsewhere.
namespace {

api::AppRegistrar register_bp([] {
  api::AppDescriptor d;
  d.name = "bp";
  d.summary = "loopy belief propagation (damped mean-field MRF)";
  d.root_policy = GuidanceRootPolicy::kSourceVertices;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    std::vector<float> prior(ctx.graph.num_vertices(), 0.0f);
    if (!prior.empty()) {
      prior[ctx.config.root % prior.size()] = 2.0f;
    }
    BeliefPropagationResult r =
        RunBeliefPropagation(ctx.graph, prior, ctx.config,
                             ctx.request.coupling, ctx.request.damping);
    api::AppOutcome out;
    out.info = r.info;
    out.values = api::ToValues(r.belief);
    uint64_t positive = 0;
    for (float b : r.belief) {
      if (b > 0) ++positive;
    }
    out.summary = positive;
    out.summary_text = "MAP-positive=" + std::to_string(positive);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
