#include "slfe/apps/tr.h"

#include "slfe/api/engine_adapters.h"
#include "slfe/gas/gas_apps.h"

namespace slfe {

TrResult RunTr(const Graph& graph, const AppConfig& config,
               float retweet_probability) {
  VertexId n = graph.num_vertices();
  TrResult result;
  result.influence.assign(n, 1.0f);

  // Propagated value: (1 + p*influence(u)) / following(u), precomputed per
  // follower u so the gather is a plain sum.
  std::vector<float> contrib(n);
  std::vector<float>& influence = result.influence;
  const float p = retweet_probability;
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = graph.out_degree(v);
    contrib[v] = od > 0 ? (1.0f + p * influence[v]) / static_cast<float>(od)
                        : 0.0f;
  }

  auto gather = [&contrib](float acc, VertexId src, Weight) {
    return acc + contrib[src];
  };
  auto vertex_fn = [&graph, &influence, p](VertexId v, float acc) {
    influence[v] = acc;
    VertexId od = graph.out_degree(v);
    return od > 0 ? (1.0f + p * acc) / static_cast<float>(od) : 0.0f;
  };

  result.info = RunArithApp<float>(graph, config,
                                   GuidanceRootPolicy::kSourceVertices,
                                   &contrib, 0.0f, gather, vertex_fn,
                                   config.max_iters, config.epsilon);
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppOutcome TrOutcome(AppRunInfo info,
                          const std::vector<float>& influence) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(influence);
  out.summary = info.ec_vertices;
  out.summary_text = "EC vertices=" + std::to_string(info.ec_vertices);
  return out;
}

api::AppRegistrar register_tr([] {
  api::AppDescriptor d;
  d.name = "tr";
  d.summary = "TunkRank influence scores (finish-early RR)";
  d.root_policy = GuidanceRootPolicy::kSourceVertices;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    TrResult r = RunTr(ctx.graph, ctx.config, ctx.request.retweet_probability);
    return TrOutcome(r.info, r.influence);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    // Baseline only: fixed-iteration arithmetic (see the pr descriptor).
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    gas::GasTrResult r = gas::RunGasTr(ctx.graph, ctx.config.max_iters, opt,
                                       ctx.request.retweet_probability);
    return TrOutcome(api::FromGasStats(r.stats), r.influence);
  };
  return d;
}());

}  // namespace

}  // namespace slfe
