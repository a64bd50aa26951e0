#include "slfe/apps/spmv.h"

#include "slfe/api/engine_adapters.h"
#include "slfe/common/logging.h"

namespace slfe {

SpmvResult RunSpmv(const Graph& graph, const std::vector<float>& x,
                   const AppConfig& config, uint32_t iterations) {
  VertexId n = graph.num_vertices();
  SLFE_CHECK_EQ(x.size(), n);
  SpmvResult result;

  std::vector<float> values = x;  // the propagated vector
  auto gather = [&values](float acc, VertexId src, Weight w) {
    return acc + values[src] * w;
  };
  auto vertex_fn = [](VertexId, float acc) { return acc; };

  result.info = RunArithApp<float>(graph, config,
                                   GuidanceRootPolicy::kSourceVertices,
                                   &values, 0.0f, gather, vertex_fn,
                                   iterations, /*epsilon=*/0.0);
  result.y = values;
  return result;
}

// Self-registration (see api/app_registry.h). The uniform entry point
// uses the canonical input x = all-ones (the registry's contract: every
// declared pair is runnable with nothing but a name); embedders with a
// real vector call RunSpmv directly.
namespace {

api::AppRegistrar register_spmv([] {
  api::AppDescriptor d;
  d.name = "spmv";
  d.summary = "sparse matrix-vector multiply chain y=(A^T)^k x";
  d.root_policy = GuidanceRootPolicy::kSourceVertices;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    std::vector<float> x(ctx.graph.num_vertices(), 1.0f);
    SpmvResult r = RunSpmv(ctx.graph, x, ctx.config, ctx.config.max_iters);
    api::AppOutcome out;
    out.info = r.info;
    out.values = api::ToValues(r.y);
    uint64_t nonzero = 0;
    for (float v : r.y) {
      if (v != 0.0f) ++nonzero;
    }
    out.summary = nonzero;
    out.summary_text = "nonzero=" + std::to_string(nonzero);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
