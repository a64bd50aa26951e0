#include "slfe/apps/pr.h"

#include "slfe/api/engine_adapters.h"
#include "slfe/gas/gas_apps.h"

namespace slfe {

PrResult RunPr(const Graph& graph, const AppConfig& config) {
  VertexId n = graph.num_vertices();
  PrResult result;
  result.ranks.assign(n, 1.0f);

  // The propagated property is the out-contribution rank/out_degree (what a
  // successor gathers); `ranks` keeps the displayed damped rank.
  std::vector<float> contrib(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = graph.out_degree(v);
    contrib[v] = od > 0 ? 1.0f / static_cast<float>(od) : 1.0f;
  }
  std::vector<float>& ranks = result.ranks;

  auto gather = [&contrib](float acc, VertexId src, Weight) {
    return acc + contrib[src];
  };
  // vertexUpdate (the paper's vOp): damp, record the rank, and commit the
  // next out-contribution as the propagated value.
  auto vertex_fn = [&graph, &ranks](VertexId v, float acc) {
    float rank = 0.15f + 0.85f * acc;
    ranks[v] = rank;
    VertexId od = graph.out_degree(v);
    return od > 0 ? rank / static_cast<float>(od) : rank;
  };

  result.info = RunArithApp<float>(graph, config,
                                   GuidanceRootPolicy::kSourceVertices,
                                   &contrib, 0.0f, gather, vertex_fn,
                                   config.max_iters, config.epsilon);
  return result;
}

// Self-registration (see api/app_registry.h). PR runs everywhere: dist
// ("finish early" multi-Ruler), shm, GAS (baseline only — delaying
// gathers of a fixed-iteration arithmetic app would change the result),
// and out-of-core (finish-early shard sweeps).
namespace {

api::AppOutcome PrOutcome(AppRunInfo info, const std::vector<float>& ranks) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(ranks);
  out.summary = info.ec_vertices;
  out.summary_text =
      "EC vertices=" + std::to_string(info.ec_vertices);
  return out;
}

api::AppRegistrar register_pr([] {
  api::AppDescriptor d;
  d.name = "pr";
  d.summary = "PageRank, damping 0.85 (finish-early RR)";
  d.root_policy = GuidanceRootPolicy::kSourceVertices;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    PrResult r = RunPr(ctx.graph, ctx.config);
    return PrOutcome(r.info, r.ranks);
  };
  d.runners[api::Engine::kShm] = [](const api::RunContext& ctx) {
    std::vector<float> ranks;
    shm::ShmStats stats = shm::ShmPr(ctx.graph, ctx.config.max_iters,
                                     api::ShmThreads(ctx.config), &ranks);
    return PrOutcome(api::FromShmStats(stats), ranks);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    gas::GasPrResult r = gas::RunGasPr(ctx.graph, ctx.config.max_iters, opt);
    return PrOutcome(api::FromGasStats(r.stats), r.ranks);
  };
  d.runners[api::Engine::kOoc] = [](const api::RunContext& ctx) {
    Result<ooc::OocEngine> built =
        ooc::OocEngine::Build(ctx.graph, ctx.OocDir(), api::kOocShards);
    if (!built.ok()) {
      api::AppOutcome out;
      out.status = built.status();
      return out;
    }
    ooc::OocEngine engine = std::move(built).value();
    std::vector<float> ranks;
    api::AppOutcome out;
    GuidanceAcquisition acq = AcquireGuidance(
        ctx.graph, ctx.config, GuidanceRootPolicy::kSourceVertices);
    if (acq) {
      // One acquisition per run: the runner's Acquire carries the
      // hit/coalesced accounting AND feeds the sweep.
      ooc::OocStats stats = ooc::OocPrGuided(engine, ctx.graph,
                                             ctx.config.max_iters, &ranks, acq);
      out = PrOutcome(api::FromOocStats(stats), ranks);
      RecordGuidance(acq, &out.info);
    } else {
      ooc::OocStats stats =
          ooc::OocPr(engine, ctx.graph, ctx.config.max_iters, &ranks);
      out = PrOutcome(api::FromOocStats(stats), ranks);
    }
    engine.RemoveFiles();
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
