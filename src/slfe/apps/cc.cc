#include "slfe/apps/cc.h"

#include <numeric>

#include "slfe/api/engine_adapters.h"
#include "slfe/gas/gas_apps.h"
#include "slfe/engine/atomic_ops.h"

namespace slfe {

CcResult RunCc(const Graph& graph, const AppConfig& config) {
  CcResult result;
  result.labels.resize(graph.num_vertices());
  std::iota(result.labels.begin(), result.labels.end(), 0u);
  std::vector<VertexId> seeds(graph.num_vertices());
  std::iota(seeds.begin(), seeds.end(), 0u);

  std::vector<uint32_t>& labels = result.labels;
  auto gather = [&labels](uint32_t acc, VertexId src, Weight) {
    uint32_t candidate = AtomicLoad(&labels[src]);
    return candidate < acc ? candidate : acc;
  };
  auto apply = [&labels](VertexId dst, uint32_t acc) {
    if (acc < labels[dst]) {
      AtomicStore(&labels[dst], acc);  // other ranks gather it concurrently
      return true;
    }
    return false;
  };
  auto scatter = [&labels](VertexId src, VertexId dst, Weight) {
    return AtomicMin(&labels[dst], AtomicLoad(&labels[src]));
  };

  result.info = RunMinMaxApp<uint32_t>(graph, config,
                                       GuidanceRootPolicy::kLocalMinima,
                                       seeds, UINT32_MAX, gather, apply,
                                       scatter);
  return result;
}

// Self-registration (see api/app_registry.h). CC runs on every engine in
// the tree: the dist cluster, the Ligra-style shm engine, the GAS
// comparator, and the out-of-core shard sweeps.
namespace {

api::AppOutcome CcOutcome(AppRunInfo info,
                          const std::vector<uint32_t>& labels) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(labels);
  // Min-label propagation converges with every component labelled by its
  // smallest vertex, so each component has exactly one self-labelled vertex.
  uint64_t components = 0;
  for (VertexId v = 0; v < labels.size(); ++v) components += labels[v] == v;
  out.summary = components;
  out.summary_text = "components=" + std::to_string(components);
  return out;
}

api::AppRegistrar register_cc([] {
  api::AppDescriptor d;
  d.name = "cc";
  d.summary = "weakly connected components (min-label propagation)";
  d.root_policy = GuidanceRootPolicy::kLocalMinima;
  d.needs_symmetric = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    CcResult r = RunCc(ctx.graph, ctx.config);
    return CcOutcome(r.info, r.labels);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    GuidanceAcquisition acq = AcquireGuidance(
        ctx.graph, ctx.config, GuidanceRootPolicy::kLocalMinima);
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    opt.guidance = acq.guidance;  // "start late" gathers (monotone min)
    gas::GasCcResult r = gas::RunGasCc(ctx.graph, opt);
    api::AppOutcome out = CcOutcome(api::FromGasStats(r.stats), r.labels);
    RecordGuidance(acq, &out.info);
    return out;
  };
  d.runners[api::Engine::kShm] = [](const api::RunContext& ctx) {
    std::vector<uint32_t> labels;
    shm::ShmStats stats =
        shm::ShmCc(ctx.graph, api::ShmThreads(ctx.config), &labels);
    return CcOutcome(api::FromShmStats(stats), labels);
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
    std::vector<uint32_t> labels;
    ooc::OocStats stats;
    api::AppOutcome out;
    GuidanceAcquisition acq = AcquireGuidance(
        ctx.graph, ctx.config, GuidanceRootPolicy::kLocalMinima);
    if (acq) {
      // One acquisition per run: the runner's Acquire carries the
      // hit/coalesced accounting AND feeds the sweep.
      stats = ooc::OocCcGuided(engine, ctx.graph, &labels, acq);
      out = CcOutcome(api::FromOocStats(stats), labels);
      RecordGuidance(acq, &out.info);
    } else {
      stats = ooc::OocCc(engine, &labels);
      out = CcOutcome(api::FromOocStats(stats), labels);
    }
    engine.RemoveFiles();
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
