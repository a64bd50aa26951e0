#ifndef SLFE_APPS_APP_COMMON_H_
#define SLFE_APPS_APP_COMMON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "slfe/common/logging.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/types.h"
#include "slfe/obs/trace.h"
#include "slfe/sim/cluster.h"
#include "slfe/sim/comm.h"

namespace slfe {

/// Shared configuration for all applications: how large the simulated
/// cluster is, whether SLFE's redundancy reduction is active, and the
/// knobs the paper's ablations toggle.
struct AppConfig {
  int num_nodes = 1;
  int threads_per_node = 1;
  /// false = the Gemini baseline (same engine, no guidance).
  bool enable_rr = false;
  bool enable_stealing = true;
  sim::CostModel cost_model;
  /// Arithmetic apps: iteration cap and L1 convergence threshold.
  uint32_t max_iters = 100;
  double epsilon = 1e-9;
  /// Single-source apps: query root.
  VertexId root = 0;
  /// Overrides the engine's dense/sparse switch threshold.
  double dense_fraction = 0.05;
  /// Serve guidance from the provider's cache (paper §4.4 multi-job
  /// amortization). Disable to force regeneration every run.
  bool use_guidance_cache = true;
  /// Provider to acquire guidance from; nullptr = the process-wide
  /// GuidanceProvider::Global(), which all apps share by default.
  GuidanceProvider* guidance_provider = nullptr;
  /// Optional per-job span trace (guidance_acquire.* spans are recorded
  /// against it). Null = tracing disabled; must outlive the run.
  obs::JobTrace* trace = nullptr;
  /// Partition of the run's graph into num_nodes ranks, built once per
  /// graph object and shared by every run on it (api::Session memoizes
  /// one per served graph version). Null = the run partitions locally.
  /// Non-owning: the caller keeps it alive for the run.
  const DistGraph* dist_graph = nullptr;
};

/// Common result bundle: engine statistics plus preprocessing cost.
struct AppRunInfo {
  EngineStats stats;
  uint64_t supersteps = 0;
  /// Guidance acquisition wall time actually paid by this run: the sweep
  /// cost on a cache miss, the near-zero lookup cost on a hit (Fig. 8
  /// numerator, amortized form).
  double guidance_seconds = 0;
  /// Guidance sweep depth (diagnostics).
  uint32_t guidance_depth = 0;
  /// True when a (non-null) guidance was actually acquired for this run.
  bool guidance_acquired = false;
  /// True when guidance came from the cache instead of a fresh sweep.
  bool guidance_cache_hit = false;
  /// True when this run piggybacked on another job's in-flight sweep
  /// (provider singleflight) — the JobService counts hit = cache_hit ||
  /// coalesced for its per-tenant amortization accounting.
  bool guidance_coalesced = false;
  /// True when the miss was served by patching the previous graph
  /// version's guidance (RRGuidance::Repair) instead of a full sweep.
  bool guidance_repaired = false;
  /// Safety-sweep updates (min/max apps; 0 means guidance was exact).
  uint64_t safety_sweep_updates = 0;
  /// Early-converged vertices at termination (arith apps, Fig. 2).
  uint64_t ec_vertices = 0;
};

/// Acquires RR guidance for an app run through the provider layer: root
/// selection per `policy`, cache lookup, parallel generation on miss.
/// Returns an empty acquisition (null guidance) when RR is disabled.
inline GuidanceAcquisition AcquireGuidance(const Graph& graph,
                                           const AppConfig& config,
                                           GuidanceRootPolicy policy) {
  if (!config.enable_rr) return {};
  GuidanceProvider& provider = ResolveProvider(config.guidance_provider);
  GuidanceRequest request;
  request.policy = policy;
  request.root = config.root;
  request.use_cache = config.use_guidance_cache;
  if (config.trace == nullptr) return provider.Acquire(graph, request);
  double start = config.trace->Now();
  GuidanceAcquisition acquisition = provider.Acquire(graph, request);
  const char* outcome = !acquisition          ? "none"
                        : acquisition.store_hit ? "store"
                        : acquisition.cache_hit ? "cache"
                        : acquisition.coalesced ? "coalesced"
                        : acquisition.repaired  ? "repair"
                                                : "generate";
  config.trace->AddSpanSince(std::string("guidance_acquire.") + outcome,
                             start);
  return acquisition;
}

/// Copies the acquisition's accounting into the run info.
inline void RecordGuidance(const GuidanceAcquisition& acquisition,
                           AppRunInfo* info) {
  if (!acquisition) return;
  info->guidance_acquired = true;
  info->guidance_seconds = acquisition.acquire_seconds;
  info->guidance_depth = acquisition.guidance->depth();
  info->guidance_cache_hit = acquisition.cache_hit;
  info->guidance_coalesced = acquisition.coalesced;
  info->guidance_repaired = acquisition.repaired;
}

/// The partition a run executes on: `config.dist_graph` when the caller
/// supplied one (checked to be this graph's, cut for config.num_nodes),
/// else a fresh DistGraph::Build stored in `*local`.
inline const DistGraph& PartitionFor(const Graph& graph,
                                     const AppConfig& config,
                                     std::optional<DistGraph>* local) {
  if (config.dist_graph == nullptr) {
    return local->emplace(DistGraph::Build(graph, config.num_nodes));
  }
  SLFE_CHECK(&config.dist_graph->graph() == &graph)
      << "AppConfig::dist_graph partitions a different graph";
  SLFE_CHECK_EQ(config.dist_graph->num_nodes(), config.num_nodes);
  return *config.dist_graph;
}

namespace app_internal {

/// The cluster plumbing both run helpers share: takes the graph's
/// partition (PartitionFor), acquires guidance per `policy`, builds a
/// DistEngine<V> with a Runner over it, and runs `run(runner, ctx)` on
/// every rank of a fresh simulated cluster. `record(result, &info)` copies rank 0's runner result.
template <typename V, typename Runner, typename RunFn, typename RecordFn>
AppRunInfo RunOnCluster(const Graph& graph, const AppConfig& config,
                        GuidanceRootPolicy policy, const RunFn& run,
                        const RecordFn& record) {
  AppRunInfo info;
  std::optional<DistGraph> local;
  const DistGraph& dg = PartitionFor(graph, config, &local);
  GuidanceAcquisition guidance = AcquireGuidance(graph, config, policy);
  RecordGuidance(guidance, &info);

  EngineOptions options;
  options.enable_work_stealing = config.enable_stealing;
  options.cost_model = config.cost_model;
  options.dense_fraction = config.dense_fraction;
  options.guidance = guidance.guidance;  // null = the Gemini baseline
  DistEngine<V> engine(dg, options);
  Runner runner(&engine);

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto result = run(runner, ctx);
    if (ctx.rank == 0) {
      info.stats = result.stats;
      info.supersteps = result.supersteps;
      record(result, &info);
    }
  });
  return info;
}

}  // namespace app_internal

/// Runs a min/max app (paper Table 3's edgeProc with pushFunc/pullFunc)
/// on the simulated cluster: `seeds` start active, and gather/apply/
/// scatter are the app's callables as DistEngine::ProcessEdges takes them.
/// With `config.enable_rr`, MinMaxRunner applies "start late" from
/// guidance acquired per `policy`.
template <typename V, typename Gather, typename Apply, typename Scatter>
AppRunInfo RunMinMaxApp(const Graph& graph, const AppConfig& config,
                        GuidanceRootPolicy policy,
                        const std::vector<VertexId>& seeds, V identity,
                        const Gather& gather, const Apply& apply,
                        const Scatter& scatter) {
  return app_internal::RunOnCluster<V, MinMaxRunner<V>>(
      graph, config, policy,
      [&](MinMaxRunner<V>& runner, sim::NodeContext& ctx) {
        return runner.Run(ctx, seeds, identity, gather, apply, scatter);
      },
      [](const auto& result, AppRunInfo* info) {
        info->safety_sweep_updates = result.safety_sweep_updates;
      });
}

/// Runs an arithmetic app (edgeProc plus vertexUpdate) on the simulated
/// cluster: `values` is the propagated property array that `gather` reads
/// and `vertex_fn(v, acc)` produces (see ArithRunner::Run). With
/// `config.enable_rr`, ArithRunner applies "finish early" from guidance
/// acquired per `policy`.
template <typename V, typename Gather, typename VertexFn>
AppRunInfo RunArithApp(const Graph& graph, const AppConfig& config,
                       GuidanceRootPolicy policy, std::vector<V>* values,
                       V identity, const Gather& gather,
                       const VertexFn& vertex_fn, uint32_t max_iters,
                       double epsilon) {
  return app_internal::RunOnCluster<V, ArithRunner<V>>(
      graph, config, policy,
      [&](ArithRunner<V>& runner, sim::NodeContext& ctx) {
        return runner.Run(ctx, values, identity, gather, vertex_fn,
                          max_iters, epsilon);
      },
      [](const auto& result, AppRunInfo* info) {
        info->ec_vertices = result.ec_vertices;
      });
}

}  // namespace slfe

#endif  // SLFE_APPS_APP_COMMON_H_
