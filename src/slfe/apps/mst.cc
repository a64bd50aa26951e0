#include "slfe/apps/mst.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <tuple>

#include "slfe/api/app_registry.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"

namespace slfe {

namespace {

/// Candidate edge for a component's minimum selection; ordered by
/// (weight, src, dst) for deterministic tie-breaking.
struct Candidate {
  Weight weight = 0;
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;

  bool Valid() const { return src != kInvalidVertex; }
  bool operator<(const Candidate& o) const {
    return std::tie(weight, src, dst) < std::tie(o.weight, o.src, o.dst);
  }
};

/// Mutating find with path halving — serial phases only.
VertexId FindRoot(std::vector<VertexId>& parent, VertexId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

/// Read-only find for the parallel phase (no compression, no writes, so
/// concurrent lookups are race-free; the serial contraction phase keeps
/// paths short).
VertexId FindRootConst(const std::vector<VertexId>& parent, VertexId v) {
  while (parent[v] != v) v = parent[v];
  return v;
}

}  // namespace

MstResult RunMst(const Graph& graph, const AppConfig& config) {
  MstResult result;
  Timer timer;
  VertexId n = graph.num_vertices();
  if (n == 0) return result;

  std::optional<DistGraph> local;
  const DistGraph& dg = PartitionFor(graph, config, &local);
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  WorkStealingScheduler scheduler(config.enable_stealing);

  // Per-round scratch: the minimum outgoing candidate of each component,
  // reduced first per node (lock-free by rank-disjoint vertex ranges,
  // then a short serial merge by rank 0 — components are shared state).
  std::vector<Candidate> best(n);
  std::vector<std::vector<Candidate>> node_best(
      config.num_nodes, std::vector<Candidate>(n));
  uint64_t work = 0;

  bool merged = true;
  while (merged) {
    merged = false;
    ++result.rounds;
    for (auto& nb : node_best) {
      std::fill(nb.begin(), nb.end(), Candidate{});
    }
    std::fill(best.begin(), best.end(), Candidate{});

    // Phase 1 (parallel, min-aggregation): each vertex scans its out-edges
    // and offers the lightest edge leaving its component.
    cluster.Run([&](sim::NodeContext& ctx) {
      const VertexRange& r = dg.range(ctx.rank);
      auto& nb = node_best[ctx.rank];
      scheduler.Run(*ctx.pool, r.begin, r.end,
                    [&](size_t, size_t lo, size_t hi) {
                      for (size_t sv = lo; sv < hi; ++sv) {
                        VertexId v = static_cast<VertexId>(sv);
                        VertexId cv = FindRootConst(parent, v);
                        graph.out().ForEachNeighbor(
                            v, [&](VertexId u, Weight w) {
                              VertexId cu = FindRootConst(parent, u);
                              if (cu == cv) return;
                              Candidate c{w, v, u};
                              if (!nb[cv].Valid() || c < nb[cv]) nb[cv] = c;
                            });
                      }
                    });
      ctx.world->Barrier();
    });
    work += graph.num_edges();

    // Phase 2 (serial): merge per-node minima, then contract components.
    for (int p = 0; p < config.num_nodes; ++p) {
      for (VertexId c = 0; c < n; ++c) {
        const Candidate& cand = node_best[p][c];
        if (cand.Valid() && (!best[c].Valid() || cand < best[c])) {
          best[c] = cand;
        }
      }
    }
    for (VertexId c = 0; c < n; ++c) {
      const Candidate& cand = best[c];
      if (!cand.Valid()) continue;
      VertexId a = FindRoot(parent, cand.src);
      VertexId b = FindRoot(parent, cand.dst);
      if (a == b) continue;  // both endpoints already merged this round
      parent[std::max(a, b)] = std::min(a, b);
      result.total_weight += cand.weight;
      ++result.tree_edges;
      merged = true;
    }
  }

  result.info.stats.computations = work;
  result.info.stats.pull_seconds = timer.Seconds();
  result.info.supersteps = result.rounds;
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppRegistrar register_mst([] {
  api::AppDescriptor d;
  d.name = "mst";
  d.summary = "minimum spanning forest (parallel Boruvka)";
  d.needs_symmetric = true;
  d.needs_weights = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    MstResult r = RunMst(ctx.graph, ctx.config);
    api::AppOutcome out;
    out.info = r.info;
    out.summary = r.tree_edges;
    char text[96];
    std::snprintf(text, sizeof(text),
                  "forest weight=%.0f edges=%llu rounds=%u", r.total_weight,
                  static_cast<unsigned long long>(r.tree_edges), r.rounds);
    out.summary_text = text;
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
