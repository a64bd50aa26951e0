#include "slfe/apps/triangle_count.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "slfe/api/app_registry.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"

namespace slfe {

namespace {

/// Undirected adjacency with each edge kept only toward the
/// higher-(degree, id) endpoint — every triangle is then discovered
/// exactly once as an intersection of two such lists.
std::vector<std::vector<VertexId>> BuildOrientedAdjacency(const Graph& g) {
  VertexId n = g.num_vertices();
  std::vector<VertexId> degree(n, 0);
  std::vector<std::vector<VertexId>> undirected(n);
  auto add = [&](VertexId a, VertexId b) {
    if (a == b) return;
    undirected[a].push_back(b);
  };
  for (VertexId v = 0; v < n; ++v) {
    g.out().ForEachNeighbor(v, [&](VertexId u, Weight) {
      add(v, u);
      add(u, v);
    });
  }
  for (VertexId v = 0; v < n; ++v) {
    auto& adj = undirected[v];
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    degree[v] = static_cast<VertexId>(adj.size());
  }
  // Orient each undirected edge toward the (degree, id)-larger endpoint.
  auto precedes = [&](VertexId a, VertexId b) {
    if (degree[a] != degree[b]) return degree[a] < degree[b];
    return a < b;
  };
  std::vector<std::vector<VertexId>> oriented(n);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : undirected[v]) {
      if (precedes(v, u)) oriented[v].push_back(u);
    }
    std::sort(oriented[v].begin(), oriented[v].end());
  }
  return oriented;
}

uint64_t IntersectCount(const std::vector<VertexId>& a,
                        const std::vector<VertexId>& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

TriangleCountResult RunTriangleCount(const Graph& graph,
                                     const AppConfig& config) {
  TriangleCountResult result;
  Timer timer;
  auto oriented = BuildOrientedAdjacency(graph);
  std::optional<DistGraph> local;
  const DistGraph& dg = PartitionFor(graph, config, &local);

  std::vector<uint64_t> node_counts(config.num_nodes, 0);
  std::vector<uint64_t> node_work(config.num_nodes, 0);
  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  WorkStealingScheduler scheduler(config.enable_stealing);
  cluster.Run([&](sim::NodeContext& ctx) {
    const VertexRange& r = dg.range(ctx.rank);
    std::vector<uint64_t> per_thread(ctx.pool->num_threads(), 0);
    std::vector<uint64_t> per_thread_work(ctx.pool->num_threads(), 0);
    scheduler.Run(*ctx.pool, r.begin, r.end,
                  [&](size_t worker, size_t lo, size_t hi) {
                    for (size_t sv = lo; sv < hi; ++sv) {
                      const auto& adj = oriented[sv];
                      for (VertexId u : adj) {
                        per_thread[worker] +=
                            IntersectCount(adj, oriented[u]);
                        per_thread_work[worker] +=
                            adj.size() + oriented[u].size();
                      }
                    }
                  });
    uint64_t local = 0, work = 0;
    for (size_t w = 0; w < per_thread.size(); ++w) {
      local += per_thread[w];
      work += per_thread_work[w];
    }
    node_counts[ctx.rank] = local;
    node_work[ctx.rank] = work;
    ctx.world->Barrier();
  });
  for (int p = 0; p < config.num_nodes; ++p) {
    result.triangles += node_counts[p];
    result.info.stats.computations += node_work[p];
  }
  result.info.stats.pull_seconds = timer.Seconds();
  result.info.supersteps = 1;
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppRegistrar register_tc([] {
  api::AppDescriptor d;
  d.name = "tc";
  d.summary = "triangle count (degree-ordered intersection)";
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    TriangleCountResult r = RunTriangleCount(ctx.graph, ctx.config);
    api::AppOutcome out;
    out.info = r.info;
    out.summary = r.triangles;
    out.summary_text = "triangles=" + std::to_string(r.triangles);
    return out;
  };
  return d;
}());

}  // namespace

}  // namespace slfe
