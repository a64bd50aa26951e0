#include "slfe/engine/dist_graph.h"

#include <algorithm>

#include "slfe/common/logging.h"

namespace slfe {

std::vector<VertexRange> DistGraph::BuildRanges(const Graph& graph,
                                                int num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
  ChunkPartitioner partitioner;
  return partitioner.Partition(graph, static_cast<size_t>(num_nodes));
}

DistGraph DistGraph::Build(const Graph& graph, int num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
  return BuildWithRanges(graph, BuildRanges(graph, num_nodes));
}

DistGraph DistGraph::BuildWithRanges(const Graph& graph,
                                     std::vector<VertexRange> ranges) {
  SLFE_CHECK_GE(ranges.size(), 1u);
  SLFE_CHECK(ChunkPartitioner::ValidatePartition(ranges, graph.num_vertices())
                 .ok());
  int num_nodes = static_cast<int>(ranges.size());
  DistGraph dg;
  dg.graph_ = &graph;
  dg.ranges_ = std::move(ranges);

  VertexId n = graph.num_vertices();
  dg.mirror_count_.assign(n, 0);
  dg.node_out_edges_.assign(num_nodes, 0);
  dg.node_in_edges_.assign(num_nodes, 0);

  // Owner of every vertex, so the per-edge lookup below is one load
  // instead of a binary search over the ranges.
  SLFE_CHECK_LE(num_nodes, 65536);
  std::vector<uint16_t> owner_of(n);
  for (int p = 0; p < num_nodes; ++p) {
    const VertexRange& r = dg.ranges_[p];
    std::fill(owner_of.begin() + r.begin, owner_of.begin() + r.end,
              static_cast<uint16_t>(p));
  }

  // Mirror index: for each master v, count distinct non-owner nodes that
  // own at least one out-neighbor. Out-neighbors are not sorted by owner,
  // so mark nodes in a small stamp array (num_nodes <= 255).
  std::vector<uint32_t> stamp(num_nodes, UINT32_MAX);
  for (VertexId v = 0; v < n; ++v) {
    int owner = owner_of[v];
    int mirrors = 0;
    graph.out().ForEachNeighbor(v, [&](VertexId u, Weight) {
      int uo = owner_of[u];
      if (uo != owner && stamp[uo] != v) {
        stamp[uo] = v;
        ++mirrors;
      }
    });
    dg.mirror_count_[v] = static_cast<uint8_t>(mirrors);
  }

  for (int p = 0; p < num_nodes; ++p) {
    const VertexRange& r = dg.ranges_[p];
    for (VertexId v = r.begin; v < r.end; ++v) {
      dg.node_out_edges_[p] += graph.out_degree(v);
      dg.node_in_edges_[p] += graph.in_degree(v);
    }
  }
  return dg;
}

}  // namespace slfe
