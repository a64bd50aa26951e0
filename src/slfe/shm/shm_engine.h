#ifndef SLFE_SHM_SHM_ENGINE_H_
#define SLFE_SHM_SHM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/thread_pool.h"
#include "slfe/common/timer.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/partitioner.h"

namespace slfe::shm {

/// Statistics of a shared-memory engine run.
struct ShmStats {
  uint64_t supersteps = 0;
  uint64_t computations = 0;
  uint64_t updates = 0;
  double seconds = 0;
};

/// A Ligra-style shared-memory frontier engine: edgeMap with
/// direction optimization (sparse push over the frontier's out-edges vs
/// dense pull over all vertices when the frontier is large) and vertexMap.
/// This is the single-node comparator of the paper's Fig. 6 — full
/// parallelism, whole graph in memory, no redundancy reduction.
class ShmEngine {
 public:
  /// update(src, dst, weight) -> dst changed (push direction; must be
  /// thread-safe: use atomic helpers).
  using UpdateFn = std::function<bool(VertexId, VertexId, Weight)>;
  /// cond(dst) -> still worth updating (Ligra's C function; enables BFS's
  /// "not yet visited" shortcut).
  using CondFn = std::function<bool(VertexId)>;

  /// Per-thread vertex ownership uses the same edge-balanced contiguous
  /// ranges DistGraph::Build cuts for a cluster of num_threads nodes.
  ShmEngine(const Graph& graph, size_t num_threads);

  /// One edgeMap step: applies `update` across the frontier's edges and
  /// returns the next frontier. Chooses pull when the frontier's out-edge
  /// count exceeds |E|/20 (Ligra's threshold).
  Bitmap EdgeMap(const Bitmap& frontier, const UpdateFn& update,
                 const CondFn& cond, ShmStats* stats);

  /// vertexMap: applies fn to every vertex in the frontier.
  void VertexMap(const Bitmap& frontier,
                 const std::function<void(VertexId)>& fn);

  const Graph& graph() const { return graph_; }
  ThreadPool& pool() { return pool_; }

  /// The per-worker vertex ranges (one per pool thread): exactly
  /// DistGraph::BuildRanges(graph, num_threads).
  const std::vector<VertexRange>& ranges() const { return ranges_; }

 private:
  const Graph& graph_;
  ThreadPool pool_;
  std::vector<VertexRange> ranges_;
};

/// Ligra-style application runs (Fig. 6 comparisons).
ShmStats ShmSssp(const Graph& graph, VertexId root, size_t num_threads,
                 std::vector<float>* dist);
ShmStats ShmCc(const Graph& graph, size_t num_threads,
               std::vector<uint32_t>* labels);
ShmStats ShmPr(const Graph& graph, uint32_t iterations, size_t num_threads,
               std::vector<float>* ranks);

}  // namespace slfe::shm

#endif  // SLFE_SHM_SHM_ENGINE_H_
