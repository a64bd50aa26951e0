#include "slfe/shm/shm_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "slfe/common/direction.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_graph.h"

namespace slfe::shm {

ShmEngine::ShmEngine(const Graph& graph, size_t num_threads)
    : graph_(graph),
      pool_(num_threads),
      // One contiguous vertex range per worker, cut exactly where
      // DistGraph::Build would cut them — edge-balanced, so both EdgeMap
      // directions stay load-balanced.
      ranges_(DistGraph::BuildRanges(graph,
                                     static_cast<int>(pool_.num_threads()))) {}

Bitmap ShmEngine::EdgeMap(const Bitmap& frontier, const UpdateFn& update,
                          const CondFn& cond, ShmStats* stats) {
  VertexId n = graph_.num_vertices();
  Bitmap next(n);

  // Direction choice: count the frontier's out-edges.
  uint64_t frontier_edges = 0;
  frontier.ForEachSetBit(
      [&](size_t v) { frontier_edges += graph_.out_degree(static_cast<VertexId>(v)); });
  bool dense = ChooseDense(frontier_edges, graph_.num_edges());

  std::vector<uint64_t> comp(pool_.num_threads(), 0);
  std::vector<uint64_t> upd(pool_.num_threads(), 0);

  if (dense) {
    // Pull: for each destination still satisfying cond, scan in-edges of
    // frontier sources. Worker w owns exactly its DistGraph range.
    const Csr& in = graph_.in();
    pool_.ParallelRun([&](size_t w) {
      for (VertexId dst = ranges_[w].begin; dst < ranges_[w].end; ++dst) {
        if (cond && !cond(dst)) continue;
        for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
          VertexId src = in.neighbor(e);
          if (!frontier.TestBit(src)) continue;
          ++comp[w];
          if (update(src, dst, in.weight(e))) {
            next.SetBit(dst);
            ++upd[w];
          }
        }
      }
    });
  } else {
    // Push: scan out-edges of frontier vertices owned by this worker.
    const Csr& out = graph_.out();
    pool_.ParallelRun([&](size_t w) {
      for (VertexId src = ranges_[w].begin; src < ranges_[w].end; ++src) {
        if (!frontier.TestBit(src)) continue;
        for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
          VertexId dst = out.neighbor(e);
          if (cond && !cond(dst)) continue;
          ++comp[w];
          if (update(src, dst, out.weight(e))) {
            next.SetBit(dst);
            ++upd[w];
          }
        }
      }
    });
  }
  if (stats != nullptr) {
    ++stats->supersteps;
    for (uint64_t c : comp) stats->computations += c;
    for (uint64_t u : upd) stats->updates += u;
  }
  return next;
}

void ShmEngine::VertexMap(const Bitmap& frontier,
                          const std::function<void(VertexId)>& fn) {
  pool_.ParallelRun([&](size_t w) {
    for (VertexId v = ranges_[w].begin; v < ranges_[w].end; ++v) {
      if (frontier.TestBit(v)) fn(v);
    }
  });
}

ShmStats ShmSssp(const Graph& graph, VertexId root, size_t num_threads,
                 std::vector<float>* dist) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  ShmStats stats;
  Timer timer;
  ShmEngine engine(graph, num_threads);
  dist->assign(graph.num_vertices(), kInf);
  (*dist)[root] = 0.0f;
  std::vector<float>& d = *dist;

  Bitmap frontier(graph.num_vertices());
  frontier.SetBit(root);
  while (frontier.CountOnes() > 0) {
    frontier = engine.EdgeMap(
        frontier,
        [&d](VertexId src, VertexId dst, Weight w) {
          return AtomicMin(&d[dst], AtomicLoad(&d[src]) + w);
        },
        nullptr, &stats);
  }
  stats.seconds = timer.Seconds();
  return stats;
}

ShmStats ShmCc(const Graph& graph, size_t num_threads,
               std::vector<uint32_t>* labels) {
  ShmStats stats;
  Timer timer;
  ShmEngine engine(graph, num_threads);
  labels->resize(graph.num_vertices());
  std::iota(labels->begin(), labels->end(), 0u);
  std::vector<uint32_t>& l = *labels;

  Bitmap frontier(graph.num_vertices());
  frontier.Fill();
  while (frontier.CountOnes() > 0) {
    frontier = engine.EdgeMap(
        frontier,
        [&l](VertexId src, VertexId dst, Weight) {
          return AtomicMin(&l[dst], AtomicLoad(&l[src]));
        },
        nullptr, &stats);
  }
  stats.seconds = timer.Seconds();
  return stats;
}

ShmStats ShmPr(const Graph& graph, uint32_t iterations, size_t num_threads,
               std::vector<float>* ranks) {
  ShmStats stats;
  Timer timer;
  ShmEngine engine(graph, num_threads);
  VertexId n = graph.num_vertices();
  ranks->assign(n, 1.0f);
  std::vector<float>& r = *ranks;
  std::vector<float> contrib(n), acc(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = graph.out_degree(v);
    contrib[v] = od > 0 ? 1.0f / static_cast<float>(od) : 1.0f;
  }

  Bitmap all(n);
  all.Fill();
  for (uint32_t it = 0; it < iterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    engine.EdgeMap(
        all,
        [&](VertexId src, VertexId dst, Weight) {
          AtomicAdd(&acc[dst], contrib[src]);
          return false;  // frontier handled by `all`
        },
        nullptr, &stats);
    engine.VertexMap(all, [&](VertexId v) {
      r[v] = 0.15f + 0.85f * acc[v];
      VertexId od = graph.out_degree(v);
      contrib[v] = od > 0 ? r[v] / static_cast<float>(od) : r[v];
    });
  }
  stats.seconds = timer.Seconds();
  return stats;
}

}  // namespace slfe::shm
