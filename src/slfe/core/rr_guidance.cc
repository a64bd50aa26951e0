#include "slfe/core/rr_guidance.h"

#include <vector>

#include "slfe/common/logging.h"
#include "slfe/common/timer.h"
#include "slfe/core/roots.h"

namespace slfe {

RRGuidance RRGuidance::Generate(const Graph& graph,
                                const std::vector<VertexId>& roots) {
  if (roots.empty() && graph.num_vertices() > 0) {
    SLFE_LOG(Warning)
        << "RRGuidance::Generate called with an empty root set: the sweep "
           "is a no-op and disables redundancy reduction. All-vertices apps "
           "should use GenerateAllRoots or the selectors in roots.h.";
  }
  Timer timer;
  RRGuidance rrg;
  VertexId n = graph.num_vertices();
  rrg.guidance_.assign(n, VertexGuidance{});
  rrg.levels_.assign(n, kUnreachableLevel);

  // Algorithm 1, frontier form. `frontier` holds vertices first visited in
  // the previous iteration (the "active" set); every out-edge of a frontier
  // vertex bumps the destination's last_iter to the current level, and the
  // first visit fixes the destination's unweighted distance and activates
  // it. Each edge is traversed exactly once, so the sweep is O(|E|) — the
  // "negligible overhead" property the paper claims.
  std::vector<VertexId> frontier;
  frontier.reserve(roots.size());
  for (VertexId r : roots) {
    SLFE_CHECK_LT(r, n);
    if (!rrg.guidance_[r].visited) {
      rrg.guidance_[r].visited = true;
      rrg.levels_[r] = 0;
      frontier.push_back(r);
    }
  }

  const Csr& out = graph.out();
  std::vector<VertexId> next;
  uint32_t iter = 0;
  uint32_t deepest = 0;  // last level at which any lastIter was assigned
  while (!frontier.empty()) {
    ++iter;
    next.clear();
    for (VertexId src : frontier) {
      for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
        VertexId dst = out.neighbor(e);
        // Iterations increase monotonically, so assignment implements the
        // paper's `if lastIter < Iter then lastIter = Iter`.
        rrg.guidance_[dst].last_iter = iter;
        deepest = iter;
        if (!rrg.guidance_[dst].visited) {
          rrg.guidance_[dst].visited = true;
          // First visit fixes the BFS level, which is unique per vertex.
          rrg.levels_[dst] = iter;
          next.push_back(dst);
        }
      }
    }
    frontier.swap(next);
  }
  rrg.depth_ = deepest;
  rrg.generation_seconds_ = timer.Seconds();
  return rrg;
}

RRGuidance RRGuidance::FromParts(std::vector<VertexGuidance> guidance,
                                 uint32_t depth) {
  RRGuidance rrg;
  rrg.guidance_ = std::move(guidance);
  rrg.depth_ = depth;
  // No levels plane (pre-levels store codec): the guidance serves runs
  // but cannot seed a Repair. Keep levels_ truly empty so has_levels()
  // stays false for |V| > 0.
  if (!rrg.guidance_.empty()) rrg.levels_.clear();
  return rrg;
}

RRGuidance RRGuidance::FromParts(std::vector<VertexGuidance> guidance,
                                 uint32_t depth,
                                 std::vector<uint32_t> levels) {
  RRGuidance rrg;
  rrg.guidance_ = std::move(guidance);
  rrg.levels_ = std::move(levels);
  rrg.depth_ = depth;
  SLFE_CHECK_EQ(rrg.levels_.size(), rrg.guidance_.size());
  return rrg;
}

RRGuidance RRGuidance::GenerateAllRoots(const Graph& graph) {
  // Natural propagation sources (zero-in-degree vertices, with the
  // cycle-bound fallback) — the same selector the provider layer uses.
  return Generate(graph, SelectSourceRoots(graph));
}

}  // namespace slfe
