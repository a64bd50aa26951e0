// Shared checks for the guidance generation tests: an independent
// multi-source BFS is the oracle, and the guidance from RRGuidance::Generate
// and from a provider must match it in every visited flag, last_iter,
// level and the depth.

#ifndef SLFE_TESTS_GUIDANCE_CHECK_H_
#define SLFE_TESTS_GUIDANCE_CHECK_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "slfe/core/guidance_provider.h"
#include "slfe/core/rr_guidance.h"

namespace slfe {

/// Multi-source BFS levels over out-edges; UINT32_MAX marks vertices no
/// root reaches. Shares no code with the guidance sweep.
inline std::vector<uint32_t> MultiSourceBfs(
    const Graph& g, const std::vector<VertexId>& roots) {
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  std::queue<VertexId> q;
  for (VertexId r : roots) {
    if (level[r] == UINT32_MAX) {
      level[r] = 0;
      q.push(r);
    }
  }
  while (!q.empty()) {
    VertexId v = q.front();
    q.pop();
    g.out().ForEachNeighbor(v, [&](VertexId u, Weight) {
      if (level[u] == UINT32_MAX) {
        level[u] = level[v] + 1;
        q.push(u);
      }
    });
  }
  return level;
}

/// Asserts `rrg` is the guidance of `g` for `roots`:
///  * visited(v) == v is reachable from the root set;
///  * level(v) == its BFS level (kUnreachableLevel when unreachable);
///  * last_iter(v) == 1 + the max BFS level over reachable in-neighbors,
///    0 when none is reachable;
///  * depth() == the largest last_iter, 0 when nothing was assigned.
inline void CheckGuidanceInvariant(const Graph& g,
                                   const std::vector<VertexId>& roots,
                                   const RRGuidance& rrg,
                                   const std::string& label) {
  std::vector<uint32_t> level = MultiSourceBfs(g, roots);
  ASSERT_EQ(rrg.num_vertices(), g.num_vertices()) << label;
  ASSERT_TRUE(rrg.has_levels()) << label;
  uint32_t want_depth = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool reachable = level[v] != UINT32_MAX;
    ASSERT_EQ(rrg.visited(v), reachable) << label << " visited at v=" << v;
    ASSERT_EQ(rrg.level(v),
              reachable ? level[v] : RRGuidance::kUnreachableLevel)
        << label << " level at v=" << v;
    uint32_t want = 0;
    g.in().ForEachNeighbor(v, [&](VertexId u, Weight) {
      if (level[u] != UINT32_MAX) want = std::max(want, level[u] + 1);
    });
    ASSERT_EQ(rrg.last_iter(v), want) << label << " last_iter at v=" << v;
    want_depth = std::max(want_depth, want);
  }
  ASSERT_EQ(rrg.depth(), want_depth) << label << " depth";
}

/// Guidance a fresh provider hands out for `roots`; exactly one sweep.
inline std::shared_ptr<const RRGuidance> ProviderGuidance(
    const Graph& g, const std::vector<VertexId>& roots) {
  GuidanceProvider provider;
  GuidanceAcquisition a = provider.AcquireForRoots(g, roots);
  EXPECT_TRUE(a);
  EXPECT_EQ(provider.stats().generations, 1u);
  return a.guidance;
}

/// Checks Generate, and a provider's guidance when the provider accepts
/// the root set, against the BFS oracle.
inline void CheckGuidance(const Graph& g, const std::vector<VertexId>& roots,
                          const std::string& label) {
  CheckGuidanceInvariant(g, roots, RRGuidance::Generate(g, roots),
                         label + " Generate");
  if (roots.empty()) return;  // the provider refuses empty root sets
  std::shared_ptr<const RRGuidance> got = ProviderGuidance(g, roots);
  ASSERT_NE(got, nullptr) << label;
  CheckGuidanceInvariant(g, roots, *got, label + " provider");
}

}  // namespace slfe

#endif  // SLFE_TESTS_GUIDANCE_CHECK_H_
