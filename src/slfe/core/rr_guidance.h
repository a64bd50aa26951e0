#ifndef SLFE_CORE_RR_GUIDANCE_H_
#define SLFE_CORE_RR_GUIDANCE_H_

#include <cstdint>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"

namespace slfe {

struct GraphDelta;

/// Redundancy-reduction guidance for one vertex (the paper's `struct inf`):
/// `last_iter` is the last propagation level at which the vertex can
/// receive an update from an active predecessor in an unweighted
/// label-propagation sweep; `visited` marks reachability from any root.
struct VertexGuidance {
  uint32_t last_iter = 0;
  bool visited = false;
};

/// What RRGuidance::Repair did — how tightly the delta's damage was
/// bounded. invalidated/recomputed stay near the touched region when the
/// delta is local; a delta that severs a hub pushes them toward |V| and
/// the provider's heuristic should have regenerated instead.
struct GuidanceRepairStats {
  uint64_t seeds = 0;        ///< invalidation seeds (deleted edges + roots)
  uint64_t invalidated = 0;  ///< vertices whose old level was discarded
  uint64_t recomputed = 0;   ///< vertices re-settled by the repair BFS
  uint64_t patched = 0;      ///< vertices whose last_iter was recomputed
  uint64_t level_changes = 0;  ///< vertices whose final level differs
  double repair_seconds = 0;
};

/// Result of the preprocessing stage (paper Algorithm 1): per-vertex
/// propagation guidance plus the cost of producing it (Fig. 8 overhead).
class RRGuidance {
 public:
  RRGuidance() = default;

  /// Sentinel level for vertices the sweep never reached.
  static constexpr uint32_t kUnreachableLevel = UINT32_MAX;

  /// Generates guidance for `graph` with the given root set. All edge
  /// weights are treated as 1 so the sweep captures pure topology; the
  /// `visited` flag limits each vertex to one distance computation, which
  /// is what makes the preprocessing "extremely low overhead" (§3.2).
  ///
  /// For single-source apps (SSSP/WP) pass the query root. For apps whose
  /// propagation starts everywhere (CC/PR/TR) the root set must still name
  /// actual propagation sources — use GenerateAllRoots, or the selectors in
  /// roots.h. An empty root set makes the sweep a no-op (depth 0, nothing
  /// visited, all-zero lastIter): legal, but it disables all redundancy
  /// reduction for that run, so Generate warns when it sees one.
  ///
  /// The sweep is serial and runs on the calling thread: the provider
  /// calls it from the job worker that missed, so misses on different
  /// graphs sweep in parallel on their own workers.
  static RRGuidance Generate(const Graph& graph,
                             const std::vector<VertexId>& roots);

  /// Convenience: sweep from the graph's natural propagation sources
  /// (zero-in-degree vertices, falling back to vertex 0 on cycle-bound
  /// graphs) — the entry point for all-vertices apps (CC/PR-style).
  static RRGuidance GenerateAllRoots(const Graph& graph);

  /// Reassembles a guidance object from previously generated parts — the
  /// deserialization entry point for GuidanceStore. `generation_seconds` is
  /// zero: a reloaded guidance paid no sweep cost (the load cost is
  /// accounted by the acquiring layer instead). The overload without a
  /// levels plane yields has_levels() == false (pre-levels store codecs):
  /// such a guidance serves runs normally but cannot seed a Repair.
  static RRGuidance FromParts(std::vector<VertexGuidance> guidance,
                              uint32_t depth);
  static RRGuidance FromParts(std::vector<VertexGuidance> guidance,
                              uint32_t depth, std::vector<uint32_t> levels);

  /// Incrementally repairs `old_guidance` (generated on the pre-delta
  /// graph for `old_roots`) into the guidance Generate(new_graph,
  /// new_roots) would produce — bit-identical in last_iter, visited,
  /// depth, AND levels (tests/guidance_repair_test.cc is the differential
  /// proof). Two-phase incremental BFS in the Ramalingam–Reps tradition:
  ///
  ///  1. Invalidation: a bounded cascade from the delta's touched
  ///   endpoints (deleted-edge destinations whose old level rode the
  ///   deleted edge, plus removed roots) discards exactly the old levels
  ///   that lost every supporting in-edge — vertices outside the cascade
  ///   keep their levels untouched, which is what bounds the repair to the
  ///   damaged region instead of O(|E|).
  ///  2. Recomputation: a level-bucketed BFS re-settles the invalidated
  ///   region from its unaffected fringe, inserted edges, and added roots;
  ///   last_iter is then re-derived only for vertices with a touched or
  ///   level-changed in-neighbor.
  ///
  /// Requirements: old_guidance.has_levels() (kFailedPrecondition
  /// otherwise — e.g. it was loaded from a pre-levels store file), and
  /// new_graph must be the delta applied to the graph old_guidance was
  /// generated on (unverifiable here; the provider's lineage map is the
  /// keeper of that invariant). When `max_affected_fraction` < 1 and the
  /// invalidation cascade exceeds that fraction of |V|, returns
  /// kFailedPrecondition so the caller falls back to a full regeneration
  /// that would be cheaper anyway.
  static Result<RRGuidance> Repair(const Graph& new_graph,
                                   const GraphDelta& delta,
                                   const RRGuidance& old_guidance,
                                   const std::vector<VertexId>& old_roots,
                                   const std::vector<VertexId>& new_roots,
                                   double max_affected_fraction = 1.0,
                                   GuidanceRepairStats* stats = nullptr);

  bool empty() const { return guidance_.empty(); }
  VertexId num_vertices() const {
    return static_cast<VertexId>(guidance_.size());
  }

  uint32_t last_iter(VertexId v) const { return guidance_[v].last_iter; }
  bool visited(VertexId v) const { return guidance_[v].visited; }

  /// BFS level (unweighted distance from the root set) per vertex, or
  /// kUnreachableLevel for vertices the sweep never reached. Levels are a
  /// derived-deterministic plane (BFS distance is unique), and they are
  /// what makes incremental Repair possible: last_iter(v) alone (= max over
  /// visited in-neighbors u of level(u)+1) cannot be patched without
  /// knowing the levels it was derived from. False only for guidance
  /// reloaded from a pre-levels store codec.
  bool has_levels() const { return levels_.size() == guidance_.size(); }
  uint32_t level(VertexId v) const { return levels_[v]; }
  const std::vector<uint32_t>& levels() const { return levels_; }

  /// Number of label-propagation iterations the sweep took.
  uint32_t depth() const { return depth_; }

  /// Wall time spent generating the guidance (Fig. 8 numerator).
  double generation_seconds() const { return generation_seconds_; }

  /// The guidance is reusable across applications on the same graph
  /// (paper §4.4: Facebook runs ~8.7 jobs per graph); GuidanceCache /
  /// GuidanceProvider realize that amortization, keyed by
  /// (graph fingerprint, root set).
  const std::vector<VertexGuidance>& raw() const { return guidance_; }

 private:
  std::vector<VertexGuidance> guidance_;
  /// Per-vertex BFS level; same size as guidance_ when present, empty for
  /// pre-levels deserializations (has_levels() distinguishes, including
  /// the |V| == 0 case where empty IS a complete plane).
  std::vector<uint32_t> levels_;
  uint32_t depth_ = 0;
  double generation_seconds_ = 0;
};

/// Stability horizon for "finish early" (Algorithm 5): how many
/// consecutive exactly-stable rounds vertex v needs before it may freeze.
/// Shared by every arithmetic consumer (ArithRunner, OocPrGuided) so the
/// rules stay in one place:
///  * unvisited vertices (the guidance roots did not reach them) never
///    freeze;
///  * the horizon is lastIter + 1, because guidance levels are
///    propagation distances while a source's own first value change only
///    lands at iteration 1 — influence can arrive one iteration after
///    lastIter (on a chain, a vertex stable since the start would
///    otherwise freeze exactly one iteration before the update wave
///    reaches it);
///  * never below `min_rounds`, guarding small-lastIter vertices on
///    cycle-bound graphs from freezing on a coincidental stable streak.
inline uint64_t StabilityHorizon(const RRGuidance* guidance, VertexId v,
                                 uint64_t min_rounds) {
  if (guidance == nullptr || !guidance->visited(v)) return UINT64_MAX;
  uint64_t li = static_cast<uint64_t>(guidance->last_iter(v)) + 1;
  return li < min_rounds ? min_rounds : li;
}

}  // namespace slfe

#endif  // SLFE_CORE_RR_GUIDANCE_H_
