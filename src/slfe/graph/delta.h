#ifndef SLFE_GRAPH_DELTA_H_
#define SLFE_GRAPH_DELTA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"

namespace slfe {

/// One batched topology mutation: edges to remove and edges to add,
/// applied atomically to an immutable Graph to produce the next version.
/// Application semantics are deterministic (ApplyDelta's contract), so a
/// delta replayed on equal base graphs yields bit-identical CSR planes —
/// the property the version differential tests and the guidance repair
/// path both depend on.
struct GraphDelta {
  /// Edges appended after the deletions, in batch order. Endpoints may
  /// name vertices >= |V|; the vertex set grows to cover them. An
  /// insertion whose (src, dst) pair already exists — in the post-deletion
  /// graph or earlier in this batch — is skipped (first weight wins).
  std::vector<Edge> insert;
  /// (src, dst) pairs to remove; EVERY parallel copy of a pair goes.
  /// Deleting a pair the graph does not carry is counted, not an error
  /// (idempotent deletes let clients retry a batch). Endpoints must be
  /// within the base graph's vertex range.
  std::vector<std::pair<VertexId, VertexId>> erase;

  bool empty() const { return insert.empty() && erase.empty(); }
  /// Total edge touches — the repair-vs-regenerate heuristic's numerator.
  size_t size() const { return insert.size() + erase.size(); }
};

/// What ApplyDelta actually did (the requested counts minus the skips).
struct GraphDeltaStats {
  uint64_t edges_inserted = 0;
  uint64_t edges_deleted = 0;  ///< copies removed (parallel edges count each)
  uint64_t duplicate_inserts = 0;  ///< skipped: pair already present
  uint64_t missing_deletes = 0;    ///< requested pair was not in the graph
};

/// Applies `delta` to `base`, returning the next graph version. The base
/// is untouched (graphs are immutable); old-version views held by
/// in-flight jobs stay valid and unchanged.
///
/// Deterministic construction contract: the new edge list is the base's
/// out-CSR rows in order with deleted pairs filtered out, followed by the
/// surviving insertions in batch order; both CSR directions are rebuilt
/// from that list with the same stable counting sort Graph::FromEdges
/// uses. kInvalidArgument when a deletion names a vertex outside the base
/// graph (insertions may grow the vertex set, deletions cannot).
///
/// Cost: one sequential copy of the base rows, plus sorting the batch's
/// d deletions and k insertions once, plus reading each row the batch
/// names once (a binary search over that row's own pairs per edge). A
/// row the batch does not name is never probed; no edge is hashed. Then
/// Graph::FromEdges, as for any graph.
Result<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta,
                         GraphDeltaStats* stats = nullptr);

}  // namespace slfe

#endif  // SLFE_GRAPH_DELTA_H_
