#ifndef SLFE_GRAPH_ARENA_H_
#define SLFE_GRAPH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/partitioner.h"
#include "slfe/graph/types.h"

namespace slfe {

/// How the adjacency (neighbor) planes are stored in an arena file.
/// Offsets, weights, and ranges are always raw — they are either tiny or
/// incompressible — so the codec byte only governs the two neighbor planes.
enum class ArenaCodec : uint8_t {
  /// Packed little-endian VertexId planes, served zero-copy straight from
  /// the mapping. Biggest files, cheapest open, and the only codec whose
  /// resident cost is pure page cache (shared across processes).
  kRaw = 0,
  /// Zigzag delta varints per CSR row (neighbors within a row are in
  /// insertion order, not sorted, hence the signed deltas). Decoded into
  /// arena-owned heap vectors at Open, so serving stays zero-branch;
  /// trades open-time decode and private heap for a smaller file.
  kDeltaVarint = 1,
};

/// Section indices into ArenaHeader::sections (fixed order; the payload
/// checksum folds section bytes in this order).
enum ArenaSectionId : uint32_t {
  kArenaOutOffsets = 0,
  kArenaOutNeighbors = 1,
  kArenaOutWeights = 2,
  kArenaInOffsets = 3,
  kArenaInNeighbors = 4,
  kArenaInWeights = 5,
  kArenaRanges = 6,
  kArenaSectionCount = 7,
};

/// One section's placement in the file. Offsets are 64-byte aligned so the
/// typed planes can be read in place from the page-aligned mapping.
struct ArenaSection {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

/// Fixed-width on-disk arena header (version 1, little-endian, `*.sga`).
/// Exact-width fields in padding-free order; public (unlike the guidance
/// StoreHeader) because the corruption tests patch headers and recompute
/// checksums through it.
///
///   magic              u32   0x53'4C'47'41 ("SLGA")
///   version            u32   low 16 bits: format version (1);
///                            bits 16-23: ArenaCodec byte; bits 24-31: 0
///   graph_fingerprint  u64   Graph::fingerprint() of the stored graph
///   num_edges          u64
///   num_vertices       u32
///   num_nodes          u32   partition ranges persisted (>= 1)
///   traits             u32   bit 0 symmetric, bit 1 weighted
///   reserved           u32   must be 0
///   sections           {u64 offset, u64 bytes} x 7 (ArenaSectionId order)
///   payload_checksum   u64   FNV-1a over every section's bytes in order
///                            (alignment padding excluded)
///   header_checksum    u64   FNV-1a over all preceding header bytes
///                            (must stay the last field)
struct ArenaHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t graph_fingerprint = 0;
  uint64_t num_edges = 0;
  uint32_t num_vertices = 0;
  uint32_t num_nodes = 0;
  uint32_t traits = 0;
  uint32_t reserved = 0;
  ArenaSection sections[kArenaSectionCount];
  uint64_t payload_checksum = 0;
  uint64_t header_checksum = 0;  // must stay last (see ArenaHeaderChecksum)
};
static_assert(sizeof(ArenaHeader) == 168, "ArenaHeader must pack to 168 bytes");

/// Recomputes the header self-checksum (everything before the
/// header_checksum field). Exposed for the corruption tests, which patch
/// header fields and must re-seal the header to reach deeper validation.
uint64_t ArenaHeaderChecksum(const ArenaHeader& header);

struct ArenaBuildOptions {
  /// Cluster shape whose ownership ranges are persisted (the same
  /// edge-balanced chunking DistGraph::BuildRanges computes).
  int num_nodes = 1;
  ArenaCodec codec = ArenaCodec::kRaw;
  /// Graph traits to carry through the restart (api::GraphTraits mirrors;
  /// kept as plain bools so graph/ stays independent of api/).
  bool symmetric = false;
  bool weighted = false;
};

struct ArenaOpenOptions {
  /// Verify the payload checksum at open (one sequential pass over the
  /// file). Off trusts the header checksum + structural validation only —
  /// the demand-paging mode for graphs larger than RAM, where a full
  /// verification pass would fault every page in.
  bool verify_payload = true;
};

/// An immutable on-disk graph: both CSR directions, edge weights, the
/// fingerprint, and the partition ranges, in one mmap'd file. The write
/// side uses the GuidanceStore discipline (versioned header, FNV-1a
/// checksums, unique temp + atomic rename); the read side is open + map +
/// validate, so a daemon restart costs page-table setup instead of a text
/// parse and re-fingerprint. The mapping is MAP_SHARED over
/// PROT_READ, so N server processes serving one arena file share one
/// physical copy in the page cache, and a graph larger than RAM
/// demand-pages instead of OOMing.
///
/// Lifecycle: GraphArena::Build writes the file; Open returns a
/// shared_ptr-held arena; graph() hands out view Graphs whose CSR planes
/// point into the mapping (or the decoded heap planes for kDeltaVarint)
/// and which co-own the arena, so the mapping lives exactly as long as the
/// last graph copy. munmap happens in the destructor.
class GraphArena : public std::enable_shared_from_this<GraphArena> {
 public:
  static constexpr uint32_t kMagic = 0x53'4C'47'41;  // "SLGA"
  static constexpr uint32_t kFormatVersion = 1;

  /// Serializes `graph` (+ its BuildRanges partition for
  /// `options.num_nodes`) to `path` via a uniquely named temp sibling and
  /// an atomic rename — a crash mid-build can only leave a temp file,
  /// never a torn arena. Forces the fingerprint computation (the cost the
  /// open side then skips forever).
  static Status Build(const Graph& graph, const std::string& path,
                      const ArenaBuildOptions& options = {});

  /// Maps `path` read-only and validates: magic, format version, codec,
  /// header checksum, section table geometry against the real file size
  /// (BEFORE any size-derived allocation), offset-plane monotonicity,
  /// range-partition coverage, and — per options — the payload checksum.
  /// kNotFound when the file does not exist; kCorruption with a distinct
  /// "unsupported arena codec" message for a codec byte this build does
  /// not know (a newer writer's file, not a damaged one).
  static Result<std::shared_ptr<GraphArena>> Open(
      const std::string& path, const ArenaOpenOptions& options = {});

  ~GraphArena();
  GraphArena(const GraphArena&) = delete;
  GraphArena& operator=(const GraphArena&) = delete;

  /// A Graph whose CSR planes view this arena's memory and which keeps the
  /// arena (and with it the mapping) alive via its backing handle. Cheap:
  /// no allocation beyond the shared_ptr control blocks.
  Graph graph() const;

  /// The persisted ownership ranges (exactly DistGraph::BuildRanges output
  /// for num_nodes() at build time).
  const std::vector<VertexRange>& ranges() const { return ranges_; }

  uint64_t fingerprint() const { return header_.graph_fingerprint; }
  VertexId num_vertices() const { return header_.num_vertices; }
  EdgeId num_edges() const { return header_.num_edges; }
  int num_nodes() const { return static_cast<int>(header_.num_nodes); }
  bool symmetric() const { return (header_.traits & 1u) != 0; }
  bool weighted() const { return (header_.traits & 2u) != 0; }
  ArenaCodec codec() const {
    return static_cast<ArenaCodec>((header_.version >> 16) & 0xFFu);
  }
  const std::string& path() const { return path_; }

  /// Size of the mapping (the whole file).
  uint64_t file_bytes() const { return map_bytes_; }
  /// Private heap held by decoded planes (0 for kRaw — everything served
  /// from the shared page cache).
  uint64_t heap_bytes() const;

 private:
  GraphArena() = default;

  std::string path_;
  void* map_ = nullptr;
  size_t map_bytes_ = 0;
  ArenaHeader header_;
  /// Plane pointers into the mapping (kRaw) or into the decoded vectors
  /// below (kDeltaVarint neighbor planes).
  const EdgeId* out_offsets_ = nullptr;
  const VertexId* out_neighbors_ = nullptr;
  const Weight* out_weights_ = nullptr;
  const EdgeId* in_offsets_ = nullptr;
  const VertexId* in_neighbors_ = nullptr;
  const Weight* in_weights_ = nullptr;
  std::vector<VertexId> decoded_out_;
  std::vector<VertexId> decoded_in_;
  std::vector<VertexRange> ranges_;
};

}  // namespace slfe

#endif  // SLFE_GRAPH_ARENA_H_
