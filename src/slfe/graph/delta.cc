#include "slfe/graph/delta.h"

#include <algorithm>
#include <string>
#include <utility>

#include "slfe/graph/edge_list.h"

namespace slfe {

namespace {

/// (src, dst) folded into one 64-bit key (VertexId is u32). Keys order by
/// source first, so a sorted table holds each row's pairs together.
inline uint64_t PairKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// A batch's pairs as (key, payload), sorted, one entry per key: the one
/// with the smallest payload.
using PairTable = std::vector<std::pair<uint64_t, size_t>>;

void SortFirstPerKey(PairTable* t) {
  std::sort(t->begin(), t->end());
  t->erase(std::unique(t->begin(), t->end(),
                       [](const auto& a, const auto& b) {
                         return a.first == b.first;
                       }),
           t->end());
}

/// One past row v's entries, scanning from `it`.
PairTable::iterator RowEnd(PairTable::iterator it, PairTable::iterator last,
                           VertexId v) {
  while (it != last && (it->first >> 32) == v) ++it;
  return it;
}

/// The entry for `key` in the sorted [first, last), or nullptr.
std::pair<uint64_t, size_t>* Find(PairTable::iterator first,
                                  PairTable::iterator last, uint64_t key) {
  auto it = std::lower_bound(first, last, std::make_pair(key, size_t{0}));
  return it != last && it->first == key ? &*it : nullptr;
}

}  // namespace

Result<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta,
                         GraphDeltaStats* stats) {
  GraphDeltaStats local;
  const VertexId base_n = base.num_vertices();

  // Deleted pairs; the payload becomes 1 once a base copy is removed.
  PairTable erase;
  erase.reserve(delta.erase.size());
  for (const auto& [src, dst] : delta.erase) {
    if (src >= base_n || dst >= base_n) {
      return Status::InvalidArgument(
          "delta deletes edge (" + std::to_string(src) + ", " +
          std::to_string(dst) + ") outside the base graph (|V|=" +
          std::to_string(base_n) + ")");
    }
    erase.emplace_back(PairKey(src, dst), 0);
  }
  SortFirstPerKey(&erase);

  // Inserted pairs with their batch position. Only the first insertion of
  // a pair can land (first weight wins); it still does not land when the
  // surviving base carries the pair, which the row walk below decides.
  PairTable insert;
  insert.reserve(delta.insert.size());
  for (size_t i = 0; i < delta.insert.size(); ++i) {
    insert.emplace_back(PairKey(delta.insert[i].src, delta.insert[i].dst), i);
  }
  SortFirstPerKey(&insert);
  std::vector<char> lands(delta.insert.size(), 0);
  for (const auto& [key, pos] : insert) lands[pos] = 1;

  // The base's out-rows in order. This IS the deterministic-order
  // contract: FromEdges' counting sort is stable, so survivors keep their
  // relative row positions in the new CSR. Only a row the batch names is
  // probed, and it is read once: deleted pairs drop, and a surviving pair
  // the batch inserts does not land.
  EdgeList edges(base_n);
  edges.Reserve(base.num_edges() + delta.insert.size());
  const Csr& out = base.out();
  auto del = erase.begin();
  auto ins = insert.begin();
  for (VertexId v = 0; v < base_n; ++v) {
    const auto del_end = RowEnd(del, erase.end(), v);
    const auto ins_end = RowEnd(ins, insert.end(), v);
    const bool touched = del != del_end || ins != ins_end;
    for (EdgeId e = out.begin(v); e < out.end(v); ++e) {
      VertexId dst = out.neighbor(e);
      if (touched) {
        uint64_t key = PairKey(v, dst);
        if (auto* hit = Find(del, del_end, key)) {
          ++local.edges_deleted;
          hit->second = 1;
          continue;
        }
        if (auto* carried = Find(ins, ins_end, key)) lands[carried->second] = 0;
      }
      edges.Add(v, dst, out.weight(e));
    }
    del = del_end;
    ins = ins_end;
  }
  // Requested pairs that removed no copy never existed: counted, never an
  // error, so a client can replay a batch idempotently.
  local.missing_deletes = static_cast<uint64_t>(std::count_if(
      erase.begin(), erase.end(), [](const auto& d) { return d.second == 0; }));

  // Insertions in batch order. A source >= |V| has no base row, so only
  // the within-batch rule applied to it.
  for (size_t i = 0; i < delta.insert.size(); ++i) {
    if (lands[i] == 0) {
      ++local.duplicate_inserts;
      continue;
    }
    const Edge& e = delta.insert[i];
    edges.Add(e.src, e.dst, e.weight);  // grows the vertex bound as needed
    ++local.edges_inserted;
  }

  if (stats != nullptr) *stats = local;
  return Graph::FromEdges(edges);
}

}  // namespace slfe
