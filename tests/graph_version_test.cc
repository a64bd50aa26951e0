// Versioned mutable graphs, part 1: ApplyDelta must be a deterministic
// pure function — on seeded random graphs across shapes, applying a
// random insert/delete batch must produce exactly the graph a naive
// rebuild-from-edge-list reference produces (both CSR directions,
// offsets, neighbors, AND weights), with the skip/miss accounting to
// match. Part 2: Session::MutateGraph's version chain — monotone
// versions, per-version fingerprint uniqueness, old-version views that
// stay valid and unchanged after the name moves on, no-op deltas that
// leave the version untouched, and concurrent mutations serializing
// without losing a delta. Part 3: the session's per-version partition
// memo — one DistGraph build per graph object, however many dist runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <random>

#include "slfe/api/session.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/graph.h"

namespace slfe {
namespace {

enum class Shape { kChain, kStar, kRmat, kDisconnected };

struct HarnessParam {
  Shape shape;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<HarnessParam>& info) {
  const char* shape = info.param.shape == Shape::kChain   ? "Chain"
                      : info.param.shape == Shape::kStar  ? "Star"
                      : info.param.shape == Shape::kRmat  ? "Rmat"
                                                          : "Disconnected";
  return std::string(shape) + "_seed" + std::to_string(info.param.seed);
}

Graph MakeShapeGraph(const HarnessParam& p) {
  switch (p.shape) {
    case Shape::kChain:
      return Graph::FromEdges(
          GenerateChain(static_cast<VertexId>(48 + p.seed * 13 % 71)));
    case Shape::kStar:
      return Graph::FromEdges(
          GenerateStar(static_cast<VertexId>(24 + p.seed * 7 % 53)));
    case Shape::kRmat: {
      RmatOptions opt;
      opt.num_vertices = 128;
      opt.num_edges = 700;
      opt.weighted = true;
      opt.seed = p.seed;
      return Graph::FromEdges(GenerateRmat(opt));
    }
    case Shape::kDisconnected: {
      EdgeList er = GenerateErdosRenyi(64, 200, p.seed);
      EdgeList e(110);
      for (const Edge& edge : er.edges()) e.Add(edge.src, edge.dst);
      for (VertexId v = 64; v < 100; ++v) e.Add(v, v + 1);
      e.set_num_vertices(110);  // 101..109 isolated
      return Graph::FromEdges(e);
    }
  }
  return Graph();
}

uint64_t PairKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// The base graph's edges in out-CSR row order (ApplyDelta's documented
/// base ordering).
std::vector<Edge> OutEdgesInOrder(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.out().begin(v); e < g.out().end(v); ++e) {
      edges.push_back(Edge{v, g.out().neighbor(e), g.out().weight(e)});
    }
  }
  return edges;
}

/// The naive reference: replay the documented delta semantics on a plain
/// edge vector, then let Graph::FromEdges rebuild everything from scratch.
Graph ReferenceApply(const Graph& base, const GraphDelta& delta) {
  std::unordered_set<uint64_t> erase_set;
  for (const auto& [src, dst] : delta.erase) erase_set.insert(PairKey(src, dst));
  EdgeList out(base.num_vertices());
  std::unordered_set<uint64_t> present;
  for (const Edge& e : OutEdgesInOrder(base)) {
    if (erase_set.count(PairKey(e.src, e.dst)) > 0) continue;
    out.Add(e.src, e.dst, e.weight);
    present.insert(PairKey(e.src, e.dst));
  }
  for (const Edge& e : delta.insert) {
    if (!present.insert(PairKey(e.src, e.dst)).second) continue;
    out.Add(e.src, e.dst, e.weight);
  }
  return Graph::FromEdges(out);
}

void ExpectSameCsr(const Csr& want, const Csr& got, const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.num_edges(), got.num_edges()) << label;
  for (VertexId v = 0; v <= want.num_vertices(); ++v) {
    ASSERT_EQ(want.offsets()[v], got.offsets()[v])
        << label << " offset mismatch at v=" << v;
  }
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(want.neighbor(e), got.neighbor(e))
        << label << " neighbor mismatch at e=" << e;
    ASSERT_EQ(want.weight(e), got.weight(e))
        << label << " weight mismatch at e=" << e;
  }
}

void ExpectSameGraph(const Graph& want, const Graph& got,
                     const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.num_edges(), got.num_edges()) << label;
  ExpectSameCsr(want.out(), got.out(), label + " out");
  ExpectSameCsr(want.in(), got.in(), label + " in");
  EXPECT_EQ(want.fingerprint(), got.fingerprint()) << label;
}

/// A random batch: deletions drawn from the live edge set (plus a few
/// misses), insertions drawn uniformly (so some duplicate live edges and
/// some occasionally grow the vertex set).
GraphDelta RandomDelta(const Graph& g, std::mt19937_64& rng) {
  GraphDelta delta;
  std::uniform_int_distribution<VertexId> pick_v(0, g.num_vertices() - 1);
  std::uniform_int_distribution<int> count(1, 6);
  int deletes = count(rng);
  for (int i = 0; i < deletes; ++i) {
    VertexId u = pick_v(rng);
    if (g.out_degree(u) > 0) {
      std::uniform_int_distribution<EdgeId> pick_e(g.out().begin(u),
                                                   g.out().end(u) - 1);
      delta.erase.emplace_back(u, g.out().neighbor(pick_e(rng)));
    } else {
      delta.erase.emplace_back(u, pick_v(rng));  // likely a miss
    }
  }
  int inserts = count(rng);
  for (int i = 0; i < inserts; ++i) {
    VertexId src = pick_v(rng);
    // Every ~8th insertion targets one past the current range: growth.
    VertexId dst = rng() % 8 == 0 ? g.num_vertices() : pick_v(rng);
    delta.insert.push_back(
        Edge{src, dst, static_cast<Weight>(1 + rng() % 5)});
  }
  return delta;
}

class GraphDeltaTest : public ::testing::TestWithParam<HarnessParam> {};

// The deterministic-construction contract, differentially: 8 chained
// random batches per (shape, seed), each applied version compared
// plane-by-plane against a from-scratch rebuild, and fingerprints unique
// across the whole version chain.
TEST_P(GraphDeltaTest, MatchesRebuiltReferenceAcrossChainedBatches) {
  Graph cur = MakeShapeGraph(GetParam());
  std::mt19937_64 rng(GetParam().seed * 0x9e3779b97f4a7c15ull + 3);
  for (int step = 0; step < 8; ++step) {
    GraphDelta delta = RandomDelta(cur, rng);
    GraphDeltaStats stats;
    Result<Graph> next = ApplyDelta(cur, delta, &stats);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    std::string label =
        ParamName(::testing::TestParamInfo<HarnessParam>(GetParam(), 0)) +
        " step " + std::to_string(step);
    ExpectSameGraph(ReferenceApply(cur, delta), next.value(), label);
    EXPECT_EQ(stats.edges_inserted + stats.duplicate_inserts,
              delta.insert.size())
        << label;
    EXPECT_EQ(next.value().num_edges(),
              cur.num_edges() + stats.edges_inserted - stats.edges_deleted)
        << label;
    if (stats.edges_inserted + stats.edges_deleted > 0) {
      // An effective delta changes the topology versus its immediate
      // predecessor, so the version-keying fingerprint must move too.
      // (Only adjacent versions are comparable: a later delta may revert
      // to an earlier version's exact topology, and equal topology means
      // equal fingerprint by design.)
      EXPECT_NE(next.value().fingerprint(), cur.fingerprint()) << label;
    }
    cur = std::move(next).value();
  }
}

TEST(GraphDeltaEdgeCases, StatsCountSkipsAndMisses) {
  Graph chain = Graph::FromEdges(GenerateChain(4));  // 0->1->2->3
  GraphDelta delta;
  delta.insert.push_back(Edge{0, 1, 2.0f});  // duplicate of a live edge
  delta.insert.push_back(Edge{1, 3, 1.0f});  // genuinely new
  delta.insert.push_back(Edge{1, 3, 9.0f});  // duplicate within the batch
  delta.erase.emplace_back(2, 3);            // live
  delta.erase.emplace_back(0, 3);            // absent
  GraphDeltaStats stats;
  Result<Graph> next = ApplyDelta(chain, delta, &stats);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(stats.edges_inserted, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 2u);
  EXPECT_EQ(stats.edges_deleted, 1u);
  EXPECT_EQ(stats.missing_deletes, 1u);
  EXPECT_EQ(next.value().num_edges(), 3u);  // 3 - 1 + 1
  // First weight wins: the surviving (1,3) carries the batch's first.
  bool found = false;
  next.value().out().ForEachNeighbor(1, [&](VertexId dst, Weight w) {
    if (dst == 3) {
      EXPECT_EQ(w, 1.0f);
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST(GraphDeltaEdgeCases, DeletingEveryParallelCopy) {
  EdgeList e(3);
  e.Add(0, 1);
  e.Add(0, 1);  // parallel copy
  e.Add(1, 2);
  Graph g = Graph::FromEdges(e);
  GraphDelta delta;
  delta.erase.emplace_back(0, 1);
  GraphDeltaStats stats;
  Result<Graph> next = ApplyDelta(g, delta, &stats);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(stats.edges_deleted, 2u);  // both copies go
  EXPECT_EQ(next.value().num_edges(), 1u);
}

TEST(GraphDeltaEdgeCases, DeleteOutsideBaseRangeRejected) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  GraphDelta delta;
  delta.erase.emplace_back(0, 99);
  EXPECT_EQ(ApplyDelta(chain, delta).status().code(),
            StatusCode::kInvalidArgument);
  GraphDelta src_out;
  src_out.erase.emplace_back(99, 0);
  EXPECT_EQ(ApplyDelta(chain, src_out).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphDeltaEdgeCases, InsertionsGrowTheVertexSet) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  GraphDelta delta;
  delta.insert.push_back(Edge{2, 10, 1.0f});
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().num_vertices(), 11u);
  EXPECT_EQ(next.value().num_edges(), 4u);
  EXPECT_EQ(next.value().out_degree(2), 2u);
  EXPECT_EQ(next.value().in_degree(10), 1u);
  EXPECT_EQ(next.value().out_degree(10), 0u);
}

/// Applies `delta` and checks the result plane by plane against
/// ReferenceApply; returns the stats for the case's own expectations.
GraphDeltaStats ExpectMatchesReference(const Graph& base,
                                       const GraphDelta& delta,
                                       const std::string& label,
                                       Graph* applied = nullptr) {
  GraphDeltaStats stats;
  Result<Graph> next = ApplyDelta(base, delta, &stats);
  EXPECT_TRUE(next.ok()) << label << ": " << next.status().ToString();
  if (!next.ok()) return stats;
  ExpectSameGraph(ReferenceApply(base, delta), next.value(), label);
  if (applied != nullptr) *applied = std::move(next).value();
  return stats;
}

/// The (dst, weight) pairs of v's out-row, in row order.
std::vector<std::pair<VertexId, Weight>> OutRow(const Graph& g, VertexId v) {
  std::vector<std::pair<VertexId, Weight>> row;
  g.out().ForEachNeighbor(v, [&](VertexId dst, Weight w) {
    row.emplace_back(dst, w);
  });
  return row;
}

TEST(GraphDeltaEdgeCases, DeleteThenReinsertLandsOnceAfterSurvivors) {
  EdgeList e(4);
  e.Add(0, 1, 1.0f);
  e.Add(0, 2, 2.0f);
  e.Add(0, 2, 2.5f);  // parallel copy: the delete removes both
  e.Add(0, 3, 3.0f);
  Graph g = Graph::FromEdges(e);
  GraphDelta delta;
  delta.erase.emplace_back(0, 2);
  delta.insert.push_back(Edge{0, 2, 7.0f});
  Graph next;
  GraphDeltaStats stats =
      ExpectMatchesReference(g, delta, "delete+reinsert", &next);
  EXPECT_EQ(stats.edges_deleted, 2u);
  EXPECT_EQ(stats.edges_inserted, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 0u);
  EXPECT_EQ(stats.missing_deletes, 0u);
  using Row = std::vector<std::pair<VertexId, Weight>>;
  EXPECT_EQ(OutRow(next, 0), (Row{{1, 1.0f}, {3, 3.0f}, {2, 7.0f}}));
}

TEST(GraphDeltaEdgeCases, SamePairTwiceInBatchKeepsFirstWeight) {
  Graph chain = Graph::FromEdges(GenerateChain(4));  // 0->1->2->3
  GraphDelta delta;
  delta.insert.push_back(Edge{3, 0, 4.0f});
  delta.insert.push_back(Edge{2, 0, 1.0f});
  delta.insert.push_back(Edge{3, 0, 9.0f});  // same pair, later: skipped
  Graph next;
  GraphDeltaStats stats =
      ExpectMatchesReference(chain, delta, "twice in batch", &next);
  EXPECT_EQ(stats.edges_inserted, 2u);
  EXPECT_EQ(stats.duplicate_inserts, 1u);
  using Row = std::vector<std::pair<VertexId, Weight>>;
  EXPECT_EQ(OutRow(next, 3), (Row{{0, 4.0f}}));
}

TEST(GraphDeltaEdgeCases, InsertOfParallelCopiedPairIsSkipped) {
  EdgeList e(3);
  e.Add(0, 1, 1.0f);
  e.Add(1, 2, 2.0f);
  e.Add(1, 2, 3.0f);  // parallel copies of (1,2)
  e.Add(1, 0, 1.0f);
  Graph g = Graph::FromEdges(e);
  GraphDelta delta;
  delta.insert.push_back(Edge{1, 2, 5.0f});
  delta.erase.emplace_back(0, 1);  // another row's delete changes nothing
  Graph next;
  GraphDeltaStats stats =
      ExpectMatchesReference(g, delta, "parallel copies", &next);
  EXPECT_EQ(stats.edges_inserted, 0u);
  EXPECT_EQ(stats.duplicate_inserts, 1u);
  EXPECT_EQ(stats.edges_deleted, 1u);
  using Row = std::vector<std::pair<VertexId, Weight>>;
  EXPECT_EQ(OutRow(next, 1), (Row{{2, 2.0f}, {2, 3.0f}, {0, 1.0f}}));
}

TEST(GraphDeltaEdgeCases, GrowthSourceTwiceInBatchLandsOnce) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  GraphDelta delta;
  delta.insert.push_back(Edge{6, 1, 2.0f});  // source past |V|: no base row
  delta.insert.push_back(Edge{6, 7, 1.0f});
  delta.insert.push_back(Edge{6, 1, 5.0f});  // skipped within the batch
  Graph next;
  GraphDeltaStats stats =
      ExpectMatchesReference(chain, delta, "growth source", &next);
  EXPECT_EQ(stats.edges_inserted, 2u);
  EXPECT_EQ(stats.duplicate_inserts, 1u);
  EXPECT_EQ(next.num_vertices(), 8u);
  using Row = std::vector<std::pair<VertexId, Weight>>;
  EXPECT_EQ(OutRow(next, 6), (Row{{1, 2.0f}, {7, 1.0f}}));
}

TEST(GraphDeltaEdgeCases, HubWithManyInsertsSomeCarried) {
  // Hub 0 carries every even vertex in 2..200 (and 10 twice). The batch
  // inserts 150 pairs from the hub in a shuffled order: evens (carried
  // unless deleted), odds (new), repeats, and destinations past |V|.
  constexpr VertexId kN = 201;
  EdgeList e(kN);
  for (VertexId v = 2; v < kN; v += 2) e.Add(0, v, 1.0f);
  e.Add(0, 10, 2.0f);
  for (VertexId v = 1; v < kN; ++v) e.Add(v, (v * 7) % kN, 1.0f);
  Graph g = Graph::FromEdges(e);

  GraphDelta delta;
  std::mt19937_64 rng(19);
  for (int i = 0; i < 150; ++i) {
    VertexId dst = static_cast<VertexId>(1 + rng() % (kN + 20));
    delta.insert.push_back(Edge{0, dst, static_cast<Weight>(2 + i)});
  }
  delta.insert.push_back(Edge{0, 12, 3.0f});  // carried: skipped
  delta.insert.push_back(Edge{0, 4, 3.0f});   // carried, but deleted below
  delta.insert.push_back(Edge{0, 10, 3.0f});  // both copies deleted below
  delta.erase.emplace_back(0, 4);
  delta.erase.emplace_back(0, 10);
  delta.erase.emplace_back(0, 10);  // repeated delete: one pair
  delta.erase.emplace_back(0, 3);   // odd: a miss
  ASSERT_GT(delta.insert.size(), 64u);

  Graph next;
  GraphDeltaStats stats = ExpectMatchesReference(g, delta, "hub", &next);
  size_t carried = 0;
  std::set<VertexId> seen;
  for (const Edge& ins : delta.insert) {
    if (!seen.insert(ins.dst).second) continue;
    if (ins.dst < kN && ins.dst % 2 == 0 && ins.dst != 4 && ins.dst != 10) {
      ++carried;
    }
  }
  ASSERT_GT(carried, 0u);
  EXPECT_EQ(stats.edges_inserted, seen.size() - carried);
  EXPECT_EQ(stats.duplicate_inserts, delta.insert.size() - seen.size() +
                                         carried);
  EXPECT_EQ(stats.edges_deleted, 3u);  // (0,4) once, (0,10) twice
  EXPECT_EQ(stats.missing_deletes, 1u);
}

// ------------------------------------------------- Session version chain

TEST(SessionVersionTest, MutationPublishesNewVersionOldViewStaysIntact) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(30))).ok());
  std::shared_ptr<const Graph> old_view = session.GetGraph("g");
  ASSERT_NE(old_view, nullptr);
  const uint64_t old_fp = old_view->fingerprint();
  const EdgeId old_edges = old_view->num_edges();

  GraphDelta delta;
  delta.erase.emplace_back(10, 11);
  auto result = session.MutateGraph("g", delta);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().changed);
  EXPECT_EQ(result.value().version, 2u);
  EXPECT_EQ(result.value().old_fingerprint, old_fp);
  EXPECT_NE(result.value().new_fingerprint, old_fp);
  EXPECT_EQ(result.value().num_edges, old_edges - 1);
  EXPECT_EQ(session.graphs_mutated(), 1u);

  // The name serves the new version; the held old view is untouched.
  std::shared_ptr<const Graph> new_view = session.GetGraph("g");
  ASSERT_NE(new_view, old_view);
  EXPECT_EQ(new_view->fingerprint(), result.value().new_fingerprint);
  EXPECT_EQ(old_view->num_edges(), old_edges);
  EXPECT_EQ(old_view->fingerprint(), old_fp);
  EXPECT_EQ(old_view->out_degree(10), 1u);  // the deleted edge still there
  EXPECT_EQ(new_view->out_degree(10), 0u);

  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 1u);
  EXPECT_EQ(versions[0].fingerprint, old_fp);
  EXPECT_TRUE(versions[0].alive);  // our old_view still pins it
  EXPECT_FALSE(versions[0].current);
  EXPECT_EQ(versions[1].version, 2u);
  EXPECT_TRUE(versions[1].current);
  EXPECT_TRUE(versions[1].alive);

  // Drop the last reference to v1 (the provider's repair lineage also
  // holds it; a lineage-free session would show alive == false).
  old_view.reset();
  versions = session.GraphVersions("g");
  // v1 may stay alive through the provider's lineage entry — but v2, the
  // served version, is always alive and current.
  EXPECT_TRUE(versions.back().alive);
  EXPECT_TRUE(versions.back().current);
}

TEST(SessionVersionTest, NoOpDeltaKeepsVersionObjectAndFingerprint) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(8))).ok());
  std::shared_ptr<const Graph> before = session.GetGraph("g");

  GraphDelta noop;
  noop.insert.push_back(Edge{0, 1, 1.0f});  // already present
  noop.erase.emplace_back(5, 2);            // not present
  auto result = session.MutateGraph("g", noop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().changed);
  EXPECT_EQ(result.value().version, 1u);
  EXPECT_EQ(result.value().new_fingerprint, result.value().old_fingerprint);
  EXPECT_EQ(session.GetGraph("g"), before);  // same object, caches intact
  EXPECT_EQ(session.graphs_mutated(), 0u);
  EXPECT_EQ(session.GraphVersions("g").size(), 1u);
}

TEST(SessionVersionTest, FingerprintsUniqueAcrossTheVersionChain) {
  api::Session session;
  RmatOptions opt;
  opt.num_vertices = 64;
  opt.num_edges = 300;
  opt.seed = 17;
  ASSERT_TRUE(
      session.AddGraph("g", Graph::FromEdges(GenerateRmat(opt))).ok());
  std::mt19937_64 rng(99);
  std::vector<uint64_t> chain_fps = {session.GetGraph("g")->fingerprint()};
  // Keep every version alive so the history rows stay inspectable.
  std::vector<std::shared_ptr<const Graph>> pins = {session.GetGraph("g")};
  uint64_t expected_version = 1;
  for (int step = 0; step < 6; ++step) {
    GraphDelta delta = RandomDelta(*session.GetGraph("g"), rng);
    auto result = session.MutateGraph("g", delta);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!result.value().changed) continue;
    ++expected_version;
    EXPECT_EQ(result.value().version, expected_version);
    chain_fps.push_back(result.value().new_fingerprint);
    pins.push_back(session.GetGraph("g"));
  }
  std::set<uint64_t> unique(chain_fps.begin(), chain_fps.end());
  EXPECT_EQ(unique.size(), chain_fps.size())
      << "every version must key caches/store/lineage distinctly";

  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), chain_fps.size());
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i].version, i + 1);
    EXPECT_EQ(versions[i].fingerprint, chain_fps[i]);
    EXPECT_TRUE(versions[i].alive);  // pinned above
    EXPECT_EQ(versions[i].current, i + 1 == versions.size());
  }
}

TEST(SessionVersionTest, UnknownNamesAndNeverMutatedGraphs) {
  api::Session session;
  EXPECT_EQ(session.MutateGraph("nope", GraphDelta{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(session.GraphVersions("nope").empty());
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(5))).ok());
  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), 1u);  // synthesized row: version 1, current
  EXPECT_EQ(versions[0].version, 1u);
  EXPECT_TRUE(versions[0].alive);
  EXPECT_TRUE(versions[0].current);
}

TEST(SessionVersionTest, InvalidDeltaRejectedWithoutVersionBump) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(5))).ok());
  GraphDelta bad;
  bad.erase.emplace_back(0, 50);
  EXPECT_EQ(session.MutateGraph("g", bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.GraphVersions("g").back().version, 1u);
  EXPECT_EQ(session.graphs_mutated(), 0u);
}

TEST(SessionVersionTest, ConcurrentMutationsSerializeWithoutLosingDeltas) {
  // 6 threads x 4 mutations, each inserting one distinct edge between
  // vertices private to the thread: the optimistic-retry loop must
  // serialize them so the final version carries ALL 24 edges and the
  // version counter advanced exactly 24 times.
  constexpr int kThreads = 6;
  constexpr int kPerThread = 4;
  api::Session session;
  EdgeList base(kThreads * kPerThread * 2 + 2);
  base.Add(0, 1);
  Graph g = Graph::FromEdges(base);
  const EdgeId base_edges = g.num_edges();
  ASSERT_TRUE(session.AddGraph("g", std::move(g)).ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        VertexId v = static_cast<VertexId>(2 + (t * kPerThread + i) * 2);
        GraphDelta delta;
        delta.insert.push_back(Edge{v, v + 1, 1.0f});
        if (!session.MutateGraph("g", delta).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  std::shared_ptr<const Graph> final_graph = session.GetGraph("g");
  EXPECT_EQ(final_graph->num_edges(),
            base_edges + static_cast<EdgeId>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      VertexId v = static_cast<VertexId>(2 + (t * kPerThread + i) * 2);
      EXPECT_EQ(final_graph->out_degree(v), 1u) << "lost delta at v=" << v;
    }
  }
  EXPECT_EQ(session.graphs_mutated(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(session.GraphVersions("g").back().version,
            static_cast<uint64_t>(1 + kThreads * kPerThread));
}

// ------------------------------------------ Session partition memo

// A weighted R-MAT graph with a reachable root, served on two ranks so
// the partition is non-trivial.
Graph PartitionTestGraph() {
  RmatOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 2000;
  opt.weighted = true;
  opt.seed = 5;
  return Graph::FromEdges(GenerateRmat(opt));
}

api::SessionOptions TwoRanks() {
  api::SessionOptions options;
  options.num_nodes = 2;
  return options;
}

api::AppRequest Request(const std::string& app) {
  api::AppRequest request;
  request.app = app;
  request.graph = "g";
  return request;
}

size_t PartitionSpans(const obs::JobTrace& trace) {
  size_t spans = 0;
  for (const obs::TraceSpan& span : trace.Snapshot()) {
    if (span.name == "partition") ++spans;
  }
  return spans;
}

TEST(SessionPartitionTest, RepeatedRunsOnOneGraphBuildOnce) {
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  EXPECT_EQ(session.partitions_built(), 0u);

  obs::JobTrace first_trace;
  std::shared_ptr<const Graph> graph = session.GetGraph("g");
  api::AppOutcome first =
      session.RunOn(Request("sssp"), graph, &first_trace);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(session.partitions_built(), 1u);
  EXPECT_EQ(PartitionSpans(first_trace), 1u);

  obs::JobTrace second_trace;
  api::AppOutcome second =
      session.RunOn(Request("sssp"), graph, &second_trace);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(PartitionSpans(second_trace), 0u);  // served from the memo
  EXPECT_EQ(second.values, first.values);
  for (const char* app : {"bfs", "pr", "tc", "sssp"}) {
    ASSERT_TRUE(session.Run(Request(app)).status.ok()) << app;
  }
  EXPECT_EQ(session.partitions_built(), 1u);

  // Engines without a simulated cluster never partition.
  api::AppRequest shm = Request("sssp");
  shm.engine = "shm";
  ASSERT_TRUE(session.Run(shm).status.ok());
  EXPECT_EQ(session.partitions_built(), 1u);
}

TEST(SessionPartitionTest, ClosureAndEachMutatedVersionBuildTheirOwn) {
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  ASSERT_TRUE(session.Run(Request("sssp")).status.ok());
  EXPECT_EQ(session.partitions_built(), 1u);
  // cc runs on the lazily built symmetrized closure: a second graph.
  ASSERT_TRUE(session.Run(Request("cc")).status.ok());
  ASSERT_TRUE(session.Run(Request("cc")).status.ok());
  EXPECT_EQ(session.partitions_built(), 2u);

  for (uint64_t step = 1; step <= 2; ++step) {
    GraphDelta delta;
    // Edges into fresh vertices: never duplicates, so never a no-op.
    delta.insert.push_back(Edge{0, static_cast<VertexId>(255 + step), 3.0f});
    auto mutated = session.MutateGraph("g", delta);
    ASSERT_TRUE(mutated.ok() && mutated.value().changed);
    ASSERT_TRUE(session.Run(Request("sssp")).status.ok());
    ASSERT_TRUE(session.Run(Request("sssp")).status.ok());
    ASSERT_TRUE(session.Run(Request("cc")).status.ok());
    // The new version and its new closure: two builds per mutation.
    EXPECT_EQ(session.partitions_built(), 2u + 2u * step);
  }
}

TEST(SessionPartitionTest, PinnedSupersededVersionMatchesFreshSession) {
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  api::AppRequest sssp = Request("sssp");
  Result<std::shared_ptr<const Graph>> pinned = session.ResolveGraph(sssp);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(session.RunOn(sssp, pinned.value()).status.ok());

  // A new vertex, so every per-vertex answer on v2 differs from v1's.
  GraphDelta delta;
  delta.insert.push_back(Edge{0, 256, 0.5f});
  ASSERT_TRUE(session.MutateGraph("g", delta).ok());
  api::AppOutcome current = session.Run(sssp);
  ASSERT_TRUE(current.status.ok());

  // Interleave runs on both versions: each must use its own partition.
  for (const char* app : {"sssp", "pr"}) {
    api::Session fresh(TwoRanks());
    ASSERT_TRUE(fresh.AddGraph("g", PartitionTestGraph()).ok());
    api::AppOutcome want = fresh.Run(Request(app));
    api::AppOutcome got = session.RunOn(Request(app), pinned.value());
    ASSERT_TRUE(want.status.ok() && got.status.ok()) << app;
    EXPECT_EQ(got.values, want.values) << app;
    EXPECT_EQ(got.summary, want.summary) << app;
    ASSERT_TRUE(session.Run(Request(app)).status.ok()) << app;
  }
  EXPECT_EQ(current.values.size(), pinned.value()->num_vertices() + 1);
  EXPECT_EQ(session.partitions_built(), 2u);
}

TEST(SessionPartitionTest, SameCutMutationRecountsMirrors) {
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  std::shared_ptr<const Graph> v1 = session.GetGraph("g");
  ASSERT_TRUE(session.Run(Request("sssp")).status.ok());

  // Move the one out-edge of degree-1 vertices to the other rank's range:
  // degrees (so the cut points) stay put, so v2's ranges equal v1's,
  // while each moved vertex's mirror count flips between 0 and 1. A run
  // on v2 that reused v1's partition would charge the wrong messages.
  DistGraph cut = DistGraph::Build(*v1, 2);
  GraphDelta delta;
  for (VertexId v = 0; v < v1->num_vertices(); ++v) {
    if (v1->out_degree(v) != 1) continue;
    VertexId old_dst = v1->out().neighbor(v1->out().begin(v));
    const VertexRange& other = cut.range(1 - cut.OwnerOf(old_dst));
    VertexId new_dst = other.begin + v % other.size();
    if (new_dst == v) continue;
    delta.erase.emplace_back(v, old_dst);
    delta.insert.push_back(Edge{v, new_dst, 2.0f});
  }
  ASSERT_GE(delta.insert.size(), 4u);
  Result<Graph> expected = ApplyDelta(*v1, delta);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(session.MutateGraph("g", delta).value().changed);

  api::Session fresh(TwoRanks());
  ASSERT_TRUE(fresh.AddGraph("g", std::move(expected).value()).ok());
  // pr's counters are deterministic at any shape; messages are charged
  // from the partition's mirror counts.
  api::AppOutcome want = fresh.Run(Request("pr"));
  api::AppOutcome got = session.Run(Request("pr"));
  ASSERT_TRUE(want.status.ok() && got.status.ok());
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.info.stats.messages, want.info.stats.messages);
  EXPECT_EQ(got.info.stats.bytes, want.info.stats.bytes);
  EXPECT_EQ(got.info.stats.computations, want.info.stats.computations);
  EXPECT_EQ(got.info.stats.iterations, want.info.stats.iterations);
  EXPECT_EQ(session.partitions_built(), 2u);
}

TEST(SessionPartitionTest, MemoDoesNotExtendSupersededLifetime) {
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  std::weak_ptr<const Graph> v1;
  {
    std::shared_ptr<const Graph> pinned = session.GetGraph("g");
    v1 = pinned;
    GraphDelta delta;
    delta.insert.push_back(Edge{1, 300, 1.0f});  // 300 is a new vertex
    ASSERT_TRUE(session.MutateGraph("g", delta).value().changed);
    ASSERT_TRUE(session.RunOn(Request("sssp"), pinned).status.ok());
    EXPECT_EQ(session.partitions_built(), 1u);
  }
  // The provider's repair lineage still holds v1; push it out of the
  // bounded lineage FIFO with more mutations than it keeps.
  for (VertexId v = 2; v < 40; ++v) {
    GraphDelta delta;
    delta.insert.push_back(Edge{v, 300, 1.0f});
    ASSERT_TRUE(session.MutateGraph("g", delta).value().changed);
  }
  EXPECT_TRUE(v1.expired()) << "the partition memo kept v1 alive";
  EXPECT_FALSE(session.GraphVersions("g").front().alive);
  // A run on the current version still builds (and prunes v1's entry).
  ASSERT_TRUE(session.Run(Request("sssp")).status.ok());
  EXPECT_EQ(session.partitions_built(), 2u);
}

TEST(SessionPartitionTest, ConcurrentFirstRunsShareOneBuild) {
  constexpr int kThreads = 4;
  api::Session session(TwoRanks());
  ASSERT_TRUE(session.AddGraph("g", PartitionTestGraph()).ok());
  std::vector<api::AppOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { outcomes[t] = session.Run(Request("sssp")); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(session.partitions_built(), 1u);
  for (const api::AppOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.values, outcomes[0].values);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphDeltaTest,
    ::testing::Values(HarnessParam{Shape::kChain, 1},
                      HarnessParam{Shape::kChain, 2},
                      HarnessParam{Shape::kChain, 3},
                      HarnessParam{Shape::kStar, 1},
                      HarnessParam{Shape::kStar, 2},
                      HarnessParam{Shape::kRmat, 1},
                      HarnessParam{Shape::kRmat, 2},
                      HarnessParam{Shape::kRmat, 3},
                      HarnessParam{Shape::kDisconnected, 1},
                      HarnessParam{Shape::kDisconnected, 2},
                      HarnessParam{Shape::kDisconnected, 3}),
    ParamName);

}  // namespace
}  // namespace slfe
