// Tests for the persistent guidance spill layer: on-disk round-trip
// fidelity, and — the part that matters for a durable artifact — that
// every corrupted, truncated, mislabeled, or stale file is rejected
// cleanly (an error Status, never a partial RRGuidance) and that the
// cache above it degrades such a rejection to a regeneration, not a
// failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "slfe/core/guidance_cache.h"
#include "slfe/core/guidance_store.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

std::string StoreDir(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Reads a whole file into bytes.
std::vector<unsigned char> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path,
               const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

struct StoreFixture {
  explicit StoreFixture(const std::string& name)
      : graph(Graph::FromEdges(GenerateChain(20))), store(StoreDir(name)) {
    EXPECT_TRUE(store.RemoveAll().ok());
    roots = {0};
    key = GuidanceCache::MakeKey(graph.fingerprint(), roots);
    guidance = RRGuidance::Generate(graph, roots);
  }

  Graph graph;
  GuidanceStore store;
  std::vector<VertexId> roots;
  GuidanceKey key;
  RRGuidance guidance;
};

TEST(GuidanceStoreTest, SaveLoadRoundTrip) {
  StoreFixture fx("slfe_gs_roundtrip");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  ASSERT_TRUE(fx.store.Contains(fx.key));

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RRGuidance& g = loaded.value();
  ASSERT_EQ(g.num_vertices(), fx.guidance.num_vertices());
  EXPECT_EQ(g.depth(), fx.guidance.depth());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(g.last_iter(v), fx.guidance.last_iter(v)) << "v=" << v;
    ASSERT_EQ(g.visited(v), fx.guidance.visited(v)) << "v=" << v;
  }
  GuidanceStoreStats stats = fx.store.stats();
  EXPECT_EQ(stats.saves, 1u);
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.load_errors, 0u);
}

TEST(GuidanceStoreTest, AbsentEntryIsNotFound) {
  StoreFixture fx("slfe_gs_absent");
  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fx.store.stats().load_misses, 1u);
}

TEST(GuidanceStoreTest, FlippedPayloadByteIsRejected) {
  StoreFixture fx("slfe_gs_corrupt");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 60u);
  bytes[60] ^= 0xff;  // one payload byte (header is 56 bytes)
  WriteFile(path, bytes);

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(fx.store.stats().load_errors, 1u);
}

TEST(GuidanceStoreTest, CorruptedHeaderFieldIsRejected) {
  // depth (offset 36) is validated by nothing but the checksum — a
  // flipped depth that loaded "valid" would silently change guided-run
  // iteration bounds (OocCcGuided loops while iter < depth).
  StoreFixture fx("slfe_gs_header");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  bytes[36] ^= 0x01;
  WriteFile(path, bytes);

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(GuidanceStoreTest, OversizedHeaderClaimIsRejectedBeforeAllocation) {
  // A self-consistent but absurd header (huge num_vertices with matching
  // payload_bytes) must fail the file-size check, not trigger a multi-GB
  // allocation.
  StoreFixture fx("slfe_gs_oversize");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  uint32_t huge_vertices = 0xFFFFFFFFu;
  uint64_t huge_payload = 5ull * huge_vertices;
  std::memcpy(bytes.data() + 32, &huge_vertices, sizeof(huge_vertices));
  std::memcpy(bytes.data() + 40, &huge_payload, sizeof(huge_payload));
  WriteFile(path, bytes);

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(GuidanceStoreTest, OrphanedTempFilesAreSweptOnConstruction) {
  StoreFixture fx("slfe_gs_orphan");
  std::string orphan = fx.store.dir() + "/gdead_rbeef_n01.rrg.tmp.1234.0";
  WriteFile(orphan, {0x00, 0x01, 0x02});
  GuidanceStore reopened(fx.store.dir());  // "next process" over the dir
  std::FILE* f = std::fopen(orphan.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "orphaned temp file should have been swept";
  if (f != nullptr) std::fclose(f);
}

TEST(GuidanceStoreTest, TruncatedFileIsRejected) {
  StoreFixture fx("slfe_gs_trunc");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);

  // Truncation anywhere — inside the header or inside the payload — must
  // be rejected, never read as a short-but-valid entry.
  for (size_t keep : {size_t{10}, size_t{56}, bytes.size() - 3}) {
    WriteFile(path, std::vector<unsigned char>(bytes.begin(),
                                               bytes.begin() + keep));
    Result<RRGuidance> loaded = fx.store.Load(fx.key);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(GuidanceStoreTest, TrailingGarbageIsRejected) {
  StoreFixture fx("slfe_gs_trailing");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  bytes.push_back(0x00);
  WriteFile(path, bytes);
  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(GuidanceStoreTest, WrongMagicIsRejected) {
  StoreFixture fx("slfe_gs_magic");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  bytes[0] ^= 0xff;
  WriteFile(path, bytes);
  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(GuidanceStoreTest, MislabeledKeyIsRejected) {
  // A file copied (or hash-collided) onto another key's path must fail the
  // embedded-key check rather than serve the wrong graph's guidance.
  StoreFixture fx("slfe_gs_mislabel");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  GuidanceKey other = GuidanceCache::MakeKey(fx.graph.fingerprint(), {1});
  WriteFile(fx.store.EntryPath(other), ReadFile(fx.store.EntryPath(fx.key)));

  Result<RRGuidance> loaded = fx.store.Load(other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(GuidanceStoreTest, RemoveGraphDropsOnlyThatGraphsEntries) {
  StoreFixture fx("slfe_gs_removegraph");
  Graph other = Graph::FromEdges(GenerateStar(6));
  GuidanceKey other_key = GuidanceCache::MakeKey(other.fingerprint(), {0});
  RRGuidance other_guidance = RRGuidance::Generate(other, {0});

  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  ASSERT_TRUE(fx.store.Save(other_key, other_guidance).ok());

  Result<size_t> removed = fx.store.RemoveGraph(fx.graph.fingerprint());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), 1u);
  EXPECT_FALSE(fx.store.Contains(fx.key));
  EXPECT_TRUE(fx.store.Contains(other_key));
}

TEST(GuidanceStoreTest, CacheDegradesCorruptionToRegeneration) {
  // The two-level contract seen from above: a bad file costs one resweep
  // (and a warning), never an error or wrong guidance, and the
  // write-through replaces the bad file.
  StoreFixture fx("slfe_gs_degrade");
  auto store = std::make_shared<GuidanceStore>(StoreDir("slfe_gs_degrade"));
  GuidanceCache cache(4);
  cache.AttachStore(store);

  cache.Insert(fx.key, std::make_shared<const RRGuidance>(fx.guidance));
  std::string path = store->EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  bytes[60] ^= 0xff;
  WriteFile(path, bytes);
  cache.Clear();  // force the next lookup to the (corrupted) store

  EXPECT_EQ(cache.Lookup(fx.key), nullptr);  // a miss, not a crash
  GuidanceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.store_errors, 1u);
  EXPECT_EQ(stats.misses, 1u);

  cache.Insert(fx.key, std::make_shared<const RRGuidance>(fx.guidance));
  cache.Clear();
  EXPECT_NE(cache.Lookup(fx.key), nullptr);  // rewritten file loads again
  EXPECT_EQ(cache.stats().store_hits, 1u);
}

TEST(GuidanceStoreTest, EmptyGuidanceRoundTrips) {
  // Zero-vertex payloads are legal (guidance for an empty graph) and must
  // survive the trip like any other entry.
  StoreFixture fx("slfe_gs_empty");
  RRGuidance empty;
  GuidanceKey key = GuidanceCache::MakeKey(0x1234, {});
  ASSERT_TRUE(fx.store.Save(key, empty).ok());
  Result<RRGuidance> loaded = fx.store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices(), 0u);
  EXPECT_EQ(loaded.value().depth(), 0u);
}

TEST(GuidanceStoreTest, ShallowGuidancePacksToThreeBytesPerVertex) {
  // Every last_iter in the chain-of-20 fixture fits a byte and the
  // guidance carries its levels plane, so Save must negotiate
  // kPackedU8Levels: 56-byte header + 3 bytes/vertex on disk.
  StoreFixture fx("slfe_gs_packed");
  ASSERT_TRUE(fx.guidance.has_levels());
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::vector<unsigned char> bytes = ReadFile(fx.store.EntryPath(fx.key));
  EXPECT_EQ(bytes.size(), 56u + 3u * fx.guidance.num_vertices());

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().has_levels());
  for (VertexId v = 0; v < fx.guidance.num_vertices(); ++v) {
    ASSERT_EQ(loaded.value().last_iter(v), fx.guidance.last_iter(v));
    ASSERT_EQ(loaded.value().level(v), fx.guidance.level(v)) << "v=" << v;
  }
}

TEST(GuidanceStoreTest, DeepGuidanceFallsBackToRawCodec) {
  // A 300-vertex chain drives last_iter past the packed range, so Save
  // must fall back to raw u32 with a raw levels plane (9 B/vertex)
  // without losing a single level.
  StoreFixture fx("slfe_gs_deep");
  Graph deep = Graph::FromEdges(GenerateChain(300));
  std::vector<VertexId> roots = {0};
  GuidanceKey key = GuidanceCache::MakeKey(deep.fingerprint(), roots);
  RRGuidance guidance = RRGuidance::Generate(deep, roots);
  ASSERT_GT(guidance.depth(), 255u) << "fixture must exceed the u8 range";
  ASSERT_TRUE(fx.store.Save(key, guidance).ok());
  std::vector<unsigned char> bytes = ReadFile(fx.store.EntryPath(key));
  EXPECT_EQ(bytes.size(), 56u + 9u * guidance.num_vertices());

  Result<RRGuidance> loaded = fx.store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().has_levels());
  for (VertexId v = 0; v < guidance.num_vertices(); ++v) {
    ASSERT_EQ(loaded.value().last_iter(v), guidance.last_iter(v)) << v;
    ASSERT_EQ(loaded.value().level(v), guidance.level(v)) << v;
  }
}

TEST(GuidanceStoreTest, LevelslessGuidanceKeepsTheHistoricalCodec) {
  // Guidance without a levels plane (reassembled from a pre-levels file)
  // must save with the original two-plane codec — old readers stay
  // compatible, and the round-trip keeps has_levels() == false so a
  // repair attempt on it falls back instead of inventing levels.
  StoreFixture fx("slfe_gs_nolevels");
  std::vector<VertexGuidance> records(fx.guidance.raw());
  RRGuidance levelless =
      RRGuidance::FromParts(std::move(records), fx.guidance.depth());
  ASSERT_FALSE(levelless.has_levels());
  ASSERT_TRUE(fx.store.Save(fx.key, levelless).ok());
  std::vector<unsigned char> bytes = ReadFile(fx.store.EntryPath(fx.key));
  EXPECT_EQ(bytes.size(), 56u + 2u * levelless.num_vertices());

  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().has_levels());
  for (VertexId v = 0; v < levelless.num_vertices(); ++v) {
    ASSERT_EQ(loaded.value().last_iter(v), levelless.last_iter(v)) << v;
    ASSERT_EQ(loaded.value().visited(v), levelless.visited(v)) << v;
  }
}

TEST(GuidanceStoreTest, UnreachableLevelsSurviveThePackedSentinel) {
  // The packed levels plane encodes kUnreachableLevel as 0xFF; a graph
  // with unreached vertices must round-trip the sentinel, not turn
  // unreachable into level 255.
  StoreFixture fx("slfe_gs_sentinel");
  EdgeList e(10);
  for (VertexId v = 0; v < 4; ++v) e.Add(v, v + 1);
  e.set_num_vertices(10);  // 5..9 unreachable from 0
  Graph g = Graph::FromEdges(e);
  GuidanceKey key = GuidanceCache::MakeKey(g.fingerprint(), {0});
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  ASSERT_TRUE(fx.store.Save(key, guidance).ok());
  Result<RRGuidance> loaded = fx.store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value().has_levels());
  for (VertexId v = 5; v < 10; ++v) {
    EXPECT_EQ(loaded.value().level(v), RRGuidance::kUnreachableLevel)
        << "v=" << v;
    EXPECT_FALSE(loaded.value().visited(v));
  }
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(loaded.value().level(v), guidance.level(v)) << "v=" << v;
  }
}

TEST(GuidanceStoreTest, UnknownCodecByteIsRejectedAsCodecError) {
  StoreFixture fx("slfe_gs_codec");
  ASSERT_TRUE(fx.store.Save(fx.key, fx.guidance).ok());
  std::string path = fx.store.EntryPath(fx.key);
  std::vector<unsigned char> bytes = ReadFile(path);
  bytes[6] = 9;  // version bits 16-23: a codec this build does not know
  WriteFile(path, bytes);

  // Rejected like corruption (no partial guidance), but ALSO counted in
  // the distinct codec_errors stat — the operator's signal to upgrade
  // readers rather than delete entries.
  Result<RRGuidance> loaded = fx.store.Load(fx.key);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("codec"), std::string::npos);
  GuidanceStoreStats stats = fx.store.stats();
  EXPECT_EQ(stats.codec_errors, 1u);
  EXPECT_EQ(stats.load_errors, 1u);
}

}  // namespace
}  // namespace slfe
