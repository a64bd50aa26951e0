// Tests for the transport-independent line protocol: the strict vertex-id
// grammar (fractional ids reject instead of silently truncating, oversized
// roots reject instead of wrapping through the VertexId cast), the
// always-terminated reject lines (EOF-without-newline input), and the
// served= tag precedence in result formatting — a protocol contract every
// TCP connection inherits.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "slfe/service/line_protocol.h"

namespace slfe::service {
namespace {

using Kind = ParsedCommand::Kind;

// ---------------------------------------------------------- ParseVertexId

TEST(ParseVertexIdTest, AcceptsPlainDecimals) {
  EXPECT_EQ(ParseVertexId("0").value(), 0u);
  EXPECT_EQ(ParseVertexId("7").value(), 7u);
  EXPECT_EQ(ParseVertexId("4294967295").value(),
            std::numeric_limits<VertexId>::max());
}

TEST(ParseVertexIdTest, RejectsFractionalIds) {
  // Regression: strtoul("1.5") silently truncates to 1 — a `del 1.5 2`
  // deleted edge (1,2) instead of rejecting. Pure digits only.
  EXPECT_FALSE(ParseVertexId("1.5").ok());
  EXPECT_FALSE(ParseVertexId(".5").ok());
  EXPECT_FALSE(ParseVertexId("1.").ok());
  EXPECT_FALSE(ParseVertexId("1e3").ok());
}

TEST(ParseVertexIdTest, RejectsSignsWhitespaceAndEmpty) {
  EXPECT_FALSE(ParseVertexId("").ok());
  EXPECT_FALSE(ParseVertexId("-1").ok());   // strtoul would wrap to 2^32-1
  EXPECT_FALSE(ParseVertexId("+1").ok());
  EXPECT_FALSE(ParseVertexId(" 1").ok());
  EXPECT_FALSE(ParseVertexId("0x10").ok());
}

TEST(ParseVertexIdTest, RejectsOutOfRangeInsteadOfWrapping) {
  // Regression: an unchecked strtoul result was cast to VertexId, so
  // 4294967296 wrapped to 0 and 4294967297 to 1 — bogus but in-range ids.
  EXPECT_FALSE(ParseVertexId("4294967296").ok());
  EXPECT_FALSE(ParseVertexId("4294967297").ok());
  // Past even unsigned long long: strtoull reports ERANGE.
  EXPECT_FALSE(ParseVertexId("99999999999999999999999").ok());
}

// -------------------------------------------------------- ParseCommandLine

TEST(ParseCommandLineTest, ParsesSubmitFields) {
  ParsedCommand cmd =
      ParseCommandLine("submit acme sssp PK 7 gas norr\n");
  ASSERT_EQ(cmd.kind, Kind::kSubmit);
  EXPECT_EQ(cmd.submit.tenant, "acme");
  EXPECT_EQ(cmd.submit.app, "sssp");
  EXPECT_EQ(cmd.submit.graph, "PK");
  EXPECT_EQ(cmd.submit.root, 7u);
  EXPECT_EQ(cmd.submit.engine, "gas");
  EXPECT_FALSE(cmd.submit.enable_rr);
}

TEST(ParseCommandLineTest, SubmitRootOutOfRangeRejects) {
  // 2^32 would wrap to root=0 via the narrowing cast; must reject.
  ParsedCommand cmd = ParseCommandLine("submit acme sssp PK 4294967296\n");
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_NE(cmd.error.find("out of range"), std::string::npos);
  EXPECT_EQ(cmd.error.back(), '\n');

  // ERANGE-range value (overflows unsigned long long too).
  cmd = ParseCommandLine("submit acme sssp PK 99999999999999999999999\n");
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_NE(cmd.error.find("out of range"), std::string::npos);
}

TEST(ParseCommandLineTest, SubmitMaxRootParses) {
  ParsedCommand cmd = ParseCommandLine("submit acme sssp PK 4294967295\n");
  ASSERT_EQ(cmd.kind, Kind::kSubmit);
  EXPECT_EQ(cmd.submit.root, std::numeric_limits<VertexId>::max());
}

TEST(ParseCommandLineTest, ParsesMutateInsAndDel) {
  ParsedCommand cmd =
      ParseCommandLine("mutate acme PK ins 1 2 0.5 del 3 4\n");
  ASSERT_EQ(cmd.kind, Kind::kMutate);
  EXPECT_EQ(cmd.mutate.tenant, "acme");
  EXPECT_EQ(cmd.mutate.graph, "PK");
  ASSERT_EQ(cmd.mutate.delta.insert.size(), 1u);
  EXPECT_EQ(cmd.mutate.delta.insert[0].src, 1u);
  EXPECT_EQ(cmd.mutate.delta.insert[0].dst, 2u);
  EXPECT_FLOAT_EQ(cmd.mutate.delta.insert[0].weight, 0.5f);
  ASSERT_EQ(cmd.mutate.delta.erase.size(), 1u);
  EXPECT_EQ(cmd.mutate.delta.erase[0].first, 3u);
  EXPECT_EQ(cmd.mutate.delta.erase[0].second, 4u);
}

TEST(ParseCommandLineTest, MutateFractionalIdRejectsNotTruncates) {
  // Regression: number() accepted '.' so `del 1.5 2` ran strtoul("1.5")
  // and deleted edge (1,2). The fractional id must produce a reject line.
  ParsedCommand cmd = ParseCommandLine("mutate acme PK del 1.5 2\n");
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_NE(cmd.error.find("1.5"), std::string::npos);
  EXPECT_EQ(cmd.error.back(), '\n');

  cmd = ParseCommandLine("mutate acme PK ins 1 2.5 1.0\n");
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_NE(cmd.error.find("2.5"), std::string::npos);
}

TEST(ParseCommandLineTest, MutateWeightStaysFractionalButStrict) {
  // Weights are the one place '.' belongs; partially-consumed or
  // overflowing tokens still reject.
  ParsedCommand ok = ParseCommandLine("mutate acme PK ins 1 2 1.25\n");
  ASSERT_EQ(ok.kind, Kind::kMutate);
  EXPECT_FLOAT_EQ(ok.mutate.delta.insert[0].weight, 1.25f);

  EXPECT_EQ(ParseCommandLine("mutate acme PK ins 1 2 1.5x\n").kind,
            Kind::kError);
  EXPECT_EQ(ParseCommandLine("mutate acme PK ins 1 2 1e9999\n").kind,
            Kind::kError);
}

TEST(ParseCommandLineTest, UnrecognizedLineRejectIsAlwaysTerminated) {
  // Regression: the reject echoed the raw line, so input that ended at
  // EOF without a newline produced an unterminated reject that glued onto
  // the next output line.
  ParsedCommand cmd = ParseCommandLine("frobnicate the server");  // no '\n'
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_EQ(cmd.error, "reject: unrecognized line: frobnicate the server\n");

  // Input WITH a terminator must not pick up a second one (or echo '\r').
  cmd = ParseCommandLine("frobnicate the server\r\n");
  ASSERT_EQ(cmd.kind, Kind::kError);
  EXPECT_EQ(cmd.error, "reject: unrecognized line: frobnicate the server\n");
}

TEST(ParseCommandLineTest, CommentsAndBlanksAreEmpty) {
  EXPECT_EQ(ParseCommandLine("").kind, Kind::kEmpty);
  EXPECT_EQ(ParseCommandLine("   \n").kind, Kind::kEmpty);
  EXPECT_EQ(ParseCommandLine("# a comment\n").kind, Kind::kEmpty);
}

TEST(ParseCommandLineTest, AuthAndShutdownParse) {
  ParsedCommand cmd = ParseCommandLine("auth acme sekrit\n");
  ASSERT_EQ(cmd.kind, Kind::kAuth);
  EXPECT_EQ(cmd.auth_tenant, "acme");
  EXPECT_EQ(cmd.auth_token, "sekrit");

  cmd = ParseCommandLine("auth acme\n");
  ASSERT_EQ(cmd.kind, Kind::kAuth);
  EXPECT_EQ(cmd.auth_token, "");

  EXPECT_EQ(ParseCommandLine("shutdown\n").kind, Kind::kShutdown);
  EXPECT_EQ(ParseCommandLine("shutdown now\n").kind, Kind::kError);
}

TEST(ParseCommandLineTest, HotParsesOptionalCount) {
  ParsedCommand cmd = ParseCommandLine("hot\n");
  ASSERT_EQ(cmd.kind, Kind::kHot);
  EXPECT_EQ(cmd.hot_k, 10u);  // the documented default

  cmd = ParseCommandLine("hot 3\n");
  ASSERT_EQ(cmd.kind, Kind::kHot);
  EXPECT_EQ(cmd.hot_k, 3u);

  // Strictness matches the rest of the grammar: non-numeric, zero,
  // absurd, and extra-token forms all reject rather than guess.
  EXPECT_EQ(ParseCommandLine("hot three\n").kind, Kind::kError);
  EXPECT_EQ(ParseCommandLine("hot -1\n").kind, Kind::kError);
  EXPECT_EQ(ParseCommandLine("hot 0\n").kind, Kind::kError);
  EXPECT_EQ(ParseCommandLine("hot 99999\n").kind, Kind::kError);
  EXPECT_EQ(ParseCommandLine("hot 3 4\n").kind, Kind::kError);
}

// ------------------------------------------------------------ FormatResult

JobResult BaseResult() {
  JobResult r;
  r.job_id = 9;
  r.tenant = "acme";
  r.app = "sssp";
  r.engine = "dist";
  r.graph = "PK";
  return r;
}

std::string ServedTag(const JobResult& r) {
  std::string line = FormatResult(r);
  size_t pos = line.find("served=");
  EXPECT_NE(pos, std::string::npos) << line;
  size_t end = line.find(' ', pos);
  return line.substr(pos + 7, end - pos - 7);
}

TEST(FormatResultTest, ServedTagPrecedenceIsPinned) {
  // Protocol contract: cache > coalesced > repaired > generate, "none"
  // when no guidance was acquired. One case per tag.
  JobResult r = BaseResult();
  EXPECT_EQ(ServedTag(r), "none");  // not acquired

  r.guidance_acquired = true;
  EXPECT_EQ(ServedTag(r), "generate");  // acquired, no cheaper path

  r.guidance_repaired = true;
  EXPECT_EQ(ServedTag(r), "repaired");

  r.guidance_coalesced = true;  // coalesced outranks repaired
  EXPECT_EQ(ServedTag(r), "coalesced");

  r.guidance_cache_hit = true;  // cache outranks everything
  EXPECT_EQ(ServedTag(r), "cache");
}

TEST(FormatResultTest, ReqTagAppendsWithoutBreakingTermination) {
  JobResult r = BaseResult();
  std::string plain = FormatResult(r);
  EXPECT_EQ(plain.back(), '\n');
  std::string tagged = FormatResult(r, 42);
  EXPECT_EQ(tagged.back(), '\n');
  EXPECT_NE(tagged.find(" req=42\n"), std::string::npos);
  // The req tag is appended, not spliced: everything before it matches.
  EXPECT_EQ(tagged.substr(0, plain.size() - 1), plain.substr(0, plain.size() - 1));
}

TEST(FormatResultTest, FailedStatusIsReported) {
  JobResult r = BaseResult();
  r.status = Status::NotFound("graph 'nope' not registered");
  std::string line = FormatResult(r);
  EXPECT_NE(line.find("status="), std::string::npos);
  EXPECT_NE(line.find("nope"), std::string::npos);
  EXPECT_EQ(line.find("status=ok"), std::string::npos);
}

TEST(FormatStatsTest, SketchLineAndTailRowRenderOnlyWhenPresent) {
  JobServiceStats stats;
  stats.sketch_observations = 17;
  stats.tenants_tracked = 2;
  std::string block = FormatStats(stats);
  EXPECT_NE(block.find("sketch: observations=17 tenants_tracked=2 "
                       "tenants_sketched=0\n"),
            std::string::npos)
      << block;
  EXPECT_NE(block.find("admission_skips=0 admission_promotions=0"),
            std::string::npos);
  // No spilled tenants: no tail row cluttering the table.
  EXPECT_EQ(block.find("(sketched"), std::string::npos);

  stats.tenants_sketched = 3;
  stats.sketched_tail.jobs_submitted = 9;
  stats.sketched_tail.jobs_completed = 8;
  block = FormatStats(stats);
  EXPECT_NE(block.find("tenant (sketched 3): jobs=8/9"), std::string::npos)
      << block;
}

}  // namespace
}  // namespace slfe::service
