// Shared checks for the guidance generation tests: the serial sweep is the
// reference, and the partitioned sweep, the Generate dispatcher and the
// provider (at 1 and 4 generation threads) must reproduce it bit for bit.

#ifndef SLFE_TESTS_GUIDANCE_CHECK_H_
#define SLFE_TESTS_GUIDANCE_CHECK_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "slfe/common/thread_pool.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/rr_guidance.h"

namespace slfe {

inline void ExpectBitIdentical(const RRGuidance& want, const RRGuidance& got,
                               const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.depth(), got.depth()) << label;
  ASSERT_TRUE(want.has_levels()) << label;
  ASSERT_TRUE(got.has_levels()) << label;
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    ASSERT_EQ(want.last_iter(v), got.last_iter(v))
        << label << " last_iter mismatch at v=" << v;
    ASSERT_EQ(want.visited(v), got.visited(v))
        << label << " visited mismatch at v=" << v;
    ASSERT_EQ(want.level(v), got.level(v))
        << label << " level mismatch at v=" << v;
  }
}

/// Guidance a fresh provider hands out for `roots` when it generates with
/// `threads` workers (1 = serial sweep, more = partitioned sweep).
inline std::shared_ptr<const RRGuidance> ProviderGuidance(
    const Graph& g, const std::vector<VertexId>& roots, size_t threads) {
  GuidanceProviderOptions opt;
  opt.generation_threads = threads;
  GuidanceProvider provider(opt);
  GuidanceAcquisition a = provider.AcquireForRoots(g, roots);
  EXPECT_TRUE(a) << "threads=" << threads;
  EXPECT_EQ(provider.stats().generations, 1u) << "threads=" << threads;
  return a.guidance;
}

/// The differential core: serial == partitioned for every worker count
/// and both forced directions plus the adaptive default, then the same
/// through the Generate dispatcher and the provider.
inline void CheckAgainstSerial(const Graph& g,
                               const std::vector<VertexId>& roots,
                               const std::string& label) {
  RRGuidance serial = RRGuidance::GenerateSerial(g, roots);
  for (size_t workers : {2u, 3u, 4u, 5u}) {
    ThreadPool pool(workers);
    // Fraction 0 forces pull every iteration; a huge fraction forces
    // push — both must match the reference independently of the
    // heuristic.
    for (double fraction : {0.05, 0.0, 1e18}) {
      ExpectBitIdentical(
          serial, RRGuidance::GeneratePartitioned(g, roots, pool, fraction),
          label + " workers=" + std::to_string(workers) +
              " fraction=" + std::to_string(fraction));
    }
  }
  // Degenerate pool: one worker owns the whole vertex range.
  ThreadPool single(1);
  ExpectBitIdentical(serial,
                     RRGuidance::GeneratePartitioned(g, roots, single),
                     label + " partitioned single worker");
  ThreadPool pool(4);
  ExpectBitIdentical(serial, RRGuidance::Generate(g, roots, &pool),
                     label + " dispatch pool");
  ExpectBitIdentical(serial, RRGuidance::Generate(g, roots, nullptr),
                     label + " dispatch null pool");
  if (roots.empty()) return;  // the provider refuses empty root sets
  for (size_t threads : {1u, 4u}) {
    std::shared_ptr<const RRGuidance> got =
        ProviderGuidance(g, roots, threads);
    ASSERT_NE(got, nullptr) << label;
    ExpectBitIdentical(serial, *got,
                       label + " provider threads=" + std::to_string(threads));
  }
}

}  // namespace slfe

#endif  // SLFE_TESTS_GUIDANCE_CHECK_H_
