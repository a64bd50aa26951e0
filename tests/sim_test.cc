// Unit tests for the simulated cluster runtime: message passing,
// barriers, collectives, traffic accounting, and the cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "slfe/sim/cluster.h"
#include "slfe/sim/comm.h"

namespace slfe::sim {
namespace {

TEST(CostModelTest, LatencyAndBandwidthTerms) {
  CostModel model;
  model.latency_per_message = 1e-6;
  model.bytes_per_second = 1e9;
  // 1000 messages of 1e6 bytes total: 1ms latency + 1ms transfer.
  EXPECT_DOUBLE_EQ(model.Cost(1000, 1000000), 1e-3 + 1e-3);
  EXPECT_DOUBLE_EQ(model.Cost(0, 0), 0.0);
}

TEST(WorldTest, SendRecvDeliversPayload) {
  World world(2);
  uint32_t data = 0xabcd1234;
  world.Send(0, 1, &data, sizeof(data));
  auto messages = world.Recv(1);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].src_node, 0);
  uint32_t got;
  std::memcpy(&got, messages[0].payload.data(), sizeof(got));
  EXPECT_EQ(got, data);
  // Mailbox drained.
  EXPECT_TRUE(world.Recv(1).empty());
}

TEST(WorldTest, TrafficCountsExcludeLoopback) {
  World world(2);
  int x = 7;
  world.Send(0, 0, &x, sizeof(x));  // loopback: free
  world.Send(0, 1, &x, sizeof(x));
  EXPECT_EQ(world.TotalMessages(), 1u);
  EXPECT_EQ(world.TotalBytes(), sizeof(x));
  EXPECT_EQ(world.NodeMessages(0), 1u);
  EXPECT_EQ(world.NodeBytes(0), sizeof(x));
  world.ResetTraffic();
  EXPECT_EQ(world.TotalMessages(), 0u);
}

TEST(ClusterTest, RunInvokesEveryRankOnce) {
  Cluster cluster(4);
  std::atomic<uint64_t> mask{0};
  cluster.Run([&](NodeContext& ctx) {
    EXPECT_EQ(ctx.num_nodes, 4);
    mask.fetch_or(1ull << ctx.rank);
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ClusterTest, BarrierSynchronizesPhases) {
  // Every rank increments a counter, barriers, then checks that all
  // increments are visible — repeated across many phases to catch
  // sense-reversal bugs.
  constexpr int kRanks = 4;
  constexpr int kPhases = 50;
  Cluster cluster(kRanks);
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      counter.fetch_add(1);
      ctx.world->Barrier();
      if (counter.load() < phase * kRanks) failures.fetch_add(1);
      ctx.world->Barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceSumAcrossRanks) {
  Cluster cluster(5);
  std::vector<uint64_t> results(5);
  cluster.Run([&](NodeContext& ctx) {
    results[ctx.rank] =
        ctx.world->AllReduceSum(ctx.rank, static_cast<uint64_t>(ctx.rank + 1));
  });
  for (uint64_t r : results) EXPECT_EQ(r, 15u);  // 1+2+3+4+5
}

TEST(ClusterTest, AllReduceSumRepeatedUsesCleanScratch) {
  Cluster cluster(3);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      uint64_t sum = ctx.world->AllReduceSum(ctx.rank, 1);
      if (sum != 3) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceMaxAndMin) {
  Cluster cluster(4);
  std::vector<double> maxes(4), mins(4);
  cluster.Run([&](NodeContext& ctx) {
    double mine = static_cast<double>(ctx.rank * 10);
    maxes[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::max(a, b); });
    mins[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::min(a, b); });
  });
  for (double m : maxes) EXPECT_DOUBLE_EQ(m, 30.0);
  for (double m : mins) EXPECT_DOUBLE_EQ(m, 0.0);
}

// Every rank of every reduction sees the exact fold of all ranks' values,
// across long mixed sequences. Back-to-back reductions with no barrier in
// between are where a slot could be overwritten before a slow rank read it.
class CollectiveStressTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveStressTest, MixedCollectivesAreExactOnEveryRank) {
  const int ranks = GetParam();
  constexpr int kRounds = 10000;
  Cluster cluster(ranks);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int round = 0; round < kRounds; ++round) {
      // Same op sequence on every rank, irregular enough to put every
      // ordering of barriers and reductions next to each other.
      switch ((round * 7 + round / 3) % 4) {
        case 0:
          ctx.world->Barrier();
          break;
        case 1: {
          uint64_t mine = static_cast<uint64_t>(round + 1) * (ctx.rank + 1);
          uint64_t want = static_cast<uint64_t>(round + 1) * ranks *
                          (ranks + 1) / 2;
          if (ctx.world->AllReduceSum(ctx.rank, mine) != want) {
            failures.fetch_add(1);
          }
          break;
        }
        case 2: {
          auto value = [round](int r) {
            return static_cast<double>((r * 37 + round) % 101);
          };
          double want = value(0);
          for (int r = 1; r < ranks; ++r) want = std::max(want, value(r));
          double got = ctx.world->AllReduce(
              ctx.rank, value(ctx.rank),
              [](double a, double b) { return std::max(a, b); });
          if (got != want) failures.fetch_add(1);
          break;
        }
        default: {
          double got = ctx.world->AllReduce(
              ctx.rank, -static_cast<double>(ctx.rank + round),
              [](double a, double b) { return std::min(a, b); });
          if (got != -static_cast<double>(ranks - 1 + round)) {
            failures.fetch_add(1);
          }
          break;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, CollectiveStressTest,
                         ::testing::Values(2, 3, 8));

TEST(ClusterTest, AllReduceFoldsInRankOrder) {
  // Floating-point addition is not associative: with 2^53 on rank 0, the
  // rank-order fold ((2^53 + 1) - 2^53) + 1 rounds the first 1 away and
  // yields exactly 1, while e.g. arrival order 1 + 1 + 2^53 - 2^53 gives 2.
  // Rank 0 arrives last, so an arrival-order fold would differ.
  constexpr int kRanks = 4;
  const double big = std::ldexp(1.0, 53);
  const double values[kRanks] = {big, 1.0, -big, 1.0};
  Cluster cluster(kRanks);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      if (ctx.rank == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      double sum = ctx.world->AllReduce(
          ctx.rank, values[ctx.rank], [](double a, double b) { return a + b; });
      if (sum != 1.0) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, ExchangeVisitsEveryRankInOrder) {
  struct Record {
    int rank;
    double weight;
  };
  constexpr int kRanks = 5;
  Cluster cluster(kRanks);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    Record mine{ctx.rank, 0.5 * ctx.rank};
    int expected = 0;
    ctx.world->Exchange(ctx.rank, mine, [&](int r, const Record& rec) {
      if (r != expected++ || rec.rank != r || rec.weight != 0.5 * r) {
        failures.fetch_add(1);
      }
    });
    if (expected != kRanks) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, EachCollectiveCompletesOneBarrier) {
  Cluster cluster(3);
  World& world = cluster.world();
  uint64_t start = world.barriers_completed();
  std::vector<uint64_t> deltas(3);
  cluster.Run([&](NodeContext& ctx) {
    uint64_t before = ctx.world->barriers_completed();
    ctx.world->Barrier();
    ctx.world->AllReduceSum(ctx.rank, 1);
    ctx.world->AllReduce(ctx.rank, 1.0,
                         [](double a, double b) { return a + b; });
    deltas[ctx.rank] = ctx.world->barriers_completed() - before;
  });
  for (uint64_t d : deltas) EXPECT_EQ(d, 3u);
  EXPECT_EQ(world.barriers_completed() - start, 3u);
}

TEST(ClusterTest, AllToAllMessaging) {
  // Every rank sends its id to every other rank; after a barrier each rank
  // must find exactly num_nodes-1 messages with the senders' ids.
  constexpr int kRanks = 4;
  Cluster cluster(kRanks);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    int id = ctx.rank;
    for (int dst = 0; dst < kRanks; ++dst) {
      if (dst != ctx.rank) ctx.world->Send(ctx.rank, dst, &id, sizeof(id));
    }
    ctx.world->Barrier();
    auto messages = ctx.world->Recv(ctx.rank);
    if (messages.size() != kRanks - 1) failures.fetch_add(1);
    uint64_t seen = 0;
    for (const Message& m : messages) {
      int sender;
      std::memcpy(&sender, m.payload.data(), sizeof(sender));
      if (sender != m.src_node) failures.fetch_add(1);
      seen |= 1ull << sender;
    }
    uint64_t want = ((1ull << kRanks) - 1) & ~(1ull << ctx.rank);
    if (seen != want) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, PerNodePoolsAreIndependent) {
  Cluster cluster(2, /*threads_per_node=*/3);
  std::atomic<int> total{0};
  cluster.Run([&](NodeContext& ctx) {
    ctx.pool->ParallelRun([&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ClusterTest, SequentialRunsReuseWorld) {
  Cluster cluster(3);
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> count{0};
    cluster.Run([&](NodeContext& ctx) {
      ctx.world->Barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 3);
  }
}

}  // namespace
}  // namespace slfe::sim
