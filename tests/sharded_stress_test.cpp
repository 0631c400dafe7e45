// Concurrency stress for the sharded collector (the CI TSan job runs
// exactly these suites): N producer threads feeding shard workers through
// the SPSC queues, asserting
//   * no receipt loss or duplication (drained aggregate counts reproduce
//     the per-path ground truth exactly),
//   * deterministic drained output across repeated runs,
//   * correctness under backpressure (tiny queue bounds force producers
//     to spin on full rings while workers drain them).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "collector/spsc_queue.hpp"
#include "sim/shard_scenario.hpp"

namespace vpm::sim {
namespace {

ShardScenarioConfig stress_config() {
  ShardScenarioConfig cfg;
  cfg.seed = 23;
  cfg.path_count = 64;
  cfg.zipf_s = 1.1;
  cfg.total_packets_per_second = 60'000;
  cfg.duration = net::milliseconds(300);
  cfg.shard_count = 4;
  cfg.producer_count = 4;
  return cfg;
}

TEST(ShardedStress, DeterministicAndLosslessAcrossTenRuns) {
  const ShardScenarioResult first = run_shard_scenario(stress_config());
  ASSERT_GT(first.total_packets, 10'000u);

  // No loss, no duplication: every generated packet is accounted for in
  // exactly one aggregate receipt of its path.
  ASSERT_EQ(first.sharded.size(), first.path_packets.size());
  for (const core::IndexedPathDrain& d : first.sharded) {
    std::uint64_t counted = 0;
    for (const core::AggregateReceipt& r : d.drain.aggregates) {
      counted += r.packet_count;
    }
    EXPECT_EQ(counted, first.path_packets[d.path]) << "path " << d.path;
  }

  // Equal to the single-threaded reference...
  EXPECT_TRUE(first.sharded == first.single);

  // ...and across reruns: queue interleavings and thread scheduling must
  // never leak into the drained stream.
  for (int run = 1; run < 10; ++run) {
    const ShardScenarioResult again = run_shard_scenario(stress_config());
    ASSERT_TRUE(again.sharded == first.sharded) << "run " << run;
  }
}

TEST(ShardedStress, BackpressureWithTinyQueues) {
  ShardScenarioConfig cfg = stress_config();
  cfg.queue_capacity = 2;  // producers must block on full rings
  cfg.max_batch = 64;      // many small batches -> many queue round-trips
  const ShardScenarioResult r = run_shard_scenario(cfg);
  EXPECT_TRUE(r.sharded == r.single);
}

TEST(ShardedStress, MoreProducersThanShards) {
  ShardScenarioConfig cfg = stress_config();
  cfg.producer_count = 6;
  cfg.shard_count = 2;
  const ShardScenarioResult r = run_shard_scenario(cfg);
  EXPECT_TRUE(r.sharded == r.single);
}

// ------------------------------------------------------------------------
// The SPSC queue itself.

TEST(ShardedSpscQueue, FifoAndCapacity) {
  collector::SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(q.try_push(v));
  }
  int v = 99;
  EXPECT_FALSE(q.try_push(v));  // full
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));  // empty
}

TEST(ShardedSpscQueue, CloseIsObservedAfterLastItem) {
  collector::SpscQueue<int> q(8);
  int v = 7;
  ASSERT_TRUE(q.try_push(v));
  q.close();
  ASSERT_TRUE(q.closed());
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));  // item pushed before close survives
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.try_pop(out));
}

TEST(ShardedSpscQueue, TwoThreadHandoff) {
  collector::SpscQueue<std::uint64_t> q(16);
  constexpr std::uint64_t kCount = 200'000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t got = 0, v = 0;
    while (got < kCount) {
      if (q.try_pop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 1; i <= kCount; ++i) q.push(i);
  q.close();
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

}  // namespace
}  // namespace vpm::sim
