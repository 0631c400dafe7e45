// Sharded-vs-single-threaded equivalence: the tentpole proof obligation.
//
// Sharding is a pure scaling transform — it must not change a single
// receipt.  Bias resistance (§5.1) and the subset properties (§5.2, §6.2)
// are statements about WHICH packets get sampled/cut and what the
// receipts disclose, so the identity we pin is: the sharded collector's
// drain equals the single-threaded MonitoringCache's drain over the same
// trace, receipt for receipt (`==`).
//
// Coverage axes (the acceptance grid): ≥10 seeds, each with a different
// topology (path count 1..256, varying popularity skew), shard counts
// {1, 2, 4, 8}, BOTH digest modes, randomized observe_batch() slice
// boundaries on the sharded side, and both ingest modes (synchronous and
// SPSC-queue threaded with 1..3 producers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/pipeline.hpp"
#include "collector/sharded_collector.hpp"
#include "sim/shard_scenario.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim {
namespace {

/// Seed -> workload topology: vary path count across orders of magnitude
/// (1 path exercises 7 empty shards at shard_count 8) and the Zipf skew
/// (hot-path imbalance across shards).
ShardScenarioConfig topology_for(std::uint64_t seed) {
  static constexpr std::size_t kPathCounts[] = {1,  2,  3,  5,   8,
                                                16, 48, 97, 150, 256};
  static constexpr double kZipf[] = {0.5, 0.8, 1.0, 1.1, 1.3,
                                     1.4, 0.9, 1.2, 0.7, 1.0};
  ShardScenarioConfig cfg;
  cfg.seed = seed;
  cfg.path_count = kPathCounts[(seed - 1) % 10];
  cfg.zipf_s = kZipf[(seed - 1) % 10];
  return cfg;
}

class ShardedEquivalence : public ::testing::TestWithParam<net::DigestMode> {};

TEST_P(ShardedEquivalence, MergedStreamByteIdenticalAcrossSeedsAndShards) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      ShardScenarioConfig cfg = topology_for(seed);
      cfg.digest_mode = GetParam();
      cfg.shard_count = shards;
      const ShardScenarioResult r = run_shard_scenario(cfg);

      ASSERT_GT(r.total_packets, 10'000u) << "degenerate trace";
      ASSERT_FALSE(r.single.empty());
      EXPECT_TRUE(r.sharded == r.single)
          << "seed " << seed << ", " << shards << " shards";
      // The cost model must shard losslessly too: same packets, same
      // hashes, same marker sweeps — just spread over workers.
      EXPECT_EQ(r.single_ops.memory_accesses, r.sharded_ops.memory_accesses);
      EXPECT_EQ(r.single_ops.hash_computations,
                r.sharded_ops.hash_computations);
      EXPECT_EQ(r.single_ops.marker_sweep_accesses,
                r.sharded_ops.marker_sweep_accesses);
      EXPECT_EQ(r.single_unknown, r.sharded_unknown);
    }
  }
}

TEST_P(ShardedEquivalence, ThreadedIngestMatchesReference) {
  for (const auto& [producers, shards] :
       {std::pair<std::size_t, std::size_t>{1, 4},
        std::pair<std::size_t, std::size_t>{2, 2},
        std::pair<std::size_t, std::size_t>{3, 8}}) {
    ShardScenarioConfig cfg = topology_for(7);
    cfg.digest_mode = GetParam();
    cfg.shard_count = shards;
    cfg.producer_count = producers;
    const ShardScenarioResult r = run_shard_scenario(cfg);
    EXPECT_TRUE(r.sharded == r.single)
        << producers << " producers, " << shards << " shards";
  }
}

// One shard hands the caller's spans straight to its cache: through the
// explicit-timestamp overload, with packets of paths the collector does
// not hold, the receipts, the cost model and the unknown count must equal
// the cache's own.
TEST_P(ShardedEquivalence, SingleShardExplicitTimesMatchTheCache) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 24;
  mcfg.total_packets_per_second = 40'000;
  mcfg.duration = net::milliseconds(500);
  mcfg.seed = 91;
  const trace::MultiPathTrace multi = trace::generate_multi_path(mcfg);
  // The collectors hold two thirds of the paths; the rest arrive unknown.
  const auto held_count =
      static_cast<std::ptrdiff_t>(2 * multi.paths.size() / 3);
  const std::vector<net::PrefixPair> held(multi.paths.begin(),
                                          multi.paths.begin() + held_count);
  std::vector<net::Timestamp> when;
  when.reserve(multi.packets.size());
  for (const net::Packet& p : multi.packets) {
    when.push_back(p.origin_time + net::microseconds(250));
  }

  collector::ShardedCollector::Config cfg;
  cfg.cache.protocol.digest_mode = GetParam();
  cfg.cache.protocol.marker_rate = 1.0 / 200.0;
  cfg.cache.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};
  cfg.shard_count = 1;
  collector::MonitoringCache mono(cfg.cache, held);
  mono.observe_batch(multi.packets, when);
  collector::ShardedCollector sharded(cfg, held);
  const std::span<const net::Packet> packets(multi.packets);
  const std::span<const net::Timestamp> times(when);
  for (std::size_t at = 0; at < packets.size(); at += 1000) {
    const std::size_t n = std::min<std::size_t>(1000, packets.size() - at);
    sharded.observe_batch(packets.subspan(at, n), times.subspan(at, n));
  }

  ASSERT_GT(mono.unknown_path_packets(), 0u);
  EXPECT_EQ(sharded.unknown_path_packets(), mono.unknown_path_packets());
  EXPECT_EQ(sharded.ops().memory_accesses, mono.ops().memory_accesses);
  EXPECT_EQ(sharded.ops().hash_computations, mono.ops().hash_computations);
  EXPECT_EQ(sharded.ops().marker_sweep_accesses,
            mono.ops().marker_sweep_accesses);
  const auto mono_drain = mono.drain_all(/*flush_open=*/true);
  ASSERT_FALSE(mono_drain.empty());
  EXPECT_TRUE(sharded.drain(/*flush_open=*/true) == mono_drain);
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardedEquivalence,
                         ::testing::Values(net::DigestMode::kSingle,
                                           net::DigestMode::kIndependent));

// ------------------------------------------------------------------------
// API-surface checks that the scenario driver does not exercise.

collector::ShardedCollector::Config sharded_config(std::size_t shards) {
  collector::ShardedCollector::Config cfg;
  cfg.cache.protocol.marker_rate = 1.0 / 500.0;
  cfg.cache.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  cfg.shard_count = shards;
  return cfg;
}

TEST(ShardedCollector, SingleObserveReportsGlobalPathIndices) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 37;
  mcfg.total_packets_per_second = 40'000;
  mcfg.duration = net::milliseconds(100);
  mcfg.seed = 4;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::ShardedCollector sharded(sharded_config(4), multi.paths);
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    ASSERT_EQ(sharded.observe(multi.packets[i], multi.packets[i].origin_time),
              multi.path_of[i]);
  }
  EXPECT_EQ(sharded.unknown_path_packets(), 0u);

  net::Packet alien;
  alien.header.src = net::Ipv4Address(1, 2, 3, 4);
  alien.header.dst = net::Ipv4Address(9, 9, 9, 9);
  EXPECT_EQ(sharded.observe(alien, net::Timestamp{}),
            collector::PathClassifier::npos);
  EXPECT_EQ(sharded.unknown_path_packets(), 1u);
}

TEST(ShardedCollector, Validation) {
  const std::vector<net::PrefixPair> one = {trace::default_prefix_pair()};
  EXPECT_THROW(
      collector::ShardedCollector(sharded_config(0), one),
      std::invalid_argument);
  collector::ShardedCollector::Config no_queue = sharded_config(2);
  no_queue.queue_capacity = 0;
  EXPECT_THROW(collector::ShardedCollector(no_queue, one),
               std::invalid_argument);
  EXPECT_THROW(collector::ShardedCollector(sharded_config(2),
                                           std::vector<net::PrefixPair>{}),
               std::invalid_argument);
  const std::vector<net::PrefixPair> mixed = {
      trace::default_prefix_pair(),
      net::PrefixPair{net::Prefix::parse("10.9.0.0/24"),
                      net::Prefix::parse("100.9.0.0/24")},
  };
  EXPECT_THROW(collector::ShardedCollector(sharded_config(2), mixed),
               std::invalid_argument);
  const std::vector<net::PrefixPair> dup = {trace::default_prefix_pair(),
                                            trace::default_prefix_pair()};
  EXPECT_THROW(collector::ShardedCollector(sharded_config(2), dup),
               std::invalid_argument);
}

TEST(ShardedCollector, ControlPlaneGuardsWhileRunning) {
  const std::vector<net::PrefixPair> one = {trace::default_prefix_pair()};
  collector::ShardedCollector sharded(sharded_config(2), one);
  EXPECT_THROW(sharded.feed(0, {}), std::logic_error);  // not started
  EXPECT_THROW(sharded.flush(0), std::logic_error);

  sharded.start(1);
  EXPECT_TRUE(sharded.running());
  EXPECT_THROW(sharded.feed(1, {}), std::out_of_range);  // one producer
  EXPECT_THROW(sharded.flush(1), std::out_of_range);
  net::Packet p;
  EXPECT_THROW(sharded.observe(p, net::Timestamp{}), std::logic_error);
  EXPECT_THROW(sharded.observe_batch({}), std::logic_error);
  EXPECT_THROW((void)sharded.drain(), std::logic_error);
  EXPECT_THROW(sharded.start(1), std::logic_error);
  sharded.stop();
  sharded.stop();  // idempotent
  EXPECT_FALSE(sharded.running());
  (void)sharded.drain(true);
}

TEST(ShardedCollector, PipelineElementFeedsShards) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 16;
  mcfg.total_packets_per_second = 40'000;
  mcfg.duration = net::milliseconds(200);
  mcfg.seed = 11;
  const auto multi = trace::generate_multi_path(mcfg);

  auto element =
      std::make_unique<collector::ShardedVpmElement>(sharded_config(4),
                                                     multi.paths);
  collector::ShardedVpmElement* raw = element.get();
  collector::Pipeline pipe;
  pipe.append(std::move(element));
  for (const net::Packet& p : multi.packets) pipe.process(p, p.origin_time);
  EXPECT_EQ(pipe.forwarded(), multi.packets.size());

  std::uint64_t counted = 0;
  for (const core::IndexedPathDrain& d : raw->collector().drain(true)) {
    for (const core::AggregateReceipt& r : d.drain.aggregates) {
      counted += r.packet_count;
    }
  }
  EXPECT_EQ(counted, multi.packets.size());
}

// ------------------------------------------------------------------------
// Handoff, flush and drain contracts of the threaded collector: where
// batches cross a queue and how small they are must never change what a
// shard applies or drains.

trace::MultiPathTrace placement_workload() {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 48;
  mcfg.total_packets_per_second = 60'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 77;
  return trace::generate_multi_path(mcfg);
}

TEST(ShardedPlacement, AllKnobsOnReceiptsUnchangedThreaded) {
  const auto multi = placement_workload();

  // Reference: monolithic cache over the same paths.
  collector::MonitoringCache mono(sharded_config(1).cache, multi.paths);
  mono.observe_batch(multi.packets);

  collector::ShardedCollector::Config cfg = sharded_config(4);
  cfg.queue_capacity = 4;  // tiny queues: producers hit backpressure
  collector::ShardedCollector sharded(cfg, multi.paths);

  sharded.start(/*producer_count=*/1);
  // Feed in slices of a few packets each, so every shard sees thousands
  // of tiny batches instead of a few full ones.
  const std::size_t kSlice = 37;
  for (std::size_t at = 0; at < multi.packets.size(); at += kSlice) {
    const std::size_t n = std::min(kSlice, multi.packets.size() - at);
    sharded.feed(0,
                 std::span<const net::Packet>(multi.packets.data() + at, n));
  }
  sharded.flush(0);
  sharded.wait_idle();
  sharded.stop();

  EXPECT_EQ(sharded.unknown_path_packets(), mono.unknown_path_packets());
  EXPECT_EQ(sharded.ops().hash_computations, mono.ops().hash_computations);
  const auto sharded_drain = sharded.drain(/*flush_open=*/true);
  const auto mono_drain = mono.drain_all(/*flush_open=*/true);
  ASSERT_EQ(sharded_drain.size(), mono_drain.size());
  for (std::size_t i = 0; i < sharded_drain.size(); ++i) {
    EXPECT_EQ(sharded_drain[i].path, i);
    EXPECT_EQ(sharded_drain[i], mono_drain[i]) << "drain entry " << i;
  }
}

TEST(ShardedPlacement, FirstTouchDrainWithoutTraffic) {
  // Shards that never saw a packet still owe their (empty) per-path
  // drains — the drained stream's path set must not depend on which
  // shards got traffic.
  const auto multi = placement_workload();
  collector::ShardedCollector sharded(sharded_config(4), multi.paths);

  const auto drains = sharded.drain(true);
  ASSERT_EQ(drains.size(), multi.paths.size());
  for (std::size_t i = 0; i < drains.size(); ++i) {
    EXPECT_EQ(drains[i].path, i);
    EXPECT_TRUE(drains[i].drain.samples.samples.empty());
  }
}

TEST(ShardedPlacement, FlushContract) {
  const auto multi = placement_workload();
  collector::ShardedCollector sharded(sharded_config(2), multi.paths);

  EXPECT_THROW(sharded.flush(0), std::logic_error);  // not started

  sharded.start(1);
  sharded.feed(0, std::span<const net::Packet>(multi.packets.data(), 100));
  sharded.flush(0);
  sharded.wait_idle();
  // stop() applies whatever is still queued: feed again and stop without
  // flushing.
  sharded.feed(0,
               std::span<const net::Packet>(multi.packets.data() + 100, 100));
  sharded.stop();

  // All 200 packets were applied (none lost in a queue): one hash per
  // observed packet, unknowns route but never hash.
  EXPECT_EQ(sharded.ops().hash_computations + sharded.unknown_path_packets(),
            200u);
}

TEST(ShardedPlacement, HandoffZeroFlushIsNoOp) {
  const auto multi = placement_workload();
  collector::ShardedCollector sharded(sharded_config(2), multi.paths);
  sharded.start(1);
  sharded.feed(0, std::span<const net::Packet>(multi.packets.data(), 64));
  sharded.flush(0);  // feed() already enqueued everything: a no-op
  sharded.wait_idle();
  sharded.stop();
  EXPECT_EQ(sharded.ops().hash_computations + sharded.unknown_path_packets(),
            64u);
}

}  // namespace
}  // namespace vpm::sim
