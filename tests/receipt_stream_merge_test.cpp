// Streaming receipt merge: the iterator-based counterpart of
// merge_path_drains must yield the exact same stream with at most one
// drain per shard in memory, pulled lazily — plus the ShardedCollector
// entry point that streams a multi-shard drain without materializing any
// shard's full drain first.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <random>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/receipt_merge.hpp"
#include "sim/shard_scenario.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

/// A fabricated drain for path `p` with recognizable contents.
IndexedPathDrain fake_drain(std::size_t p) {
  IndexedPathDrain d;
  d.path = p;
  d.drain.samples.sample_threshold = static_cast<std::uint32_t>(p * 3 + 1);
  d.drain.samples.samples.push_back(SampleRecord{
      .pkt_id = static_cast<net::PacketDigest>(p * 7 + 5),
      .time = net::Timestamp{static_cast<std::int64_t>(p) * 1000},
      .is_marker = (p % 2) == 0});
  return d;
}

/// Partition paths {0..n-1} round-robin into k ascending shard streams.
std::vector<std::vector<IndexedPathDrain>> fake_shards(std::size_t n,
                                                       std::size_t k) {
  std::vector<std::vector<IndexedPathDrain>> shards(k);
  for (std::size_t p = 0; p < n; ++p) {
    shards[p % k].push_back(fake_drain(p));
  }
  return shards;
}

TEST(StreamingDrainMerge, MatchesMaterializedMerge) {
  for (const auto& [paths, shards] :
       {std::pair<std::size_t, std::size_t>{0, 1},
        std::pair<std::size_t, std::size_t>{1, 4},
        std::pair<std::size_t, std::size_t>{17, 3},
        std::pair<std::size_t, std::size_t>{100, 8}}) {
    const std::vector<IndexedPathDrain> expected =
        merge_path_drains(fake_shards(paths, shards));

    StreamingDrainMerge merge = StreamingDrainMerge::over(
        fake_shards(paths, shards));
    std::vector<IndexedPathDrain> streamed;
    while (auto d = merge.next()) streamed.push_back(std::move(*d));
    EXPECT_TRUE(merge.done());
    EXPECT_FALSE(merge.next().has_value());  // exhausted stays exhausted
    EXPECT_EQ(streamed, expected) << paths << " paths, " << shards
                                  << " shards";
  }
}

TEST(StreamingDrainMerge, PullsSourcesLazily) {
  // Two sources of 4 drains each.  Construction pulls NOTHING (an
  // abandoned merge must not consume destructive sources); after k
  // next() calls no source may have been pulled more than k + 1 times
  // (its head) — the merge never materializes ahead of consumption.
  std::vector<std::size_t> pulls(2, 0);
  std::vector<DrainSource> sources;
  for (std::size_t s = 0; s < 2; ++s) {
    sources.push_back([s, &pulls, i = std::size_t{0}]() mutable
                      -> std::optional<IndexedPathDrain> {
      ++pulls[s];
      if (i == 4) return std::nullopt;
      return fake_drain(s + 2 * i++);
    });
  }
  StreamingDrainMerge merge{std::move(sources)};
  EXPECT_EQ(pulls[0] + pulls[1], 0u);  // nothing consumed yet
  std::size_t consumed = 0;
  while (auto d = merge.next()) {
    ++consumed;
    EXPECT_LE(pulls[0], consumed + 1);
    EXPECT_LE(pulls[1], consumed + 1);
  }
  EXPECT_EQ(consumed, 8u);
}

TEST(ShardedDrainStream, AbandonedStreamLosesNoReceipts) {
  // drain_stream() then discarding the merge unconsumed must leave every
  // receipt available to a subsequent drain().
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 13;
  mcfg.total_packets_per_second = 40'000;
  mcfg.duration = net::milliseconds(100);
  mcfg.seed = 9;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::ShardedCollector::Config scfg;
  scfg.cache.protocol.marker_rate = 1.0 / 500.0;
  scfg.cache.tuning =
      core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  scfg.shard_count = 4;
  collector::ShardedCollector a(scfg, multi.paths);
  collector::ShardedCollector b(scfg, multi.paths);
  a.observe_batch(multi.packets);
  b.observe_batch(multi.packets);

  { auto abandoned = b.drain_stream(true); }  // constructed, never pulled
  EXPECT_EQ(b.drain(true), a.drain(true));
}

TEST(StreamingDrainMerge, RejectsNonAscendingSource) {
  std::vector<std::vector<IndexedPathDrain>> shards(1);
  shards[0].push_back(fake_drain(3));
  shards[0].push_back(fake_drain(2));
  StreamingDrainMerge merge = StreamingDrainMerge::over(std::move(shards));
  // The violation surfaces on the pull that reveals it.
  EXPECT_THROW((void)merge.next(), std::invalid_argument);
}

TEST(StreamingDrainMerge, RejectsDuplicatePathAcrossSources) {
  std::vector<std::vector<IndexedPathDrain>> shards(2);
  shards[0].push_back(fake_drain(5));
  shards[1].push_back(fake_drain(5));
  StreamingDrainMerge merge = StreamingDrainMerge::over(std::move(shards));
  EXPECT_THROW((void)merge.next(), std::invalid_argument);
}

TEST(StreamingDrainMerge, EmptySourceSetIsDone) {
  StreamingDrainMerge merge{std::vector<DrainSource>{}};
  EXPECT_TRUE(merge.done());
  EXPECT_FALSE(merge.next().has_value());
}

// ------------------------------------------------------------------------

TEST(ShardedDrainStream, YieldsExactlyTheMaterializedDrain) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 61;
  mcfg.total_packets_per_second = 60'000;
  mcfg.duration = net::milliseconds(200);
  mcfg.seed = 23;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::ShardedCollector::Config scfg;
  scfg.cache.protocol.marker_rate = 1.0 / 500.0;
  scfg.cache.tuning =
      core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  scfg.shard_count = 4;

  // Two identically-fed collectors: one drains materialized, one streams.
  collector::ShardedCollector a(scfg, multi.paths);
  collector::ShardedCollector b(scfg, multi.paths);
  a.observe_batch(multi.packets);
  b.observe_batch(multi.packets);

  const std::vector<IndexedPathDrain> materialized = a.drain(true);

  StreamingDrainMerge stream = b.drain_stream(true);
  std::vector<IndexedPathDrain> streamed;
  while (auto d = stream.next()) streamed.push_back(std::move(*d));

  ASSERT_EQ(streamed.size(), multi.paths.size());
  EXPECT_EQ(streamed, materialized);
  EXPECT_EQ(sim::encode_drain_stream(streamed),
            sim::encode_drain_stream(materialized));
}

TEST(ShardedDrainStream, GuardedWhileRunning) {
  const std::vector<net::PrefixPair> one = {trace::default_prefix_pair()};
  collector::ShardedCollector::Config scfg;
  scfg.cache.protocol.marker_rate = 1.0 / 500.0;
  scfg.cache.tuning =
      core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  scfg.shard_count = 2;
  collector::ShardedCollector sharded(scfg, one);
  sharded.start(1);
  EXPECT_THROW((void)sharded.drain_stream(), std::logic_error);
  sharded.stop();
  (void)sharded.drain_stream(true);
}

}  // namespace
}  // namespace vpm::core
