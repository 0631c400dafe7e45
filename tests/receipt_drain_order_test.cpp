// Receipt drain ordering within one path.  The wire codec rejects
// receipts with backward time steps, and periodic reporting rounds must
// concatenate into the one-shot stream.
//
// Pinned properties:
//   * periodic control-plane drains concatenate into exactly the stream a
//     single end-of-run drain yields (draining early never reorders,
//     drops, or duplicates receipts);
//   * drained receipts are monotonically time-ordered per path.
// The order ACROSS paths (ascending global path index, whatever the shard
// count) is pinned by ShardedEquivalence.* and ShardedLifecycle.*.
#include <gtest/gtest.h>

#include <vector>

#include "collector/monitoring_cache.hpp"
#include "helpers.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

collector::MonitoringCache::Config cache_config() {
  collector::MonitoringCache::Config cfg;
  cfg.protocol = test::test_protocol();
  cfg.tuning = HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};
  return cfg;
}

/// Feed `trace` in `chunks` slices, draining (without flush) after each;
/// returns the concatenated drains plus a final flushed drain.
PathDrain periodic_drain(collector::MonitoringCache& cache,
                         std::span<const net::Packet> trace,
                         std::size_t chunks) {
  PathDrain all;
  const std::size_t step = trace.size() / chunks + 1;
  for (std::size_t i = 0; i < trace.size(); i += step) {
    cache.observe_batch(trace.subspan(i, std::min(step, trace.size() - i)));
    PathDrain d = cache.drain_path(0, /*flush_open=*/false);
    all.samples.path = d.samples.path;
    all.samples.sample_threshold = d.samples.sample_threshold;
    all.samples.marker_threshold = d.samples.marker_threshold;
    all.samples.samples.insert(all.samples.samples.end(),
                               d.samples.samples.begin(),
                               d.samples.samples.end());
    all.aggregates.insert(all.aggregates.end(), d.aggregates.begin(),
                          d.aggregates.end());
  }
  PathDrain tail = cache.drain_path(0, /*flush_open=*/true);
  all.samples.samples.insert(all.samples.samples.end(),
                             tail.samples.samples.begin(),
                             tail.samples.samples.end());
  all.aggregates.insert(all.aggregates.end(), tail.aggregates.begin(),
                        tail.aggregates.end());
  return all;
}

void expect_monotone(const PathDrain& d) {
  for (std::size_t i = 1; i < d.samples.samples.size(); ++i) {
    EXPECT_GE(d.samples.samples[i].time, d.samples.samples[i - 1].time)
        << "sample " << i;
  }
  for (std::size_t i = 0; i < d.aggregates.size(); ++i) {
    EXPECT_LE(d.aggregates[i].opened_at, d.aggregates[i].closed_at)
        << "aggregate " << i;
    if (i > 0) {
      EXPECT_GE(d.aggregates[i].opened_at, d.aggregates[i - 1].opened_at);
      EXPECT_GE(d.aggregates[i].closed_at, d.aggregates[i - 1].closed_at);
    }
  }
}

TEST(ReceiptDrainOrder, PeriodicDrainsConcatenateToTheFullDrain) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  auto tcfg = test::small_trace_config(13);
  const auto trace = trace::generate_trace(tcfg);

  collector::MonitoringCache periodic(cache_config(), paths);
  const PathDrain chunked = periodic_drain(periodic, trace, 9);

  collector::MonitoringCache oneshot(cache_config(), paths);
  oneshot.observe_batch(trace);
  const PathDrain full = oneshot.drain_path(0, /*flush_open=*/true);

  ASSERT_FALSE(full.samples.samples.empty());
  ASSERT_GT(full.aggregates.size(), 5u);
  EXPECT_EQ(chunked, full);
}

TEST(ReceiptDrainOrder, DrainedReceiptsAreMonotonePerPath) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  auto tcfg = test::small_trace_config(29);
  const auto trace = trace::generate_trace(tcfg);
  collector::MonitoringCache cache(cache_config(), paths);
  const PathDrain all = periodic_drain(cache, trace, 7);
  ASSERT_GT(all.aggregates.size(), 5u);
  expect_monotone(all);
}

}  // namespace
}  // namespace vpm::core
