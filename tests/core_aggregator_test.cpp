// Tests for Algorithm 2 (Partition) + the AggTrans extension: cut
// semantics, count conservation, the nested-cuts subset property
// (Section 6.2), and the reorder window machinery (Section 6.3).
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "helpers.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

using collector::MonitoringCache;
using net::DigestEngine;
using net::Packet;

std::vector<Packet> make_trace(std::uint64_t seed = 1,
                               double pps = 20'000.0, double secs = 1.0) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = pps;
  cfg.duration = net::seconds_f(secs);
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

/// A one-path cache cutting at `cut_rate` with reorder window `j` (0 keeps
/// no AggTrans state); its aggregates are path 0's.
MonitoringCache make_aggregator(double cut_rate, net::Duration j) {
  ProtocolParams protocol;
  protocol.reorder_window_j = j;
  return test::make_monitor(protocol, HopTuning{.cut_rate = cut_rate},
                            net::kNoHop, net::kNoHop);
}

std::vector<AggregateReceipt> run_all(MonitoringCache& a,
                                      const std::vector<Packet>& trace) {
  for (const Packet& p : trace) a.observe(p, p.origin_time);
  return a.drain_path(0, /*flush_open=*/true).aggregates;
}

/// J-window high-water mark (records).
std::size_t window_peak(const MonitoringCache& a) {
  return a.state().slots[0].warm.window_peak;
}

TEST(Aggregator, CountsConserveTraceSize) {
  MonitoringCache a = make_aggregator(1e-3, net::milliseconds(10));
  const auto trace = make_trace();
  const auto aggs = run_all(a, trace);
  const std::uint64_t total = std::accumulate(
      aggs.begin(), aggs.end(), std::uint64_t{0},
      [](std::uint64_t acc, const AggregateReceipt& d) {
        return acc + d.packet_count;
      });
  EXPECT_EQ(total, trace.size());
  EXPECT_GT(aggs.size(), 5u);
}

TEST(Aggregator, AggIdsChainCorrectly) {
  const DigestEngine engine;
  MonitoringCache a = make_aggregator(1e-3, net::milliseconds(10));
  const auto trace = make_trace(3);
  const auto aggs = run_all(a, trace);
  // first id of aggregate k+1 is the cutting packet; the last id of
  // aggregate k is the packet observed just before it.
  EXPECT_EQ(aggs.front().agg.first, engine.packet_id(trace.front()));
  for (std::size_t k = 0; k + 1 < aggs.size(); ++k) {
    EXPECT_NE(aggs[k].agg.last, aggs[k + 1].agg.first);
    EXPECT_LE(aggs[k].closed_at, aggs[k + 1].opened_at);
  }
}

TEST(Aggregator, CutPacketsStartAggregates) {
  const DigestEngine engine;
  const std::uint32_t delta = cut_threshold_for(1e-3);
  MonitoringCache a = make_aggregator(1e-3, net::Duration{0});
  const auto trace = make_trace(5);
  const auto aggs = run_all(a, trace);
  // Every aggregate after the first starts with a packet whose cut value
  // exceeds delta.
  std::set<net::PacketDigest> cut_ids;
  for (const Packet& p : trace) {
    if (engine.cut_value(p) > delta) cut_ids.insert(engine.packet_id(p));
  }
  for (std::size_t k = 1; k < aggs.size(); ++k) {
    EXPECT_TRUE(cut_ids.contains(aggs[k].agg.first)) << k;
  }
}

TEST(Aggregator, AchievedAggregateSizeTracksCutRate) {
  const auto trace = make_trace(7, 50'000, 2.0);
  MonitoringCache a = make_aggregator(1.0 / 5000.0, net::Duration{0});
  const auto aggs = run_all(a, trace);
  const double mean_size = static_cast<double>(trace.size()) /
                           static_cast<double>(aggs.size());
  EXPECT_NEAR(mean_size, 5000.0, 1500.0);
}

// Property: delta1 > delta2 => cuts(delta1) subset of cuts(delta2)
// (Section 6.2): the coarser HOP's boundaries all exist at the finer HOP.
class AggregatorSubsetProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double,
                                                 double>> {};

TEST_P(AggregatorSubsetProperty, CoarserCutsAreSubset) {
  const auto [seed, coarse_rate, fine_rate] = GetParam();
  ASSERT_LT(coarse_rate, fine_rate);
  const auto trace = make_trace(seed, 40'000, 1.0);

  MonitoringCache coarse = make_aggregator(coarse_rate, net::Duration{0});
  MonitoringCache fine = make_aggregator(fine_rate, net::Duration{0});
  const auto coarse_aggs = run_all(coarse, trace);
  const auto fine_aggs = run_all(fine, trace);
  EXPECT_GE(fine_aggs.size(), coarse_aggs.size());

  std::set<net::PacketDigest> fine_starts;
  for (const AggregateReceipt& d : fine_aggs) fine_starts.insert(d.agg.first);
  for (const AggregateReceipt& d : coarse_aggs) {
    EXPECT_TRUE(fine_starts.contains(d.agg.first))
        << "coarse boundary missing at fine HOP";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CutRates, AggregatorSubsetProperty,
    ::testing::Values(std::make_tuple(1ull, 1e-4, 1e-3),
                      std::make_tuple(2ull, 5e-4, 5e-3),
                      std::make_tuple(3ull, 1e-3, 1e-2),
                      std::make_tuple(4ull, 2e-4, 2e-3)));

TEST(Aggregator, TransWindowSurroundsBoundary) {
  const DigestEngine engine;
  const net::Duration j = net::milliseconds(5);
  MonitoringCache a = make_aggregator(1e-3, j);
  const auto trace = make_trace(9);
  for (const Packet& p : trace) a.observe(p, p.origin_time);
  const auto closed = a.drain_path(0).aggregates;
  ASSERT_GT(closed.size(), 2u);

  // Index packets by id for time lookups.
  std::unordered_map<net::PacketDigest, net::Timestamp> when;
  for (const Packet& p : trace) {
    when.emplace(engine.packet_id(p), p.origin_time);
  }
  for (const AggregateReceipt& d : closed) {
    ASSERT_FALSE(d.trans.after.empty());
    // The first 'after' id is the cutting packet; every windowed id lies
    // within J of it.
    const net::Timestamp boundary = when.at(d.trans.after.front());
    for (const net::PacketDigest id : d.trans.before) {
      const net::Duration gap = boundary - when.at(id);
      EXPECT_GE(gap, net::Duration{0});
      EXPECT_LE(gap, j);
    }
    for (const net::PacketDigest id : d.trans.after) {
      const net::Duration gap = when.at(id) - boundary;
      EXPECT_GE(gap, net::Duration{0});
      EXPECT_LE(gap, j);
    }
  }
}

TEST(Aggregator, ClosedAggregatesWaitForTrailingWindow) {
  const net::Duration j = net::milliseconds(10);
  MonitoringCache a = make_aggregator(0.01, j);
  const auto trace = make_trace(11, 10'000, 0.5);

  // Every closure must happen strictly after its boundary + J: until then
  // the trailing AggTrans window is still filling.
  std::vector<net::Timestamp> boundaries;
  std::size_t closed_so_far = 0;
  for (const Packet& p : trace) {
    const std::uint64_t cuts_before = a.path_stats(0).cuts;
    a.observe(p, p.origin_time);
    if (a.path_stats(0).cuts > cuts_before) {
      boundaries.push_back(p.origin_time);
    }
    for (const AggregateReceipt& d : a.drain_path(0).aggregates) {
      (void)d;
      ASSERT_LT(closed_so_far, boundaries.size());
      EXPECT_GT(p.origin_time, boundaries[closed_so_far] + j);
      ++closed_so_far;
    }
  }
  EXPECT_GT(closed_so_far, 3u);
}

TEST(Aggregator, ZeroWindowKeepsNoTransState) {
  MonitoringCache a = make_aggregator(1e-3, net::Duration{0});
  const auto trace = make_trace(13);
  const auto aggs = run_all(a, trace);
  for (const AggregateReceipt& d : aggs) {
    EXPECT_TRUE(d.trans.empty());
  }
  EXPECT_EQ(window_peak(a), 0u);
}

TEST(Aggregator, FlushOpenOnEmptyIsEmpty) {
  MonitoringCache a = make_aggregator(1e-3, net::milliseconds(10));
  EXPECT_TRUE(a.drain_path(0, /*flush_open=*/true).aggregates.empty());
}

TEST(Aggregator, WindowPeakBoundedByRateTimesJ) {
  const net::Duration j = net::milliseconds(10);
  MonitoringCache a = make_aggregator(1e-3, j);
  const auto trace = make_trace(15, 50'000, 1.0);
  for (const Packet& p : trace) a.observe(p, p.origin_time);
  // 50 kpps x 10 ms = 500 expected; MMPP bursts allow ~3x.
  EXPECT_LT(window_peak(a), 2500u);
  EXPECT_GT(window_peak(a), 100u);
}

}  // namespace
}  // namespace vpm::core
