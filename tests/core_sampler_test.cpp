// Tests for Algorithm 1 (DelaySample): marker semantics, the subset
// property that makes sampling tunable (Section 5.2), bias resistance
// structure (Section 5.1), and behaviour under loss (Section 5.3).
#include <gtest/gtest.h>

#include <algorithm>
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
using net::Timestamp;

std::vector<Packet> make_trace(std::uint64_t seed = 1,
                               double pps = 20'000.0,
                               double secs = 1.0) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = pps;
  cfg.duration = net::seconds_f(secs);
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

/// A one-path cache sampling at `rate`; its samples are path 0's.
MonitoringCache make_sampler(const ProtocolParams& params, double rate) {
  return test::make_monitor(params, HopTuning{.sample_rate = rate},
                            net::kNoHop, net::kNoHop);
}

void feed_all(MonitoringCache& s, const std::vector<Packet>& trace) {
  for (const Packet& p : trace) {
    s.observe(p, p.origin_time);
  }
}

std::vector<SampleRecord> take_samples(MonitoringCache& s) {
  return s.drain_path(0).samples.samples;
}

/// Packets buffered awaiting a marker.
std::size_t buffered(const MonitoringCache& s) {
  return s.state().slots[0].hot.buf_size;
}

std::set<net::PacketDigest> ids_of(const std::vector<SampleRecord>& rs) {
  std::set<net::PacketDigest> out;
  for (const SampleRecord& r : rs) out.insert(r.pkt_id);
  return out;
}

ProtocolParams protocol() {
  ProtocolParams p;
  p.marker_rate = 1.0 / 200.0;  // frequent markers for short test traces
  return p;
}

TEST(DelaySampler, EveryMarkerIsSampled) {
  const ProtocolParams params = protocol();
  const DigestEngine engine = params.make_engine();
  MonitoringCache s = make_sampler(params, 0.02);
  const auto trace = make_trace();
  feed_all(s, trace);
  const auto samples = take_samples(s);

  std::size_t markers = 0;
  for (const SampleRecord& r : samples) {
    if (r.is_marker) ++markers;
  }
  EXPECT_EQ(markers, s.path_stats(0).markers);
  EXPECT_GT(markers, 50u);
  // Every marker in the trace must appear as a sampled marker record.
  std::set<net::PacketDigest> sampled_markers;
  for (const SampleRecord& r : samples) {
    if (r.is_marker) sampled_markers.insert(r.pkt_id);
  }
  for (const Packet& p : trace) {
    if (engine.marker_value(p) > params.marker_threshold()) {
      EXPECT_TRUE(sampled_markers.contains(engine.packet_id(p)));
    }
  }
}

TEST(DelaySampler, NothingEmittedBeforeFirstMarker) {
  const ProtocolParams params = protocol();
  const DigestEngine engine = params.make_engine();
  MonitoringCache s = make_sampler(params, 1.0);
  const auto trace = make_trace();
  // Feed packets only until just before the first marker.
  for (const Packet& p : trace) {
    if (engine.marker_value(p) > params.marker_threshold()) break;
    s.observe(p, p.origin_time);
  }
  // Bias resistance, structurally: until a marker arrives, no packet's
  // fate is decided, even at sampling rate 1.
  EXPECT_TRUE(take_samples(s).empty());
  EXPECT_GT(buffered(s), 0u);
}

TEST(DelaySampler, BufferClearedAtMarker) {
  const ProtocolParams params = protocol();
  MonitoringCache s = make_sampler(params, 0.05);
  const auto trace = make_trace();
  feed_all(s, trace);
  // After the full trace, the buffer only holds packets after the last
  // marker — far fewer than one mean marker gap.
  EXPECT_LT(buffered(s), 3000u);
  EXPECT_GT(s.temp_buffer_peak_records(), 10u);
}

TEST(DelaySampler, AchievedRateTracksTarget) {
  const ProtocolParams params = protocol();
  const auto trace = make_trace(3, 50'000, 2.0);
  for (const double target : {0.01, 0.05, 0.10}) {
    MonitoringCache s = make_sampler(params, target);
    feed_all(s, trace);
    const auto samples = take_samples(s);
    const double achieved = static_cast<double>(samples.size()) /
                            static_cast<double>(trace.size());
    EXPECT_NEAR(achieved, target, target * 0.25 + 0.002) << target;
  }
}

TEST(DelaySampler, MinimumRateIsMarkerOnly) {
  const ProtocolParams params = protocol();
  MonitoringCache s = make_sampler(params, params.marker_rate);
  const auto trace = make_trace();
  feed_all(s, trace);
  for (const SampleRecord& r : take_samples(s)) {
    EXPECT_TRUE(r.is_marker);
  }
}

TEST(DelaySampler, RejectsInfeasibleTargets) {
  const ProtocolParams params = protocol();
  EXPECT_THROW((void)sample_threshold_for(params, params.marker_rate / 2),
               std::invalid_argument);
  EXPECT_THROW((void)sample_threshold_for(params, 1.5),
               std::invalid_argument);
}

// Property: sigma2 < sigma1 => samples(sigma1) subset of samples(sigma2),
// over several traces and threshold pairs (Section 5.2's key claim).
class SamplerSubsetProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double,
                                                 double>> {};

TEST_P(SamplerSubsetProperty, HigherRateSamplesSuperset) {
  const auto [seed, low_rate, high_rate] = GetParam();
  ASSERT_LT(low_rate, high_rate);
  const ProtocolParams params = protocol();
  const auto trace = make_trace(seed);

  MonitoringCache coarse = make_sampler(params, low_rate);
  MonitoringCache fine = make_sampler(params, high_rate);
  feed_all(coarse, trace);
  feed_all(fine, trace);

  const auto coarse_ids = ids_of(take_samples(coarse));
  const auto fine_ids = ids_of(take_samples(fine));
  EXPECT_TRUE(std::includes(fine_ids.begin(), fine_ids.end(),
                            coarse_ids.begin(), coarse_ids.end()))
      << "low-rate HOP sampled a packet the high-rate HOP missed";
  EXPECT_GT(fine_ids.size(), coarse_ids.size());
}

INSTANTIATE_TEST_SUITE_P(
    RatePairs, SamplerSubsetProperty,
    ::testing::Values(std::make_tuple(1ull, 0.01, 0.05),
                      std::make_tuple(2ull, 0.005, 0.01),
                      std::make_tuple(3ull, 0.02, 0.20),
                      std::make_tuple(4ull, 0.01, 0.02),
                      std::make_tuple(5ull, 0.05, 0.50)));

TEST(DelaySampler, IdenticalConfigSamplesIdentically) {
  // Two HOPs with the same sigma and no loss sample exactly the same set —
  // the premise of the delay computation in Section 4.
  const ProtocolParams params = protocol();
  const auto trace = make_trace(7);
  MonitoringCache a = make_sampler(params, 0.01);
  MonitoringCache b = make_sampler(params, 0.01);
  feed_all(a, trace);
  // b sees the same packets at shifted times (as a downstream HOP would).
  for (const Packet& p : trace) {
    b.observe(p, p.origin_time + net::milliseconds(3));
  }
  EXPECT_EQ(ids_of(take_samples(a)), ids_of(take_samples(b)));
}

TEST(DelaySampler, MarkerLossDesynchronisesOnlyOneRound) {
  // Drop exactly one marker from the downstream HOP's view: common samples
  // are lost only for that round (Section 5.3).
  const ProtocolParams params = protocol();
  const DigestEngine engine = params.make_engine();
  const auto trace = make_trace(11);

  // Find the 3rd marker.
  net::PacketDigest dropped_marker = 0;
  int markers = 0;
  for (const Packet& p : trace) {
    if (engine.marker_value(p) > params.marker_threshold()) {
      if (++markers == 3) {
        dropped_marker = engine.packet_id(p);
        break;
      }
    }
  }
  ASSERT_NE(dropped_marker, 0u);

  MonitoringCache up = make_sampler(params, 0.05);
  MonitoringCache down = make_sampler(params, 0.05);
  feed_all(up, trace);
  for (const Packet& p : trace) {
    if (engine.packet_id(p) == dropped_marker) continue;
    down.observe(p, p.origin_time);
  }
  const auto up_samples = take_samples(up);
  const auto down_ids = ids_of(take_samples(down));

  // Count upstream samples missing downstream: should be a small fraction
  // (about one round's worth out of ~100 rounds).
  std::size_t missing = 0;
  for (const SampleRecord& r : up_samples) {
    if (!down_ids.contains(r.pkt_id)) ++missing;
  }
  const double missing_frac =
      static_cast<double>(missing) / static_cast<double>(up_samples.size());
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing_frac, 0.05);
}

TEST(DelaySampler, TakeSamplesDrains) {
  const ProtocolParams params = protocol();
  MonitoringCache s = make_sampler(params, 0.05);
  feed_all(s, make_trace(13));
  EXPECT_FALSE(take_samples(s).empty());
  EXPECT_TRUE(take_samples(s).empty());
}

}  // namespace
}  // namespace vpm::core
