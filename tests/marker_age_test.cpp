// Time-keyed marker rule (ProtocolParams::marker_max_age).
//
// The OVH-M temp buffer grows between markers; with digest-driven markers
// alone a low-rate path can go arbitrarily long without one, so at 100k
// paths the aggregate temp footprint is unbounded in time.  The rule makes
// a packet act as a marker whenever the OLDEST buffered record has aged
// past marker_max_age, bounding every path's buffer by
// (path packet rate x marker_max_age) — the J-window-style bound the
// roadmap promised.  This suite pins:
//
//   * the bound actually holds (peak records ~ age/spacing, not trace
//     length), and disappears when the rule is off;
//   * a forced marker is a REAL marker: the sweep emits buffered samples
//     and the forcing packet is recorded as a marker record;
//   * the batch fast path (chunked pipeline + sweep-imminent prefetch)
//     produces receipts equal to packet-at-a-time observe's with the
//     rule active;
//   * marker_max_age_us survives the scenario-config round trip.
#include <gtest/gtest.h>

#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "core/receipt.hpp"
#include "helpers.hpp"
#include "sim/scenario_config.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

using net::Packet;

/// Protocol where digest-driven markers are effectively never chosen, so
/// only the time-keyed rule can close a buffer.
core::ProtocolParams no_natural_markers() {
  core::ProtocolParams p;
  p.marker_rate = 1e-12;
  p.reorder_window_j = net::milliseconds(10);
  return p;
}

/// ~1 ms spaced single-path trace (spacing is Poisson around 1 ms).
std::vector<Packet> paced_trace(net::Duration duration, std::uint64_t seed) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = 1000.0;
  cfg.duration = duration;
  cfg.flow_count = 50;
  cfg.burst_multiplier = 1.0;  // plain Poisson: keep spacing near the mean
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

TEST(MarkerMaxAge, BoundsTempBufferPeak) {
  const auto trace = paced_trace(net::seconds(20), 3);
  ASSERT_GT(trace.size(), 15'000u);
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};

  collector::MonitoringCache::Config unbounded_cfg;
  unbounded_cfg.protocol = no_natural_markers();
  unbounded_cfg.tuning = core::HopTuning{.sample_rate = 0.5, .cut_rate = 1e-3};

  collector::MonitoringCache::Config bounded_cfg = unbounded_cfg;
  bounded_cfg.protocol.marker_max_age = net::milliseconds(50);

  collector::MonitoringCache unbounded(unbounded_cfg, paths);
  collector::MonitoringCache bounded(bounded_cfg, paths);
  unbounded.observe_batch(trace);
  bounded.observe_batch(trace);

  // Without the rule the buffer tracks the whole trace; with it the peak
  // is ~ age / spacing = 50 records (x4 slack for Poisson clumping).
  EXPECT_GT(unbounded.temp_buffer_peak_records(), trace.size() / 2);
  EXPECT_LE(bounded.temp_buffer_peak_records(), 200u);
  EXPECT_GE(bounded.temp_buffer_peak_records(), 10u);
}

TEST(MarkerMaxAge, ForcedMarkerSweepsAndRecordsMarker) {
  const auto trace = paced_trace(net::seconds(5), 11);
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};

  collector::MonitoringCache::Config cfg;
  cfg.protocol = no_natural_markers();
  cfg.protocol.marker_max_age = net::milliseconds(100);
  cfg.tuning = core::HopTuning{.sample_rate = 0.5, .cut_rate = 1e-3};

  collector::MonitoringCache cache(cfg, paths);
  cache.observe_batch(trace);

  // Natural markers are off; every emitted record below comes from the
  // time-keyed rule, so the sweep machinery demonstrably ran.
  const core::SampleReceipt receipt = cache.drain_path(0).samples;
  std::size_t markers = 0;
  std::size_t swept = 0;
  for (const core::SampleRecord& r : receipt.samples) {
    r.is_marker ? ++markers : ++swept;
  }
  // ~5 s / 100 ms forced sweeps, each also sampling ~half its buffer.
  EXPECT_GE(markers, 20u);
  EXPECT_GE(swept, markers);
}

TEST(MarkerMaxAge, BatchMatchesScalarObserve) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 32;
  mcfg.total_packets_per_second = 50'000;
  mcfg.duration = net::seconds(2);
  mcfg.seed = 29;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config cfg;
  cfg.protocol = test::test_protocol();
  cfg.protocol.marker_max_age = net::milliseconds(20);
  cfg.tuning = core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3};

  collector::MonitoringCache scalar(cfg, multi.paths);
  collector::MonitoringCache batch(cfg, multi.paths);
  for (const Packet& p : multi.packets) scalar.observe(p, p.origin_time);
  batch.observe_batch(multi.packets);

  EXPECT_EQ(scalar.temp_buffer_peak_records(),
            batch.temp_buffer_peak_records());
  for (std::size_t path = 0; path < multi.paths.size(); ++path) {
    ASSERT_EQ(scalar.drain_path(path, true), batch.drain_path(path, true))
        << "path " << path;
  }
}

TEST(MarkerMaxAge, ScenarioConfigRoundTrip) {
  sim::ScenarioConfig cfg;
  cfg.marker_max_age = net::milliseconds(1500);
  const std::string text = cfg.to_string();
  EXPECT_NE(text.find("marker_max_age_us=1500000"), std::string::npos) << text;
  const sim::ScenarioConfig back = sim::parse_scenario(text);
  EXPECT_EQ(back.marker_max_age, cfg.marker_max_age);
  EXPECT_EQ(back.to_string(), text);
}

}  // namespace
}  // namespace vpm
