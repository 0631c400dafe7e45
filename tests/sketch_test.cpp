// Tests for the §3.5 extension: content sketches that detect in-flight
// traffic modification on top of the aggregation component.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/config.hpp"
#include "helpers.hpp"
#include "sketch/content_sketch.hpp"
#include "sketch/sketch_aggregator.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sketch {
namespace {

TEST(ContentSketch, IdenticalStreamsGiveZeroDifference) {
  ContentSketch a(64);
  ContentSketch b(64);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const auto id = static_cast<net::PacketDigest>(rng());
    a.add(id);
    b.add(id);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.difference(b).squared_norm(), 0.0);
}

TEST(ContentSketch, OrderInvariant) {
  ContentSketch a(64);
  ContentSketch b(64);
  const std::vector<net::PacketDigest> ids = {5, 9, 1, 7, 3};
  for (const auto id : ids) a.add(id);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) b.add(*it);
  EXPECT_EQ(a, b);
}

TEST(ContentSketch, EstimatesSymmetricDifference) {
  // Expectation of the difference norm equals the number of differing
  // items; average over trials to beat the variance.
  std::mt19937_64 rng(2);
  constexpr int kDiffer = 40;
  double total = 0.0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    ContentSketch a(128);
    ContentSketch b(128);
    for (int i = 0; i < 5'000; ++i) {
      const auto id = static_cast<net::PacketDigest>(rng());
      a.add(id);
      b.add(id);
    }
    for (int i = 0; i < kDiffer; ++i) {
      a.add(static_cast<net::PacketDigest>(rng()));
    }
    total += a.difference(b).squared_norm();
  }
  EXPECT_NEAR(total / kTrials, kDiffer, kDiffer * 0.4);
}

TEST(ContentSketch, Validation) {
  EXPECT_THROW(ContentSketch{0}, std::invalid_argument);
  ContentSketch a(16);
  ContentSketch b(32);
  EXPECT_THROW((void)a.difference(b), std::invalid_argument);
}

TEST(ModificationCheck, LossAloneIsNotModification) {
  std::mt19937_64 rng(3);
  ContentSketch up(128);
  ContentSketch down(128);
  std::uint64_t up_n = 0;
  std::uint64_t down_n = 0;
  std::bernoulli_distribution dropped(0.1);
  for (int i = 0; i < 20'000; ++i) {
    const auto id = static_cast<net::PacketDigest>(rng());
    up.add(id);
    ++up_n;
    if (!dropped(rng)) {
      down.add(id);
      ++down_n;
    }
  }
  const ModificationCheck check =
      check_modification(up, up_n, down, down_n, /*tolerance=*/16.0);
  EXPECT_FALSE(check.modification_suspected)
      << "modified estimate " << check.modified_estimate;
  // The symmetric difference itself matches the loss.
  EXPECT_NEAR(check.symmetric_difference,
              static_cast<double>(up_n - down_n),
              0.3 * static_cast<double>(up_n - down_n));
}

TEST(ModificationCheck, ModificationIsDetected) {
  std::mt19937_64 rng(4);
  ContentSketch up(128);
  ContentSketch down(128);
  constexpr int kModified = 100;
  for (int i = 0; i < 20'000; ++i) {
    const auto id = static_cast<net::PacketDigest>(rng());
    up.add(id);
    // The first kModified packets get rewritten in flight: their digests
    // change, counts stay identical.
    down.add(i < kModified ? static_cast<net::PacketDigest>(rng()) : id);
  }
  const ModificationCheck check =
      check_modification(up, 20'000, down, 20'000, 16.0);
  EXPECT_TRUE(check.modification_suspected);
  EXPECT_NEAR(check.modified_estimate, kModified, kModified * 0.5);
}

// ---------------------------------------------------- SketchAggregator

std::vector<net::Packet> make_trace(std::uint64_t seed) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = 20'000;
  cfg.duration = net::seconds(2);
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

std::vector<SketchReceipt> run_sketches(const std::vector<net::Packet>& pkts,
                                        const net::DigestEngine& engine,
                                        std::uint32_t cut_threshold) {
  SketchAggregator agg(engine, cut_threshold, 64);
  for (const auto& p : pkts) agg.observe(p);
  auto out = agg.take_closed();
  if (auto last = agg.flush_open(); last.has_value()) {
    out.push_back(std::move(*last));
  }
  return out;
}

TEST(SketchAggregator, BoundariesMatchCoreAggregator) {
  const auto trace = make_trace(5);
  const net::DigestEngine engine;
  const std::uint32_t threshold = core::cut_threshold_for(1e-3);
  const auto sketches = run_sketches(trace, engine, threshold);

  core::ProtocolParams protocol;
  protocol.reorder_window_j = net::Duration{0};
  auto monitor = test::make_monitor(
      protocol, core::HopTuning{.cut_rate = 1e-3}, net::kNoHop, net::kNoHop);
  for (const auto& p : trace) monitor.observe(p, p.origin_time);
  const auto core_closed =
      monitor.drain_path(0, /*flush_open=*/true).aggregates;
  ASSERT_EQ(sketches.size(), core_closed.size());
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    EXPECT_EQ(sketches[i].agg.first, core_closed[i].agg.first);
    EXPECT_EQ(sketches[i].packet_count, core_closed[i].packet_count);
  }
}

TEST(SketchAggregator, CleanPathReportsNoModification) {
  const auto trace = make_trace(7);
  const net::DigestEngine engine;
  const std::uint32_t threshold = core::cut_threshold_for(1e-3);
  const auto up = run_sketches(trace, engine, threshold);
  const auto down = run_sketches(trace, engine, threshold);
  const ModificationReport report = check_path_modification(up, down);
  EXPECT_GT(report.aggregates_checked, 5u);
  EXPECT_TRUE(report.clean());
}

TEST(SketchAggregator, InFlightPayloadRewriteIsCaught) {
  const auto trace = make_trace(9);
  std::vector<net::Packet> tampered = trace;
  // The middleman rewrites the payload of every 50th packet.
  std::size_t rewritten = 0;
  for (std::size_t i = 0; i < tampered.size(); i += 50) {
    tampered[i].payload_prefix ^= 0xDEADBEEFull;
    ++rewritten;
  }
  const net::DigestEngine engine;
  const std::uint32_t threshold = core::cut_threshold_for(1e-3);
  const auto up = run_sketches(trace, engine, threshold);
  const auto down = run_sketches(tampered, engine, threshold);
  const ModificationReport report = check_path_modification(up, down, 2.0);
  EXPECT_FALSE(report.clean());
  EXPECT_NEAR(report.total_modified_estimate,
              static_cast<double>(rewritten),
              static_cast<double>(rewritten) * 0.6);
}

TEST(SketchAggregator, CountLyingCannotHideFromSketch) {
  // An adversary matching PktCnt but not content: inflate the downstream
  // count claim while packets differ.  The count check alone passes; the
  // sketch check does not.
  const auto trace = make_trace(11);
  const net::DigestEngine engine;
  const std::uint32_t threshold = core::cut_threshold_for(1e-3);
  std::vector<net::Packet> substituted = trace;
  for (std::size_t i = 0; i < 200; ++i) {
    // +1 skips index 0: modifying an aggregate's opening packet changes
    // its AggId and the receipts pair differently (the join handles that
    // case; this test isolates the pure content-swap one).  The swapped
    // payload must also not flip the packet's cutting-point status, or the
    // two HOPs partition differently and counts diverge for that honest
    // reason instead — pick the first candidate payload that keeps the
    // packet on the same side of the cut threshold.
    net::Packet& victim = substituted[1 + i * 3];
    const bool was_cut = engine.cut_value(victim) > threshold;
    for (std::uint64_t candidate = i;; candidate += 1000) {
      victim.payload_prefix = candidate;
      if ((engine.cut_value(victim) > threshold) == was_cut) break;
    }
  }
  const auto up = run_sketches(trace, engine, threshold);
  const auto down = run_sketches(substituted, engine, threshold);
  for (std::size_t i = 0; i < up.size() && i < down.size(); ++i) {
    EXPECT_EQ(up[i].packet_count, down[i].packet_count);
  }
  EXPECT_FALSE(check_path_modification(up, down, 2.0).clean());
}

}  // namespace
}  // namespace vpm::sketch
