// Tests for receipt consistency checking (Section 4): the MaxDiff rules
// (Eq. 1-2), omission detection via disclosed thresholds, marker-loss
// exposure (§5.3), and aggregate count checks across a link.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/consistency.hpp"
#include "core/config.hpp"
#include "core/hop_monitor.hpp"
#include "core/incremental_verifier.hpp"
#include "core/verifier.hpp"
#include "helpers.hpp"
#include "loss/bernoulli.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

using test::feed;
using test::make_monitor;
using test::test_protocol;

struct LinkFixture {
  std::vector<net::Packet> trace;
  SampleReceipt up_samples;
  SampleReceipt down_samples;
  std::vector<AggregateReceipt> up_aggs;
  std::vector<AggregateReceipt> down_aggs;
};

/// Two HOPs facing each other across a link with `link_loss` and fixed
/// 50 us link delay; same tuning on both sides.
LinkFixture make_link(double sample_rate, loss::LossModel* link_loss,
                      std::uint64_t seed,
                      net::Duration max_diff = net::milliseconds(5)) {
  LinkFixture f;
  auto cfg = test::small_trace_config(seed);
  f.trace = trace::generate_trace(cfg);

  sim::PathEnvironment env;
  env.domains.resize(2);  // source domain + destination domain: 2 HOPs
  env.links.resize(1);
  env.links[0].loss = link_loss;
  env.seed = seed + 1;
  const sim::PathRunResult run = sim::run_path(f.trace, env);

  const core::ProtocolParams protocol = test_protocol();
  core::HopTuning tuning;
  tuning.sample_rate = sample_rate;
  tuning.cut_rate = 1e-3;

  auto up = make_monitor(protocol, tuning, net::kNoHop, 6, max_diff);
  auto down = make_monitor(protocol, tuning, 5, net::kNoHop, max_diff);
  feed(up, f.trace, run.hop_observations[0]);
  feed(down, f.trace, run.hop_observations[1]);
  f.up_samples = up.collect_samples();
  f.down_samples = down.collect_samples();
  f.up_aggs = up.collect_aggregates(true);
  f.down_aggs = down.collect_aggregates(true);
  return f;
}

TEST(LinkSamples, HonestLinkIsConsistent) {
  LinkFixture f = make_link(0.05, nullptr, 1);
  const LinkSampleCheck check =
      check_link_samples(f.up_samples, f.down_samples);
  EXPECT_TRUE(check.consistent());
  EXPECT_GT(check.rounds_matched, 10u);
  EXPECT_GT(check.common_samples, 100u);
  // Link residence times hover at the 50 us link delay.
  for (const double ms : check.link_delays_ms) {
    EXPECT_NEAR(ms, 0.05, 0.01);
  }
}

TEST(LinkSamples, MaxDiffMismatchFlagged) {
  LinkFixture f = make_link(0.05, nullptr, 2);
  f.down_samples.path.max_diff = net::milliseconds(50);
  const LinkSampleCheck check =
      check_link_samples(f.up_samples, f.down_samples);
  ASSERT_FALSE(check.consistent());
  EXPECT_EQ(check.violations.front().kind,
            InconsistencyKind::kMaxDiffMismatch);
}

TEST(LinkSamples, DelayBoundViolationFlagged) {
  // Shrink MaxDiff below the link delay: every common sample violates
  // Eq. 2 (equivalently, a liar shaving timestamps trips the same check).
  LinkFixture f = make_link(0.05, nullptr, 3, net::microseconds(10));
  const LinkSampleCheck check =
      check_link_samples(f.up_samples, f.down_samples);
  ASSERT_FALSE(check.consistent());
  std::size_t delay_violations = 0;
  for (const Inconsistency& v : check.violations) {
    if (v.kind == InconsistencyKind::kDelayBound) {
      ++delay_violations;
      EXPECT_GT(v.magnitude, 0.0);
    }
  }
  EXPECT_EQ(delay_violations, check.common_samples);
}

TEST(LinkSamples, LinkLossShowsAsMissingDownstreamOrMarkers) {
  loss::BernoulliLoss loss(0.1, 77);
  LinkFixture f = make_link(0.05, &loss, 4);
  const LinkSampleCheck check =
      check_link_samples(f.up_samples, f.down_samples);
  // A lossy link is NOT consistent — that is the paper's point: the
  // neighbours are notified and must debug the link.
  ASSERT_FALSE(check.consistent());
  std::size_t missing = 0;
  std::size_t markers = 0;
  for (const Inconsistency& v : check.violations) {
    if (v.kind == InconsistencyKind::kMissingDownstream) ++missing;
    if (v.kind == InconsistencyKind::kMarkerMissing) ++markers;
  }
  EXPECT_GT(missing + markers, 0u);
  // Roughly 10% of upstream samples should be implicated.
  const double frac =
      static_cast<double>(missing + markers) /
      static_cast<double>(f.up_samples.samples.size());
  EXPECT_NEAR(frac, 0.1, 0.05);
}

TEST(LinkSamples, FabricatedDownstreamRecordFlaggedAsMissingUpstream) {
  LinkFixture f = make_link(0.05, nullptr, 5);
  // Invent a record downstream inside an existing round, with an id the
  // upstream HOP "should" have sampled.  Find a real round's marker and
  // craft an id passing the upstream sigma check.
  net::PacketDigest marker_id = 0;
  std::size_t marker_pos = 0;
  for (std::size_t i = 0; i < f.down_samples.samples.size(); ++i) {
    if (f.down_samples.samples[i].is_marker) {
      marker_id = f.down_samples.samples[i].pkt_id;
      marker_pos = i;
      break;
    }
  }
  ASSERT_NE(marker_id, 0u);
  net::PacketDigest fake_id = 424242;
  while (net::DigestEngine::sample_value(fake_id, marker_id) <=
         f.up_samples.sample_threshold) {
    ++fake_id;
  }
  SampleRecord fake{fake_id,
                    f.down_samples.samples[marker_pos].time -
                        net::microseconds(1),
                    false};
  f.down_samples.samples.insert(
      f.down_samples.samples.begin() +
          static_cast<std::ptrdiff_t>(marker_pos),
      fake);

  const LinkSampleCheck check =
      check_link_samples(f.up_samples, f.down_samples);
  ASSERT_FALSE(check.consistent());
  bool found = false;
  for (const Inconsistency& v : check.violations) {
    if (v.kind == InconsistencyKind::kMissingUpstream &&
        v.pkt_id == fake_id) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LinkSamples, DownstreamLowerRateIsNotAViolation) {
  // Downstream samples at 1%, upstream at 5%: most upstream samples are
  // legitimately absent downstream; the subset property means no
  // violations are raised (downstream's sigma says "not my job").
  auto cfg = test::small_trace_config(6);
  const auto trace = trace::generate_trace(cfg);
  sim::PathEnvironment env;
  env.domains.resize(2);
  env.links.resize(1);
  env.seed = 7;
  const sim::PathRunResult run = sim::run_path(trace, env);

  const core::ProtocolParams protocol = test_protocol();
  core::HopTuning up_tuning{.sample_rate = 0.05, .cut_rate = 1e-3};
  core::HopTuning down_tuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  auto up = make_monitor(protocol, up_tuning, net::kNoHop, 6);
  auto down = make_monitor(protocol, down_tuning, 5, net::kNoHop);
  feed(up, trace, run.hop_observations[0]);
  feed(down, trace, run.hop_observations[1]);

  const LinkSampleCheck check =
      check_link_samples(up.collect_samples(), down.collect_samples());
  EXPECT_TRUE(check.consistent());
  EXPECT_GT(check.common_samples, 0u);
}

// A hand-built round pair whose records are out of id order and repeat
// an id upstream: the check walks each round in ascending id order and
// checks the repeated id against its first record, and the round-fed
// verifier reports exactly what the batch check does.
TEST(LinkSamples, RoundRecordsCheckInAscendingIdOrder) {
  const auto at = [](double ms) {
    return net::Timestamp{static_cast<std::int64_t>(ms * 1e6)};
  };
  constexpr net::PacketDigest kMarker = 99;
  SampleReceipt up;
  up.path.max_diff = net::milliseconds(5);
  up.samples = {{30, at(0), false}, {10, at(1), false}, {20, at(2), false},
                {10, at(3), false}, {50, at(4), false}, {kMarker, at(5), true}};
  SampleReceipt down;
  down.path.max_diff = net::milliseconds(5);
  down.samples = {{20, at(2.5), false}, {40, at(3.5), false},
                  {10, at(7), false},   {30, at(8), false},
                  {kMarker, at(9), true}};
  // Zero sigmas: each side should have sampled every packet the other did.
  ASSERT_GT(net::DigestEngine::sample_value(50, kMarker), 0u);
  ASSERT_GT(net::DigestEngine::sample_value(40, kMarker), 0u);

  const LinkSampleCheck check = check_link_samples(up, down);
  EXPECT_EQ(check.rounds_matched, 1u);
  EXPECT_EQ(check.common_samples, 4u);
  // The marker, then ids 10, 20, 30.  Id 10 pairs with its first upstream
  // record (1 ms), not its repeat (3 ms, which would be 4 ms and in
  // bound).
  EXPECT_EQ(check.link_delays_ms, (std::vector<double>{4.0, 6.0, 0.5, 8.0}));
  EXPECT_EQ(check.violations,
            (std::vector<Inconsistency>{
                {InconsistencyKind::kDelayBound, 10, 1.0},
                {InconsistencyKind::kDelayBound, 30, 3.0},
                {InconsistencyKind::kMissingDownstream, 50, 0.0},
                {InconsistencyKind::kMissingUpstream, 40, 0.0}}));

  const PathLayout layout{.hops = {1, 2}, .domain_of = {"a", "b"}};
  IncrementalPathVerifier incremental(
      IncrementalPathVerifier::Config{.layout = layout});
  PathVerifier reference;
  for (const auto& [hop, samples] : {std::pair{net::HopId{1}, up},
                                     std::pair{net::HopId{2}, down}}) {
    PathDrain d;
    d.samples = samples;
    reference.add_round(hop, d);
    incremental.add_round(hop, std::move(d));
  }
  const PathAnalysis live = incremental.analyze();
  ASSERT_EQ(live.links.size(), 1u);
  EXPECT_EQ(live.links[0].report.samples, check);
  EXPECT_EQ(live.links[0], reference.analyze(layout).links.at(0));
}

TEST(LinkAggregates, HonestLinkCountsMatch) {
  LinkFixture f = make_link(0.02, nullptr, 8);
  const LinkAggregateCheck check =
      check_link_aggregates(f.up_aggs, f.down_aggs);
  EXPECT_TRUE(check.consistent());
  EXPECT_GT(check.aggregates_checked, 5u);
}

TEST(LinkAggregates, LossyLinkFlagsCountMismatch) {
  loss::BernoulliLoss loss(0.05, 13);
  LinkFixture f = make_link(0.02, &loss, 9);
  const LinkAggregateCheck check =
      check_link_aggregates(f.up_aggs, f.down_aggs);
  ASSERT_FALSE(check.consistent());
  for (const Inconsistency& v : check.violations) {
    EXPECT_EQ(v.kind, InconsistencyKind::kCountMismatch);
    EXPECT_GT(v.magnitude, 0.0);
  }
}

TEST(LinkAggregates, InflatedDownstreamCountFlagsNegativeLoss) {
  LinkFixture f = make_link(0.02, nullptr, 10);
  ASSERT_FALSE(f.down_aggs.empty());
  f.down_aggs.front().packet_count += 5;  // claims packets from nowhere
  const LinkAggregateCheck check =
      check_link_aggregates(f.up_aggs, f.down_aggs);
  ASSERT_FALSE(check.consistent());
  EXPECT_EQ(check.violations.front().kind,
            InconsistencyKind::kNegativeLoss);
}

TEST(ConsistencyToString, CoversAllKinds) {
  for (const auto kind :
       {InconsistencyKind::kMaxDiffMismatch, InconsistencyKind::kDelayBound,
        InconsistencyKind::kMissingDownstream,
        InconsistencyKind::kMissingUpstream,
        InconsistencyKind::kMarkerMissing, InconsistencyKind::kCountMismatch,
        InconsistencyKind::kNegativeLoss}) {
    EXPECT_FALSE(to_string(kind).empty());
    EXPECT_NE(to_string(kind), "unknown");
  }
}

}  // namespace
}  // namespace vpm::core
