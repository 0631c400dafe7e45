// End-to-end verifier tests over the Figure-1 topology: S-L-X-N-D with
// HOPs 1..8, receipts produced by real monitors over simulated traffic,
// analysed purely from receipts.
#include <gtest/gtest.h>

#include <vector>

#include "core/verifier.hpp"
#include "helpers.hpp"
#include "loss/bernoulli.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/topology.hpp"
#include "stats/quantile.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

using test::figure_one_layout;
using test::monitor_path;
using test::test_protocol;

struct Scenario {
  std::vector<net::Packet> trace;
  sim::PathRunResult run;
  sim::PathEnvironment env;
};

Scenario run_figure_one(loss::LossModel* x_loss, net::Duration x_delay,
                        net::Duration x_jitter, std::uint64_t seed) {
  Scenario s;
  auto cfg = test::small_trace_config(seed);
  s.trace = trace::generate_trace(cfg);
  const sim::PathTopology topo = sim::PathTopology::figure_one();
  s.env = topo.make_environment(seed + 1);
  s.env.domains[2].loss = x_loss;  // X is domain index 2
  s.env.domains[2].delay_of = [x_delay](sim::PacketIndex) { return x_delay; };
  s.env.domains[2].jitter = x_jitter;
  s.run = sim::run_path(s.trace, s.env);
  return s;
}

TEST(PathVerifier, HonestPathFullyConsistent) {
  Scenario s = run_figure_one(nullptr, net::milliseconds(2),
                              net::Duration{0}, 31);
  const core::HopTuning tuning{.sample_rate = 0.05, .cut_rate = 1e-3};
  const core::HopTuning tunings[] = {tuning};
  PathVerifier v = monitor_path(s.trace, s.run, test_protocol(), tunings);

  const PathAnalysis analysis = v.analyze(figure_one_layout());
  EXPECT_EQ(analysis.domains.size(), 3u);  // L, X, N
  EXPECT_EQ(analysis.links.size(), 4u);    // S-L, L-X, X-N, N-D
  EXPECT_TRUE(analysis.all_links_consistent());
  for (const DomainFinding& d : analysis.domains) {
    EXPECT_EQ(d.loss.offered, d.loss.delivered) << d.domain;
  }
}

TEST(PathVerifier, EstimatesConstantDomainDelayAccurately) {
  Scenario s = run_figure_one(nullptr, net::milliseconds(7),
                              net::Duration{0}, 37);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3}};
  PathVerifier v = monitor_path(s.trace, s.run, test_protocol(), tunings);

  const DomainDelayReport delay = v.domain_delay(4, 5);
  ASSERT_TRUE(delay.usable());
  EXPECT_GT(delay.common_samples, 500u);
  for (const stats::QuantileEstimate& q : delay.quantiles) {
    EXPECT_NEAR(q.value, 7.0, 0.05) << "quantile " << q.quantile;
  }
}

TEST(PathVerifier, ComputesExactLossFromReceipts) {
  loss::BernoulliLoss x_loss(0.08, 41);
  Scenario s = run_figure_one(&x_loss, net::milliseconds(1),
                              net::Duration{0}, 43);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3}};
  PathVerifier v = monitor_path(s.trace, s.run, test_protocol(), tunings);

  // Ground truth: X's ingress (hop pos 3) vs egress (hop pos 4) counts.
  const std::uint64_t offered = s.run.hop_observations[3].size();
  const std::uint64_t delivered = s.run.hop_observations[4].size();

  const DomainLossReport loss = v.domain_loss(4, 5);
  EXPECT_EQ(loss.offered, offered);
  EXPECT_EQ(loss.delivered, delivered);
  EXPECT_NEAR(loss.loss_rate(), 0.08, 0.02);
  EXPECT_GT(loss.joined_aggregates, 5u);

  // The other domains lost nothing.
  EXPECT_EQ(v.domain_loss(2, 3).offered, v.domain_loss(2, 3).delivered);
  EXPECT_EQ(v.domain_loss(6, 7).offered, v.domain_loss(6, 7).delivered);
}

TEST(PathVerifier, DelayQuantilesTrackTruthUnderJitter) {
  Scenario s = run_figure_one(nullptr, net::milliseconds(3),
                              net::microseconds(2000), 47);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3}};
  PathVerifier v = monitor_path(s.trace, s.run, test_protocol(), tunings);

  const auto truth = sim::true_domain_delays_ms(s.run, s.env, 2);
  std::vector<double> truth_ms;
  truth_ms.reserve(truth.size());
  for (const auto& [pkt, ms] : truth) truth_ms.push_back(ms);

  const DomainDelayReport delay = v.domain_delay(4, 5);
  ASSERT_TRUE(delay.usable());
  const auto report =
      stats::score_delay_estimate(truth_ms, delay.sample_delays_ms);
  EXPECT_LT(report.worst_abs_error, 0.2);  // ms
}

TEST(PathVerifier, DifferentNeighborRatesStillVerifiable) {
  // X samples at 5%, N at 1%: L can still verify X's delay from N's
  // receipts, just with fewer common samples (Section 7.2,
  // "Verifiability").
  Scenario s = run_figure_one(nullptr, net::milliseconds(2),
                              net::Duration{0}, 53);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3},  // odd hops
      core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3},  // even hops
  };
  PathVerifier v = monitor_path(s.trace, s.run, test_protocol(), tunings);
  const PathAnalysis analysis = v.analyze(figure_one_layout());
  EXPECT_TRUE(analysis.all_links_consistent());
  // Delay across X measured between hops with different rates: the common
  // sample count is governed by the lower rate.
  const DomainDelayReport d45 = v.domain_delay(4, 5);
  ASSERT_TRUE(d45.usable());
}

TEST(PathVerifier, PartialDeploymentYieldsEmptyFindings) {
  Scenario s = run_figure_one(nullptr, net::milliseconds(2),
                              net::Duration{0}, 59);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3}};
  // Only X's HOPs deploy VPM.
  PathVerifier v;
  const auto protocol = test_protocol();
  for (const std::size_t pos : {3u, 4u}) {
    auto monitor = test::make_monitor(protocol, tunings[0],
                                      static_cast<net::HopId>(pos),
                                      static_cast<net::HopId>(pos + 2));
    test::feed(monitor, s.trace, s.run.hop_observations[pos]);
    v.add_round(static_cast<net::HopId>(pos + 1),
                monitor.drain_path(0, /*flush_open=*/true));
  }
  const PathAnalysis analysis = v.analyze(figure_one_layout());
  // X's own performance is still *reportable* (its pair of HOPs deployed).
  bool found_x = false;
  for (const DomainFinding& d : analysis.domains) {
    if (d.domain == "X") {
      found_x = true;
      EXPECT_TRUE(d.delay.usable());
    } else {
      EXPECT_FALSE(d.delay.usable());
    }
  }
  EXPECT_TRUE(found_x);
}

TEST(PathVerifier, RejectsUnknownHops) {
  PathVerifier v;
  v.add_round(4, PathDrain{});
  EXPECT_THROW((void)v.domain_delay(4, 99), std::out_of_range);
  EXPECT_THROW((void)v.domain_loss(99, 4), std::out_of_range);
}

// add_round's contract: a HOP's reporting rounds verify exactly like one
// feed of their concatenated drain.  One-path caches drained every
// ~250 ms of each HOP's own clock, the last drain flushed, against the
// same run drained once per HOP.
TEST(PathVerifier, RoundsConcatenateToOneFeed) {
  loss::BernoulliLoss x_loss(0.1, 71);
  Scenario s = run_figure_one(&x_loss, net::milliseconds(2),
                              net::milliseconds(1), 71);
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3}};
  const auto protocol = test_protocol();
  const PathVerifier once = monitor_path(s.trace, s.run, protocol, tunings);

  PathVerifier by_round;
  const std::size_t hops = s.run.hop_observations.size();
  std::size_t rounds = 0;
  for (std::size_t pos = 0; pos < hops; ++pos) {
    const auto hop = static_cast<net::HopId>(pos + 1);
    auto monitor = test::make_monitor(
        protocol, tunings[0], pos == 0 ? net::kNoHop : hop - 1,
        pos + 1 == hops ? net::kNoHop : hop + 1);
    const sim::ObsSeq& obs = s.run.hop_observations[pos];
    ASSERT_FALSE(obs.empty());
    net::Timestamp round_end = obs.front().when + net::milliseconds(250);
    for (const sim::Obs& o : obs) {
      if (o.when >= round_end) {
        by_round.add_round(hop, monitor.drain_path(0));
        round_end += net::milliseconds(250);
        ++rounds;
      }
      monitor.observe(s.trace[o.pkt], o.when);
    }
    by_round.add_round(hop, monitor.drain_path(0, /*flush_open=*/true));
    ++rounds;
    EXPECT_EQ(monitor.unknown_path_packets(), 0u);
  }
  EXPECT_GE(rounds, 7 * hops);  // a 2 s trace: ~8 rounds per HOP

  const PathAnalysis expected = once.analyze(figure_one_layout());
  const PathAnalysis got = by_round.analyze(figure_one_layout());
  ASSERT_EQ(expected.domains.size(), 3u);
  EXPECT_GT(expected.domains[1].loss.offered,
            expected.domains[1].loss.delivered);  // X's loss shows
  EXPECT_EQ(got, expected);
}

TEST(PathVerifier, AnalyzeValidatesLayout) {
  PathVerifier v;
  PathLayout bad;
  bad.hops = {1, 2};
  bad.domain_of = {"A"};
  EXPECT_THROW((void)v.analyze(bad), std::invalid_argument);
}

}  // namespace
}  // namespace vpm::core
