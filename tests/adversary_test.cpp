// Adversary tests: every lying strategy from the threat model must be
// caught by the consistency machinery — and the collusion cascade must
// push the inconsistency to the liar's far edge, exposing it there
// (Section 3.1's exposure argument).
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "adversary/strategies.hpp"
#include "baseline/trajectory_sampling.hpp"
#include "core/consistency.hpp"
#include "core/sampler.hpp"
#include "core/verifier.hpp"
#include "helpers.hpp"
#include "loss/bernoulli.hpp"
#include "sim/topology.hpp"
#include "stats/quantile.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::adversary {
namespace {

using core::HopReceipts;
using core::InconsistencyKind;
using core::LinkReport;
using core::PathVerifier;
using test::figure_one_layout;
using test::test_protocol;

/// Figure-1 run where X drops `x_loss_rate` of its traffic; returns the
/// truthful receipts of all 8 HOPs.
struct FigOneRun {
  std::vector<net::Packet> trace;
  sim::PathRunResult run;
  std::vector<HopReceipts> receipts;  // index = hop position (hop id - 1)
};

FigOneRun honest_run(double x_loss_rate, std::uint64_t seed) {
  FigOneRun out;
  auto cfg = test::small_trace_config(seed);
  out.trace = trace::generate_trace(cfg);
  const sim::PathTopology topo = sim::PathTopology::figure_one();
  sim::PathEnvironment env = topo.make_environment(seed + 1);
  loss::BernoulliLoss x_loss(x_loss_rate, seed + 2);
  if (x_loss_rate > 0) env.domains[2].loss = &x_loss;
  env.domains[2].delay_of = [](sim::PacketIndex) {
    return net::milliseconds(2);
  };
  out.run = sim::run_path(out.trace, env);

  const auto protocol = test_protocol();
  const core::HopTuning tuning{.sample_rate = 0.05, .cut_rate = 1e-3};
  for (std::size_t pos = 0; pos < out.run.hop_observations.size(); ++pos) {
    auto monitor = test::make_monitor(
        protocol, tuning,
        pos == 0 ? net::kNoHop : static_cast<net::HopId>(pos),
        pos + 1 == out.run.hop_observations.size()
            ? net::kNoHop
            : static_cast<net::HopId>(pos + 2));
    test::feed(monitor, out.trace, out.run.hop_observations[pos]);
    HopReceipts r;
    r.hop = static_cast<net::HopId>(pos + 1);
    r.samples = monitor.collect_samples();
    r.aggregates = monitor.collect_aggregates(true);
    out.receipts.push_back(std::move(r));
  }
  return out;
}

PathVerifier verifier_with(const std::vector<HopReceipts>& receipts) {
  PathVerifier v;
  for (const HopReceipts& r : receipts) v.add_hop(r);
  return v;
}

TEST(Adversary, HidingLossMakesLinkInconsistent) {
  FigOneRun run = honest_run(0.10, 61);
  // X (hops 4,5) lies at its egress: claims it delivered everything.
  std::vector<HopReceipts> published = run.receipts;
  published[4].samples = hide_loss_samples(
      run.receipts[4].samples, run.receipts[3].samples, net::milliseconds(2));
  published[4].aggregates = hide_loss_aggregates(run.receipts[4].aggregates,
                                                 run.receipts[3].aggregates);

  PathVerifier v = verifier_with(published);
  const auto analysis = v.analyze(figure_one_layout());

  // X now *looks* lossless from its own receipts...
  const auto x_loss = v.domain_loss(4, 5);
  EXPECT_EQ(x_loss.offered, x_loss.delivered);
  // ...but the X->N link screams: N never received what X claims it sent.
  const LinkReport link = v.check_link(5, 6);
  ASSERT_FALSE(link.consistent());
  std::size_t missing = 0;
  for (const auto& viol : link.samples.violations) {
    if (viol.kind == InconsistencyKind::kMissingDownstream ||
        viol.kind == InconsistencyKind::kMarkerMissing) {
      ++missing;
    }
  }
  EXPECT_GT(missing, 0u);
  EXPECT_FALSE(link.aggregates.consistent());
  // Exposure: the X-N pair is implicated; all other links stay clean.
  for (const auto& l : analysis.links) {
    if (l.upstream_domain == "X" && l.downstream_domain == "N") {
      EXPECT_TRUE(l.implicates_pair());
    } else {
      EXPECT_FALSE(l.implicates_pair()) << l.upstream_domain << "->"
                                        << l.downstream_domain;
    }
  }
}

TEST(Adversary, UnderstatingDelayTripsMaxDiff) {
  FigOneRun run = honest_run(0.0, 67);
  std::vector<HopReceipts> published = run.receipts;
  // X shaves 10 ms off its egress timestamps (MaxDiff is 5 ms).
  published[4].samples =
      understate_delay(run.receipts[4].samples, net::milliseconds(10));

  PathVerifier v = verifier_with(published);
  const LinkReport link = v.check_link(5, 6);
  ASSERT_FALSE(link.samples.consistent());
  std::size_t delay_violations = 0;
  for (const auto& viol : link.samples.violations) {
    if (viol.kind == InconsistencyKind::kDelayBound) {
      ++delay_violations;
      EXPECT_NEAR(viol.magnitude, 5.0, 1.0);  // 10 ms shave - 5 ms MaxDiff
    }
  }
  EXPECT_GT(delay_violations, 0u);
}

TEST(Adversary, SmallShaveWithinMaxDiffIsUndetectableButBounded) {
  // Shaving less than MaxDiff - link_delay stays undetected — the paper's
  // implicit bound on delay lies.  Verify both sides of it.
  FigOneRun run = honest_run(0.0, 71);
  std::vector<HopReceipts> published = run.receipts;
  published[4].samples =
      understate_delay(run.receipts[4].samples, net::milliseconds(4));
  PathVerifier v = verifier_with(published);
  EXPECT_TRUE(v.check_link(5, 6).samples.consistent());
  // The lie's benefit is bounded by MaxDiff: X's estimated delay shrank by
  // only 4 ms.
  const auto delay = v.domain_delay(4, 5);
  ASSERT_TRUE(delay.usable());
  EXPECT_LT(delay.quantiles.front().value, 2.0);
}

TEST(Adversary, CollusionPushesInconsistencyDownstream) {
  FigOneRun run = honest_run(0.10, 73);
  std::vector<HopReceipts> published = run.receipts;
  // X lies at its egress...
  published[4].samples = hide_loss_samples(
      run.receipts[4].samples, run.receipts[3].samples, net::milliseconds(2));
  // ...and N covers at its ingress (hop 6), fabricating receptions.
  published[5].samples = cover_neighbor_samples(
      run.receipts[5].samples, published[4].samples, net::microseconds(50));

  PathVerifier v = verifier_with(published);
  // The X->N link now looks consistent: the cover-up worked locally...
  EXPECT_TRUE(v.check_link(5, 6).samples.consistent());
  // ...but N's own domain now shows the loss (it "received" packets that
  // never left it), so N absorbed X's blame.
  const auto n_loss_delay = v.domain_delay(6, 7);
  ASSERT_TRUE(n_loss_delay.usable());
  // Packets N claims to have received but never delivered: N's intra
  // -domain sample consistency breaks down — check via link N->D staying
  // clean while N's ingress has extra samples that die inside N.
  const auto n_ingress = published[5].samples.samples.size();
  const auto n_egress = published[6].samples.samples.size();
  EXPECT_GT(n_ingress, n_egress);
}

TEST(Adversary, BiasAttackFoolsTrajectorySamplingOnly) {
  // Setup: congested-ish delays (bimodal); the adversary prioritises
  // predictable samples.  Under TS++ it predicts everything; under VPM
  // only markers.
  auto cfg = test::small_trace_config(79);
  cfg.packets_per_second = 50'000;
  const auto trace = trace::generate_trace(cfg);

  // Honest delays: 10% of packets see a 20 ms spike, rest 1 ms.
  std::vector<net::Duration> honest(trace.size());
  std::mt19937_64 rng(81);
  std::bernoulli_distribution spike(0.10);
  for (auto& d : honest) {
    d = spike(rng) ? net::milliseconds(20) : net::milliseconds(1);
  }
  const double true_p95 = 20.0;

  const auto protocol = test_protocol();
  const net::DigestEngine engine = protocol.make_engine();
  const std::uint32_t ts_threshold = net::rate_to_threshold(0.02);

  auto estimated_p95 = [&](const SamplePredictor& predictable,
                           auto&& sampled_filter) {
    const auto biased =
        bias_delays(trace, honest, predictable, net::microseconds(100));
    stats::QuantileEstimator est;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (sampled_filter(trace[i])) {
        est.add(biased[i].milliseconds());
      }
    }
    return est.estimate(0.95).value;
  };

  // Trajectory Sampling ++: the sampled set IS the predictable set.
  baseline::TrajectorySampler ts(engine, ts_threshold);
  const double ts_p95 = estimated_p95(
      trajectory_predictor(engine, ts_threshold),
      [&](const net::Packet& p) { return ts.would_sample(p); });

  // VPM: the adversary can only predict markers; the sampled set is
  // decided by future traffic.  Approximate the sampled set by running the
  // real sampler.
  core::DelaySampler sampler(engine, protocol.marker_threshold(),
                             core::sample_threshold_for(protocol, 0.02));
  std::unordered_set<net::PacketDigest> sampled_ids;
  for (const auto& p : trace) sampler.observe(p, p.origin_time);
  for (const auto& s : sampler.take_samples()) sampled_ids.insert(s.pkt_id);
  const double vpm_p95 = estimated_p95(
      vpm_marker_predictor(engine, protocol.marker_threshold()),
      [&](const net::Packet& p) {
        return sampled_ids.contains(engine.packet_id(p));
      });

  // TS++ is fully fooled: estimated p95 collapses to the preferred delay.
  EXPECT_LT(ts_p95, 1.0);
  // VPM's estimate stays near the truth (markers are a small minority).
  EXPECT_GT(vpm_p95, 0.8 * true_p95);
}

TEST(Adversary, BiasDelaysOnlyLowersPredictablePackets) {
  auto cfg = test::small_trace_config(83);
  cfg.duration = net::milliseconds(200);
  const auto trace = trace::generate_trace(cfg);
  std::vector<net::Duration> honest(trace.size(), net::milliseconds(5));
  const auto protocol = test_protocol();
  const net::DigestEngine engine = protocol.make_engine();
  const auto predictor =
      vpm_marker_predictor(engine, protocol.marker_threshold());
  const auto biased =
      bias_delays(trace, honest, predictor, net::milliseconds(1));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (predictor(trace[i])) {
      EXPECT_EQ(biased[i], net::milliseconds(1));
    } else {
      EXPECT_EQ(biased[i], net::milliseconds(5));
    }
  }
}

}  // namespace
}  // namespace vpm::adversary
