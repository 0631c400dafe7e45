// Integration tests: miniature versions of the paper's experiments wired
// end-to-end (trace -> simulator -> monitors -> serialized receipts ->
// verifier), asserting the headline properties the benches report.
#include <gtest/gtest.h>

#include <vector>

#include "core/receipt_batch.hpp"
#include "core/verifier.hpp"
#include "helpers.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "stats/delay_accuracy.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

struct MiniFig2 {
  double accuracy_ms = 0.0;
  std::size_t samples = 0;
};

MiniFig2 mini_fig2(double sample_rate, double loss_rate, std::uint64_t seed) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 50'000;
  tcfg.duration = net::seconds(5);
  tcfg.burst_multiplier = 1.2;
  tcfg.burst_fraction = 0.2;
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::CongestionConfig ccfg;
  ccfg.udp.peak_bps = 450e6;
  ccfg.udp.mean_on = net::milliseconds(30);
  ccfg.udp.mean_off = net::milliseconds(150);
  ccfg.seed = seed + 1;
  const auto congestion = sim::simulate_congestion(ccfg, trace);

  auto ge = loss::GilbertElliott::with_target_loss(loss_rate, 10.0, seed + 2);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = seed + 3;
  env.domains[1].delay_of = [&congestion](sim::PacketIndex i) {
    return congestion.outcomes[i].delay;
  };
  if (loss_rate > 0) env.domains[1].loss = &ge;
  const auto run = sim::run_path(trace, env);

  const auto protocol = test::test_protocol();
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = sample_rate, .cut_rate = 1e-4}};
  core::PathVerifier v = test::monitor_path(trace, run, protocol, tunings);

  const auto truth_pairs = sim::true_domain_delays_ms(run, env, 1);
  std::vector<double> truth;
  truth.reserve(truth_pairs.size());
  for (const auto& [pkt, ms] : truth_pairs) truth.push_back(ms);

  const auto delay = v.domain_delay(2, 3);
  if (!delay.usable()) return MiniFig2{};
  const double quantiles[] = {0.5, 0.75, 0.9, 0.95};
  const auto score = stats::score_delay_estimate(
      truth, delay.sample_delays_ms, 0.95, quantiles);
  return MiniFig2{.accuracy_ms = score.worst_abs_error,
                  .samples = delay.common_samples};
}

TEST(IntegrationFig2, AccuracySubMillisecondAtHighRateNoLoss) {
  const MiniFig2 r = mini_fig2(0.05, 0.0, 11);
  EXPECT_GT(r.samples, 5000u);
  EXPECT_LT(r.accuracy_ms, 1.0);
}

TEST(IntegrationFig2, AccuracyFewMsAtLowRateHighLoss) {
  // The paper's headline robustness claim: 1% sampling + 25% loss still
  // estimates delay within ~2 ms.
  const MiniFig2 r = mini_fig2(0.01, 0.25, 13);
  EXPECT_GT(r.samples, 300u);
  EXPECT_LT(r.accuracy_ms, 3.0);
}

TEST(IntegrationFig2, AccuracyDegradesWithLoss) {
  double acc_low = 0.0;
  double acc_high = 0.0;
  for (int t = 0; t < 3; ++t) {
    acc_low += mini_fig2(0.01, 0.0, 17 + static_cast<std::uint64_t>(t)).accuracy_ms;
    acc_high +=
        mini_fig2(0.01, 0.50, 17 + static_cast<std::uint64_t>(t)).accuracy_ms;
  }
  EXPECT_LT(acc_low, acc_high);
}

TEST(IntegrationFig3, GranularityGrowsWithLossLikeInverseSurvival) {
  auto granularity_at = [](double loss_rate, std::uint64_t seed) {
    trace::TraceConfig tcfg;
    tcfg.prefixes = trace::default_prefix_pair();
    tcfg.packets_per_second = 20'000;
    tcfg.duration = net::seconds(20);
    tcfg.seed = seed;
    const auto trace = trace::generate_trace(tcfg);
    auto ge =
        loss::GilbertElliott::with_target_loss(loss_rate, 10.0, seed + 1);
    sim::PathEnvironment env;
    env.domains.resize(3);
    env.links.resize(2);
    env.seed = seed + 2;
    if (loss_rate > 0) env.domains[1].loss = &ge;
    const auto run = sim::run_path(trace, env);
    const auto protocol = test::test_protocol();
    const core::HopTuning tunings[] = {core::HopTuning{
        .sample_rate = 0.01, .cut_rate = 1.0 / 20'000.0}};
    core::PathVerifier v = test::monitor_path(trace, run, protocol, tunings);
    return v.domain_loss(2, 3).mean_granularity_s;
  };
  // Average over seeds: one 20 s run yields only ~20 aggregates, so a
  // single draw of the cut-survival process is noisy.
  auto averaged = [&](double loss_rate) {
    double sum = 0.0;
    for (std::uint64_t s = 0; s < 4; ++s) {
      sum += granularity_at(loss_rate, 101 + 10 * s);
    }
    return sum / 4.0;
  };
  const double g0 = averaged(0.0);
  const double g25 = averaged(0.25);
  const double g50 = averaged(0.50);
  // ~1 s nominal; grows roughly like 1/(1-loss).
  EXPECT_NEAR(g0, 1.0, 0.5);
  EXPECT_GT(g25, g0);
  EXPECT_GT(g50, g25);
  EXPECT_LT(g50, 4.0);
}

TEST(IntegrationWire, ReceiptsSurviveSerializationEndToEnd) {
  // Full loop: monitors -> batch wire encode -> decode -> verifier; the
  // verdicts must be identical to the in-memory path.
  auto cfg = test::small_trace_config(211);
  const auto trace = trace::generate_trace(cfg);
  loss::GilbertElliott ge = loss::GilbertElliott::with_target_loss(0.1, 5, 7);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.domains[1].loss = &ge;
  env.seed = 212;
  const auto run = sim::run_path(trace, env);

  const auto protocol = test::test_protocol();
  const core::HopTuning tunings[] = {
      core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3}};
  core::PathVerifier direct =
      test::monitor_path(trace, run, protocol, tunings);

  // Re-monitor, shipping everything through the batch wire format.
  core::PathVerifier via_wire;
  for (std::size_t pos = 0; pos < run.hop_observations.size(); ++pos) {
    const auto hop_id = static_cast<net::HopId>(pos + 1);
    auto monitor = test::make_monitor(
        protocol, tunings[0], pos == 0 ? net::kNoHop : hop_id - 1,
        pos + 1 == run.hop_observations.size() ? net::kNoHop : hop_id + 1);
    test::feed(monitor, trace, run.hop_observations[pos]);
    const core::PathDrain drain = monitor.drain_path(0, true);
    const core::SampleReceipt& samples = drain.samples;

    net::ByteWriter wire;
    const core::RoundHeader header{
        .sample_threshold = samples.sample_threshold,
        .marker_threshold = samples.marker_threshold,
        .base = net::Timestamp{}};
    core::encode_entry(core::size_entry(1, drain, header), drain, header,
                       wire);
    net::ByteReader reader(wire.view());
    core::PathDrain back =
        core::decode_entry(core::read_item(reader), samples.path, header);
    ASSERT_TRUE(reader.done());
    via_wire.add_round(hop_id, std::move(back));
  }

  const auto direct_loss = direct.domain_loss(2, 3);
  const auto wire_loss = via_wire.domain_loss(2, 3);
  EXPECT_EQ(direct_loss.offered, wire_loss.offered);
  EXPECT_EQ(direct_loss.delivered, wire_loss.delivered);

  const auto direct_delay = direct.domain_delay(2, 3);
  const auto wire_delay = via_wire.domain_delay(2, 3);
  EXPECT_EQ(direct_delay.common_samples, wire_delay.common_samples);
  ASSERT_TRUE(wire_delay.usable());
  // Wire timestamps quantise to 1 us; quantiles agree to that precision.
  for (std::size_t i = 0; i < direct_delay.quantiles.size(); ++i) {
    EXPECT_NEAR(wire_delay.quantiles[i].value,
                direct_delay.quantiles[i].value, 0.002);
  }

  const auto link = via_wire.check_link(3, 4);
  EXPECT_TRUE(link.consistent());
}

TEST(IntegrationPartialDeployment, LoneDeployerStillProducesVerifiableData) {
  // Section 8: X deploys alone; its receipts exist and are well-formed,
  // and once neighbours deploy later, the same receipts check out.
  auto cfg = test::small_trace_config(301);
  const auto trace = trace::generate_trace(cfg);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = 302;
  const auto run = sim::run_path(trace, env);
  const auto protocol = test::test_protocol();
  const core::HopTuning tuning{.sample_rate = 0.02, .cut_rate = 1e-3};

  core::PathVerifier v;
  for (const std::size_t pos : {1u, 2u}) {  // only X's two HOPs
    auto monitor = test::make_monitor(protocol, tuning,
                                      static_cast<net::HopId>(pos),
                                      static_cast<net::HopId>(pos + 2));
    test::feed(monitor, trace, run.hop_observations[pos]);
    v.add_round(static_cast<net::HopId>(pos + 1),
                monitor.drain_path(0, /*flush_open=*/true));
  }
  const auto loss = v.domain_loss(2, 3);
  EXPECT_EQ(loss.offered, loss.delivered);
  const auto delay = v.domain_delay(2, 3);
  EXPECT_TRUE(delay.usable());
}

}  // namespace
}  // namespace vpm
