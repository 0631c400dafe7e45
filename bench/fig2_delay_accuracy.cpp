// FIG2 — reproduces Figure 2: "The accuracy with which domain X's delay
// performance is estimated as a function of X's sampling rate, for
// different levels of loss, when X uses our sampling algorithm.
// Congestion is caused by a bursty, high-rate UDP flow."
//
// Methodology (paper §7.2): a 100 kpps packet sequence is sent through
// congested domain X; loss inside X follows Gilbert-Elliott; X's HOPs run
// the delay sampler; a verifier estimates X's delay quantiles from the
// commonly sampled packets and is scored against the true delay
// distribution.  The y-axis is worst-case quantile error in msec.
#include <array>
#include <cstdio>
#include <vector>

#include "core/verifier.hpp"
#include "experiment.hpp"
#include "stats/delay_accuracy.hpp"
#include "stats/summary.hpp"

namespace {

using namespace vpm;

struct Cell {
  double accuracy_ms = 0.0;
  double ci_ms = 0.0;
  std::size_t samples = 0;
};

// Quantile grid for the Fig.-2 score: the paper's statements are of the
// form "delay below X to 90% of traffic" (§2.2); p99 of this bursty
// distribution sits on a near-vertical CDF segment where value-space
// error is meaningless, so the score covers p50..p95.
constexpr std::array<double, 4> kFig2Quantiles = {0.50, 0.75, 0.90, 0.95};

Cell run_cell(double sample_rate, double loss_rate, std::uint64_t seed) {
  bench::XDomainConfig cfg;
  cfg.loss_rate = loss_rate;
  cfg.seed = seed;
  const bench::XDomainScenario s = bench::make_x_scenario(cfg);

  const auto protocol = bench::bench_protocol();
  core::HopTuning tuning;
  tuning.sample_rate = sample_rate;
  tuning.cut_rate = 1e-5;

  core::PathVerifier verifier;
  verifier.add_round(2, bench::collect_hop(s.trace, s.run.hop_observations[1],
                                           1, 3, protocol, tuning));
  verifier.add_round(3, bench::collect_hop(s.trace, s.run.hop_observations[2],
                                           2, 4, protocol, tuning));

  const core::DomainDelayReport delay = verifier.domain_delay(2, 3);
  if (!delay.usable()) return Cell{};
  const stats::DelayAccuracyReport report = stats::score_delay_estimate(
      s.true_x_delays_ms, delay.sample_delays_ms, 0.95, kFig2Quantiles);
  return Cell{.accuracy_ms = report.worst_abs_error,
              .ci_ms = report.worst_ci_half_width,
              .samples = report.samples_used};
}

}  // namespace

int main() {
  const std::vector<double> sampling_rates = {0.05, 0.01, 0.005, 0.001};
  const std::vector<double> loss_rates = {0.0, 0.10, 0.25, 0.50};
  constexpr int kTrials = 5;

  std::printf("FIG2: delay-estimation accuracy [msec] vs sampling rate\n");
  std::printf(
      "Setup: 100 kpps x 10 s sequence through congested X (bursty UDP\n"
      "cross-traffic), Gilbert-Elliott loss inside X, %d trials/cell.\n\n",
      kTrials);
  std::printf("Paper (Fig. 2, approximate read-off):\n");
  std::printf("  rate%%   no-loss  10%%loss  25%%loss  50%%loss\n");
  std::printf("  5.0       ~0.1     ~0.3     ~0.5     ~1.0\n");
  std::printf("  1.0       ~0.3     ~0.8     ~2.0     ~2.5\n");
  std::printf("  0.5       ~0.4     ~1.2     ~2.5     ~3.5\n");
  std::printf("  0.1       ~0.9     ~2.0     ~3.5     ~5.5\n\n");

  std::printf("Measured (worst |estimated - true| over quantiles "
              "{.5,.75,.9,.95}):\n");
  std::printf("%7s %10s %10s %10s %10s\n", "rate%", "no-loss", "10%loss",
              "25%loss", "50%loss");
  vpm::bench::rule(52);
  for (const double rate : sampling_rates) {
    std::printf("%7.2f", rate * 100.0);
    for (const double loss : loss_rates) {
      stats::OnlineSummary acc;
      for (int t = 0; t < kTrials; ++t) {
        const Cell c =
            run_cell(rate, loss, 1000 + static_cast<std::uint64_t>(t));
        acc.add(c.accuracy_ms);
      }
      std::printf(" %10.3f", acc.mean());
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape checks: accuracy degrades smoothly as the sampling rate\n"
      "drops and as loss rises; even 0.1%% sampling stays in the low\n"
      "single-digit msec range (sufficient for SLA verification, which\n"
      "promises delays of multiple tens of msec [1]).\n");
  return 0;
}
