// FIG3 — reproduces Figure 3: "The granularity at which domain X's loss
// performance is computed as a function of the loss rate introduced by X,
// when X uses our aggregation algorithm."
//
// Methodology (paper §7.2): X produces one aggregate per ~N packets tuned
// so an aggregate spans ~1 second of its sequence; loss inside X follows
// Gilbert-Elliott; the verifier joins X's ingress/egress aggregate
// receipts and reports the mean time span of one joined aggregate — the
// granularity at which loss is computable.
//
// Scale note: the paper uses 100 kpps with 100,000-packet aggregates (1 s
// nominal); we preserve the aggregate-duration ratio at 20 kpps with
// 20,000-packet aggregates so multiple trials stay fast.  Granularity in
// *seconds* is the invariant being measured.
#include <cstdio>
#include <vector>

#include "core/verifier.hpp"
#include "experiment.hpp"
#include "stats/summary.hpp"

namespace {

using namespace vpm;

struct Cell {
  double mean_granularity_s = 0.0;
  double max_granularity_s = 0.0;
  double measured_loss = 0.0;
};

Cell run_cell(double loss_rate, std::uint64_t seed) {
  bench::XDomainConfig cfg;
  cfg.packets_per_second = 20'000.0;
  cfg.duration_s = 60.0;
  cfg.loss_rate = loss_rate;
  cfg.congestion = sim::CongestionKind::kNone;  // delay is irrelevant here
  cfg.seed = seed;
  const bench::XDomainScenario s = bench::make_x_scenario(cfg);

  const auto protocol = bench::bench_protocol();
  core::HopTuning tuning;
  tuning.sample_rate = 0.01;
  tuning.cut_rate = 1.0 / 20'000.0;  // one aggregate per second of traffic

  core::PathVerifier verifier;
  verifier.add_round(2, bench::collect_hop(s.trace, s.run.hop_observations[1],
                                           1, 3, protocol, tuning));
  verifier.add_round(3, bench::collect_hop(s.trace, s.run.hop_observations[2],
                                           2, 4, protocol, tuning));

  const core::DomainLossReport loss = verifier.domain_loss(2, 3);
  return Cell{.mean_granularity_s = loss.mean_granularity_s,
              .max_granularity_s = loss.max_granularity_s,
              .measured_loss = loss.loss_rate()};
}

}  // namespace

int main() {
  const std::vector<double> loss_rates = {0.0,  0.05, 0.10, 0.15, 0.20,
                                          0.25, 0.30, 0.35, 0.40, 0.45,
                                          0.50};
  constexpr int kTrials = 3;

  std::printf("FIG3: loss-computation granularity [sec] vs loss rate\n");
  std::printf(
      "Setup: one aggregate per ~1 s of traffic, Gilbert-Elliott loss\n"
      "inside X, %d x 60 s trials per point.\n\n",
      kTrials);
  std::printf(
      "Paper (Fig. 3, approximate read-off): 1.2 s at 0%% loss, ~1.5 s at\n"
      "25%%, ~2.4-2.6 s at 50%% — a smooth rise, because granularity only\n"
      "coarsens when a cutting packet itself is lost (survival ~ 1/(1-p)).\n\n");

  std::printf("%8s %14s %14s %14s %14s\n", "loss%", "mean-gran[s]",
              "max-gran[s]", "1/(1-p)[s]", "loss-check");
  vpm::bench::rule(70);
  for (const double loss : loss_rates) {
    stats::OnlineSummary mean_g;
    stats::OnlineSummary max_g;
    stats::OnlineSummary measured;
    for (int t = 0; t < kTrials; ++t) {
      const Cell c = run_cell(loss, 2000 + static_cast<std::uint64_t>(t));
      mean_g.add(c.mean_granularity_s);
      max_g.add(c.max_granularity_s);
      measured.add(c.measured_loss);
    }
    std::printf("%8.0f %14.2f %14.2f %14.2f %13.1f%%\n", loss * 100.0,
                mean_g.mean(), max_g.mean(),
                loss < 1.0 ? 1.0 / (1.0 - loss) : 0.0,
                measured.mean() * 100.0);
  }
  std::printf(
      "\nShape checks: granularity rises smoothly with loss and stays\n"
      "within ~2x of the 1 s aggregate duration even at 50%% loss —\n"
      "far finer than monthly SLA loss terms require (§6.3).\n"
      "'loss-check' is the loss the verifier computed from receipts; it\n"
      "must track the injected rate (exactness of the loss computation).\n");
  return 0;
}
