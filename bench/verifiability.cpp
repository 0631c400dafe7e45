// VERIF — reproduces the Section 7.2 "Verifiability" numbers: domain L
// wants to *verify* (not merely read) X's delay performance, using
// receipts from X's neighbours.  The paper's example: X samples at 1% and
// loses 25% of its traffic; if N samples at 1%, L verifies X's delay with
// ~2 ms accuracy, but if N samples at 0.1%, only ~5 ms.
//
// Verification here means estimating X's delay WITHOUT trusting X's own
// receipts: L brackets X between its own egress HOP (3) and N's ingress
// HOP (6); the delay across that bracket equals X's delay plus two
// (bounded, MaxDiff-checked) link crossings, and the common-sample count
// is governed by the lower of the two sampling rates.
#include <array>
#include <cstdio>
#include <vector>

#include "core/verifier.hpp"
#include "experiment.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/topology.hpp"
#include "stats/delay_accuracy.hpp"
#include "stats/summary.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

constexpr std::array<double, 4> kVerifQuantiles = {0.50, 0.75, 0.90, 0.95};

struct Outcome {
  double estimation_ms = 0.0;   // from X's own receipts (hops 4,5)
  double verification_ms = 0.0; // from L's + N's receipts (hops 3,6)
  std::size_t verification_samples = 0;
};

Outcome run_trial(double x_rate, double neighbor_rate, double loss,
                  std::uint64_t seed) {
  // Full Figure-1 path so hops 3 and 6 exist.
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 100'000;
  tcfg.duration = net::seconds(10);
  tcfg.burst_multiplier = 1.2;
  tcfg.burst_fraction = 0.2;
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::CongestionConfig ccfg;
  // Same congestion scale as the Fig.-2 bench: spikes in the 0-15 ms band.
  ccfg.udp = sim::UdpOnOffFlow::Config{.peak_bps = 400e6,
                                       .packet_bytes = 1400,
                                       .mean_on = net::milliseconds(30),
                                       .mean_off = net::milliseconds(150),
                                       .seed = 1};
  ccfg.seed = seed + 7;
  const sim::CongestionResult congestion =
      sim::simulate_congestion(ccfg, trace);

  const sim::PathTopology topo = sim::PathTopology::figure_one();
  sim::PathEnvironment env = topo.make_environment(seed + 11);
  auto x_loss = loss::GilbertElliott::with_target_loss(loss, 10.0, seed + 13);
  env.domains[2].delay_of = [&congestion](sim::PacketIndex i) {
    return congestion.outcomes[i].delay;
  };
  if (loss > 0) env.domains[2].loss = &x_loss;
  const sim::PathRunResult run = sim::run_path(trace, env);

  const auto truth = sim::true_domain_delays_ms(run, env, 2);
  std::vector<double> truth_ms;
  truth_ms.reserve(truth.size());
  for (const auto& [pkt, ms] : truth) truth_ms.push_back(ms);

  // Monitors: X's HOPs (positions 3,4) at x_rate; L's egress (2) and N's
  // ingress (5) at neighbor_rate.
  const auto protocol = bench::bench_protocol();
  auto collect = [&](std::size_t pos, double rate) {
    return bench::collect_hop(
        trace, run.hop_observations[pos], static_cast<net::HopId>(pos),
        static_cast<net::HopId>(pos + 2), protocol,
        core::HopTuning{.sample_rate = rate, .cut_rate = 1e-5});
  };

  core::PathVerifier v;
  v.add_round(3, collect(2, neighbor_rate));  // L egress
  v.add_round(4, collect(3, x_rate));         // X ingress
  v.add_round(5, collect(4, x_rate));         // X egress
  v.add_round(6, collect(5, neighbor_rate));  // N ingress

  Outcome out;
  {
    const auto d = v.domain_delay(4, 5);
    if (d.usable()) {
      out.estimation_ms =
          stats::score_delay_estimate(truth_ms, d.sample_delays_ms, 0.95,
                                      kVerifQuantiles)
              .worst_abs_error;
    }
  }
  {
    // Bracket 3 -> 6 spans link(3,4) + X + link(5,6); the links add a
    // known fixed 2 x 50 us, subtracted here.
    const auto d = v.domain_delay(3, 6);
    if (d.usable()) {
      std::vector<double> adjusted = d.sample_delays_ms;
      for (double& ms : adjusted) ms -= 0.1;
      out.verification_ms =
          stats::score_delay_estimate(truth_ms, adjusted, 0.95,
                                      kVerifQuantiles)
              .worst_abs_error;
      out.verification_samples = d.common_samples;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("VERIF: verification accuracy vs neighbour sampling rate\n");
  std::printf(
      "Setup: X samples at 1%% and loses 25%% (Gilbert-Elliott); L verifies\n"
      "X's delay using receipts from hops 3 (its own) and 6 (N's).\n\n");
  std::printf(
      "Paper (§7.2): N @1%% -> verification at ~2 ms; N @0.1%% -> ~5 ms.\n\n");

  const std::vector<double> neighbor_rates = {0.01, 0.005, 0.001};
  constexpr int kTrials = 5;

  std::printf("%12s %16s %18s %14s\n", "N-rate%", "estimation[ms]",
              "verification[ms]", "verif-samples");
  vpm::bench::rule(64);
  for (const double nrate : neighbor_rates) {
    stats::OnlineSummary est;
    stats::OnlineSummary ver;
    stats::OnlineSummary n_samples;
    for (int t = 0; t < kTrials; ++t) {
      const Outcome o =
          run_trial(0.01, nrate, 0.25, 3000 + static_cast<std::uint64_t>(t));
      est.add(o.estimation_ms);
      ver.add(o.verification_ms);
      n_samples.add(static_cast<double>(o.verification_samples));
    }
    std::printf("%12.2f %16.3f %18.3f %14.0f\n", nrate * 100.0, est.mean(),
                ver.mean(), n_samples.mean());
  }
  std::printf(
      "\nShape checks: estimation accuracy (X's own receipts, 1%%) is\n"
      "unchanged across rows; verification accuracy degrades as N's rate\n"
      "drops — a domain's tuning bounds how well it can verify OTHERS\n"
      "(the paper's closing point in §7.2).\n");
  return 0;
}
