// ABL-BIAS — the design choice at the heart of Section 5: keying sampling
// with *future* traffic.  We mount the §3.2 bias attack (the cheating
// domain gives predictable samples preferential treatment) against
// Trajectory Sampling ++ and against VPM's delay sampler, and report how
// far each protocol's delay estimate is dragged from the truth.
#include <cstdio>
#include <random>
#include <unordered_set>
#include <vector>

#include "adversary/strategies.hpp"
#include "baseline/trajectory_sampling.hpp"
#include "core/config.hpp"
#include "experiment.hpp"
#include "stats/quantile.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

struct Row {
  double true_p95 = 0.0;
  double honest_est = 0.0;
  double biased_est = 0.0;
  double predictable_frac = 0.0;
};

}  // namespace

int main() {
  std::printf("ABL-BIAS: sample-bias attack vs sampling design\n");
  std::printf(
      "Attack: the domain serves packets it KNOWS will be sampled from a\n"
      "priority queue (0.1 ms) and everything else normally; 10%% of\n"
      "packets honestly see a 20 ms congestion spike.\n\n");

  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 100'000;
  tcfg.duration = net::seconds(5);
  tcfg.seed = 4;
  const auto trace = trace::generate_trace(tcfg);

  // Honest delays: bimodal, p95 = 20 ms.
  std::vector<net::Duration> honest(trace.size());
  std::mt19937_64 rng(5);
  std::bernoulli_distribution spike(0.10);
  for (auto& d : honest) {
    d = spike(rng) ? net::milliseconds(20) : net::milliseconds(1);
  }

  core::ProtocolParams protocol;
  protocol.marker_rate = 1e-3;
  const net::DigestEngine engine = protocol.make_engine();
  const double rate = 0.01;
  const std::uint32_t ts_threshold = net::rate_to_threshold(rate);

  auto p95_over = [&](const std::vector<net::Duration>& delays,
                      auto&& sampled) {
    stats::QuantileEstimator est;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (sampled(trace[i])) est.add(delays[i].milliseconds());
    }
    return est.estimate(0.95).value;
  };
  const double true_p95 = [&] {
    stats::QuantileEstimator est;
    for (const auto& d : honest) est.add(d.milliseconds());
    return est.estimate(0.95).value;
  }();

  // --- Trajectory Sampling ++: fully predictable. ---
  Row ts;
  {
    baseline::TrajectorySampler sampler(engine, ts_threshold);
    auto sampled = [&](const net::Packet& p) {
      return sampler.would_sample(p);
    };
    const auto predictor = adversary::trajectory_predictor(engine,
                                                           ts_threshold);
    const auto biased = adversary::bias_delays(trace, honest, predictor,
                                               net::microseconds(100));
    std::size_t predictable = 0;
    for (const auto& p : trace) {
      if (predictor(p)) ++predictable;
    }
    ts = Row{.true_p95 = true_p95,
             .honest_est = p95_over(honest, sampled),
             .biased_est = p95_over(biased, sampled),
             .predictable_frac = static_cast<double>(predictable) /
                                 static_cast<double>(trace.size())};
  }

  // --- VPM: only markers are predictable. ---
  Row vpm_row;
  {
    collector::MonitoringCache cache =
        bench::one_path_cache(protocol, core::HopTuning{.sample_rate = rate});
    for (const auto& p : trace) cache.observe(p, p.origin_time);
    std::unordered_set<net::PacketDigest> ids;
    for (const auto& s : cache.drain_path(0).samples.samples) {
      ids.insert(s.pkt_id);
    }
    auto sampled = [&](const net::Packet& p) {
      return ids.contains(engine.packet_id(p));
    };
    const auto predictor =
        adversary::vpm_marker_predictor(engine, protocol.marker_threshold());
    const auto biased = adversary::bias_delays(trace, honest, predictor,
                                               net::microseconds(100));
    std::size_t predictable = 0;
    for (const auto& p : trace) {
      if (predictor(p)) ++predictable;
    }
    vpm_row = Row{.true_p95 = true_p95,
                  .honest_est = p95_over(honest, sampled),
                  .biased_est = p95_over(biased, sampled),
                  .predictable_frac = static_cast<double>(predictable) /
                                      static_cast<double>(trace.size())};
  }

  std::printf("%-24s %10s %12s %12s %14s\n", "protocol", "true-p95",
              "honest-est", "biased-est", "predictable%");
  vpm::bench::rule(78);
  std::printf("%-24s %9.1f %12.2f %12.2f %13.2f%%\n",
              "TrajectorySampling++", ts.true_p95, ts.honest_est,
              ts.biased_est, ts.predictable_frac * 100.0);
  std::printf("%-24s %9.1f %12.2f %12.2f %13.2f%%\n", "VPM delay-sampling",
              vpm_row.true_p95, vpm_row.honest_est, vpm_row.biased_est,
              vpm_row.predictable_frac * 100.0);
  std::printf(
      "\nShape checks: TS++'s biased estimate collapses to the preferred\n"
      "delay (the §3.2 failure); VPM's stays near truth because the only\n"
      "predictable packets are the markers, a ~0.1%% minority of traffic\n"
      "and ~10%% of samples (§5.1).\n");
  return 0;
}
