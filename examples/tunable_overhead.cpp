// Tunability walk-through (Section 2.2's third requirement): one domain
// dials its sampling/aggregation rates up and down and sees exactly what
// it buys — estimation quality against resource spend — with no
// coordination with anyone else on the path.
#include <cstdio>
#include <vector>

#include "collector/resource_model.hpp"
#include "core/hop_monitor.hpp"
#include "core/receipt_batch.hpp"
#include "core/verifier.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "stats/delay_accuracy.hpp"
#include "trace/synthetic_trace.hpp"

using namespace vpm;

int main() {
  std::printf("== Tunability: quality vs resources, chosen locally ==\n\n");

  // One congested domain X, as in Figure 2.
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 100'000;
  tcfg.duration = net::seconds(10);
  tcfg.burst_multiplier = 1.2;
  tcfg.burst_fraction = 0.2;
  tcfg.seed = 11;
  const auto trace = trace::generate_trace(tcfg);

  sim::CongestionConfig ccfg;
  ccfg.seed = 12;
  const auto congestion = sim::simulate_congestion(ccfg, trace);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.domains[1].delay_of = [&congestion](sim::PacketIndex i) {
    return congestion.outcomes[i].delay;
  };
  const sim::PathRunResult run = sim::run_path(trace, env);
  const auto truth_pairs = sim::true_domain_delays_ms(run, env, 1);
  std::vector<double> truth;
  truth.reserve(truth_pairs.size());
  for (const auto& [pkt, ms] : truth_pairs) truth.push_back(ms);

  std::printf("%9s %10s %14s %14s %13s %12s\n", "sample%", "agg/sec",
              "accuracy[ms]", "receiptKB/s", "buffer[KB]", "samples");
  for (const auto& [sample_rate, aggs_per_s] :
       std::vector<std::pair<double, double>>{
           {0.05, 10.0}, {0.01, 2.0}, {0.005, 1.0}, {0.001, 0.2}}) {
    core::ProtocolParams protocol;
    core::HopTuning tuning;
    tuning.sample_rate = sample_rate;
    tuning.cut_rate = aggs_per_s / tcfg.packets_per_second;

    core::PathVerifier verifier;
    std::size_t receipt_bytes = 0;
    std::size_t buffer_peak = 0;
    for (const auto& [pos, hop] :
         std::vector<std::pair<std::size_t, net::HopId>>{{1, 2}, {2, 3}}) {
      core::HopMonitor monitor(core::HopMonitorConfig{
          .protocol = protocol,
          .tuning = tuning,
          .path = net::PathId{.header_spec_id = protocol.header_spec.id(),
                              .prefixes = tcfg.prefixes,
                              .previous_hop = hop - 1,
                              .next_hop = hop + 1,
                              .max_diff = net::milliseconds(5)},
      });
      for (const sim::Obs& o : run.hop_observations[pos]) {
        monitor.observe(trace[o.pkt], o.when);
      }
      buffer_peak = std::max(buffer_peak, monitor.sampler().buffer_peak());
      core::HopReceipts r;
      r.hop = hop;
      r.samples = monitor.collect_samples();
      r.aggregates = monitor.collect_aggregates(true);
      // The HOP's receipts as one wire entry under a round header that
      // carries its thresholds.
      const core::RoundHeader header{
          .sample_threshold = r.samples.sample_threshold,
          .marker_threshold = r.samples.marker_threshold,
          .base = r.samples.samples.empty() ? net::Timestamp{}
                                            : r.samples.samples.front().time};
      receipt_bytes +=
          core::size_entry(1, core::PathDrain{r.samples, r.aggregates}, header)
              .bytes();
      verifier.add_hop(std::move(r));
    }

    const auto delay = verifier.domain_delay(2, 3);
    const auto score = stats::score_delay_estimate(truth,
                                                   delay.sample_delays_ms);
    std::printf("%9.2f %10.1f %14.3f %14.2f %13.1f %12zu\n",
                sample_rate * 100.0, aggs_per_s, score.worst_abs_error,
                static_cast<double>(receipt_bytes) / 10.0 / 1e3,
                static_cast<double>(buffer_peak * 7) / 1e3,
                delay.common_samples);
  }

  std::printf(
      "\nEach row is a choice X makes alone: lower rates cut receipt\n"
      "bandwidth and buffer memory, and the estimate degrades gracefully\n"
      "(Section 2.2, Tunability).  Other domains on the path are\n"
      "unaffected: the subset property keeps their receipts joinable with\n"
      "X's no matter what X picks.\n");
  return 0;
}
