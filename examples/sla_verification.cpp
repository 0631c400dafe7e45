// SLA verification: the paper's motivating workflow (§1).  A customer
// domain holds provider X to an SLA — p95 delay below a bound, monthly
// loss below a rate — and uses VPM receipts to decide, with confidence
// intervals, whether X complied.
//
// SLA terms are modelled on backbone SLAs of the era (Sprint's, cited as
// [1]): intra-domain delay promised in the tens of milliseconds and loss
// well under a percent.
#include <cstdio>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/verifier.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

using namespace vpm;

namespace {

struct SlaTerms {
  double p95_delay_ms = 15.0;
  double max_loss_rate = 0.005;  // 0.5% per period
};

struct Verdict {
  bool delay_ok = false;
  bool delay_conclusive = false;
  bool loss_ok = false;
};

Verdict check_sla(const core::DomainDelayReport& delay,
                  const core::DomainLossReport& loss, const SlaTerms& terms) {
  Verdict v;
  for (const auto& q : delay.quantiles) {
    if (q.quantile == 0.95) {
      // Conclusive only if the whole confidence interval sits on one side.
      v.delay_ok = q.upper <= terms.p95_delay_ms;
      v.delay_conclusive = q.upper <= terms.p95_delay_ms ||
                           q.lower > terms.p95_delay_ms;
    }
  }
  v.loss_ok = loss.loss_rate() <= terms.max_loss_rate;
  return v;
}

void run_scenario(const char* label, double injected_loss,
                  sim::CongestionKind congestion, const SlaTerms& terms,
                  std::uint64_t seed) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 100'000;
  tcfg.duration = net::seconds(10);
  tcfg.burst_multiplier = 1.2;
  tcfg.burst_fraction = 0.2;
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::CongestionConfig ccfg;
  ccfg.kind = congestion;
  ccfg.seed = seed + 1;
  const auto result = sim::simulate_congestion(ccfg, trace);

  auto x_loss =
      loss::GilbertElliott::with_target_loss(injected_loss, 10.0, seed + 2);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.domains[1].delay_of = [&result](sim::PacketIndex i) {
    return result.outcomes[i].delay;
  };
  if (injected_loss > 0) env.domains[1].loss = &x_loss;
  const sim::PathRunResult run = sim::run_path(trace, env);

  core::ProtocolParams protocol;
  core::HopTuning tuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  core::PathVerifier verifier;
  for (const auto& [pos, hop] : std::vector<std::pair<std::size_t, net::HopId>>{
           {1, 2}, {2, 3}}) {
    collector::MonitoringCache monitor(
        collector::MonitoringCache::Config{.protocol = protocol,
                                           .tuning = tuning,
                                           .previous_hop = hop - 1,
                                           .next_hop = hop + 1,
                                           .max_diff = net::milliseconds(5)},
        std::span(&tcfg.prefixes, 1));
    for (const sim::Obs& o : run.hop_observations[pos]) {
      monitor.observe(trace[o.pkt], o.when);
    }
    verifier.add_round(hop, monitor.drain_path(0, /*flush_open=*/true));
  }

  const auto delay = verifier.domain_delay(2, 3);
  const auto loss = verifier.domain_loss(2, 3);
  const Verdict v = check_sla(delay, loss, terms);

  std::printf("%s\n", label);
  for (const auto& q : delay.quantiles) {
    if (q.quantile == 0.95) {
      std::printf("  p95 delay: %.2f ms (CI [%.2f, %.2f])  SLA <= %.0f ms"
                  "  -> %s\n",
                  q.value, q.lower, q.upper, terms.p95_delay_ms,
                  !v.delay_conclusive ? "INCONCLUSIVE"
                  : v.delay_ok        ? "COMPLIANT"
                                      : "VIOLATED");
    }
  }
  std::printf("  loss: %.3f%% over %zu aggregates  SLA <= %.2f%%  -> %s\n\n",
              loss.loss_rate() * 100.0, loss.joined_aggregates,
              terms.max_loss_rate * 100.0,
              v.loss_ok ? "COMPLIANT" : "VIOLATED");
}

}  // namespace

int main() {
  std::printf("== SLA verification from VPM receipts ==\n");
  std::printf("Terms: p95 delay <= 15 ms, loss <= 0.5%% per period.\n\n");

  const SlaTerms terms;
  run_scenario("Scenario 1: healthy provider (uncongested, lossless)", 0.0,
               sim::CongestionKind::kNone, terms, 100);
  run_scenario("Scenario 2: congested provider (bursty UDP cross-traffic)",
               0.0, sim::CongestionKind::kBurstyUdp, terms, 200);
  run_scenario("Scenario 3: lossy provider (2% bursty loss, uncongested)",
               0.02, sim::CongestionKind::kNone, terms, 300);
  std::printf(
      "The verdicts come with confidence intervals: a customer only files\n"
      "an SLA claim when the interval is conclusively on the wrong side\n"
      "(the [20]-style guarantee VPM's sampling preserves).\n");
  return 0;
}
