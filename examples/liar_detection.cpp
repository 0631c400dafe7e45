// Liar detection: the Section 3.1 exposure story, end to end, on the
// Figure-1 path S - L - X - N - D.
//
// Act 1: X silently drops 10% of traffic and publishes honest receipts —
//        everyone sees X's loss; no inconsistencies anywhere.
// Act 2: X publishes doctored receipts ("we delivered everything") —
//        the X->N link turns inconsistent and the X-N pair is implicated;
//        N knows X is the liar.
// Act 3: N colludes and covers for X — the X->N link is clean again, but
//        the blame has moved inside N: N now eats the loss, or must lie
//        to D and be exposed there.  Lies only travel downstream.
#include <cstdio>
#include <vector>

#include "adversary/strategies.hpp"
#include "collector/monitoring_cache.hpp"
#include "core/verifier.hpp"
#include "loss/bernoulli.hpp"
#include "sim/topology.hpp"
#include "trace/synthetic_trace.hpp"

using namespace vpm;

namespace {

/// Every HOP's receipts, indexed by HOP position (HOP id - 1).
std::vector<core::PathDrain> honest_receipts(
    const std::vector<net::Packet>& trace, const sim::PathRunResult& run) {
  core::ProtocolParams protocol;
  core::HopTuning tuning{.sample_rate = 0.05, .cut_rate = 1e-4};
  const net::PrefixPair pair = trace::default_prefix_pair();
  std::vector<core::PathDrain> receipts;
  for (std::size_t pos = 0; pos < run.hop_observations.size(); ++pos) {
    const auto hop = static_cast<net::HopId>(pos + 1);
    collector::MonitoringCache monitor(
        collector::MonitoringCache::Config{
            .protocol = protocol,
            .tuning = tuning,
            .previous_hop = pos == 0 ? net::kNoHop : hop - 1,
            .next_hop = pos + 1 == run.hop_observations.size() ? net::kNoHop
                                                               : hop + 1,
            .max_diff = net::milliseconds(5)},
        std::span(&pair, 1));
    for (const sim::Obs& o : run.hop_observations[pos]) {
      monitor.observe(trace[o.pkt], o.when);
    }
    receipts.push_back(monitor.drain_path(0, /*flush_open=*/true));
  }
  return receipts;
}

void report(const char* act, const std::vector<core::PathDrain>& receipts) {
  core::PathVerifier v;
  for (std::size_t pos = 0; pos < receipts.size(); ++pos) {
    v.add_round(static_cast<net::HopId>(pos + 1), receipts[pos]);
  }
  const core::PathLayout layout{
      .hops = {1, 2, 3, 4, 5, 6, 7, 8},
      .domain_of = {"S", "L", "L", "X", "X", "N", "N", "D"}};
  const core::PathAnalysis analysis = v.analyze(layout);

  std::printf("%s\n", act);
  for (const auto& d : analysis.domains) {
    std::printf("  domain %-2s loss %6.2f%%  (%llu offered, %llu delivered)\n",
                d.domain.c_str(), d.loss.loss_rate() * 100.0,
                static_cast<unsigned long long>(d.loss.offered),
                static_cast<unsigned long long>(d.loss.delivered));
  }
  for (const auto& l : analysis.links) {
    std::printf("  link %s->%-2s %s", l.upstream_domain.c_str(),
                l.downstream_domain.c_str(),
                l.report.consistent() ? "consistent" : "INCONSISTENT");
    if (!l.report.consistent()) {
      std::printf("  (%zu violations -> the %s/%s pair is implicated; the "
                  "implicated neighbour knows who lied)",
                  l.report.violation_count(), l.upstream_domain.c_str(),
                  l.downstream_domain.c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Liar detection on the Figure-1 path ==\n\n");

  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 50'000;
  tcfg.duration = net::seconds(5);
  tcfg.seed = 77;
  const auto trace = trace::generate_trace(tcfg);

  const sim::PathTopology topo = sim::PathTopology::figure_one();
  sim::PathEnvironment env = topo.make_environment(78);
  loss::BernoulliLoss x_loss(0.10, 79);
  env.domains[2].loss = &x_loss;  // X drops 10%
  env.domains[2].delay_of = [](sim::PacketIndex) {
    return net::milliseconds(2);
  };
  const sim::PathRunResult run = sim::run_path(trace, env);
  const auto truth = honest_receipts(trace, run);

  report("Act 1: X drops 10% but reports honestly", truth);

  auto lying = truth;
  lying[4].samples = adversary::hide_loss_samples(
      truth[4].samples, truth[3].samples, net::milliseconds(2));
  lying[4].aggregates = adversary::hide_loss_aggregates(truth[4].aggregates,
                                                        truth[3].aggregates);
  report("Act 2: X doctors its egress receipts (claims zero loss)", lying);

  auto collusion = lying;
  collusion[5].samples = adversary::cover_neighbor_samples(
      truth[5].samples, lying[4].samples, net::microseconds(50));
  collusion[5].aggregates = adversary::cover_neighbor_aggregates(
      truth[5].aggregates, lying[4].aggregates, net::microseconds(50));
  report("Act 3: N covers for X (fabricates matching ingress receipts)",
         collusion);

  std::printf(
      "Act 3 shows the §3.1 cascade: the X->N link is clean again, but the\n"
      "fabricated packets now vanish inside N — N has taken X's loss onto\n"
      "its own books.  Covering for a liar means absorbing the blame or\n"
      "re-lying to the next domain; the lie cannot escape the path.\n");
  return 0;
}
