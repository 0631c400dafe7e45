// Quickstart: the smallest end-to-end VPM deployment.
//
// Three domains (S - X - D) exchange traffic; both of X's HOPs run VPM
// monitors; a verifier collects their receipts and reports X's loss and
// delay — using nothing but the receipts.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/hop_monitor.hpp"
#include "core/verifier.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

using namespace vpm;

int main() {
  std::printf("== VPM quickstart: S -> X -> D ==\n\n");

  // 1. Traffic: a synthetic packet sequence for one origin-prefix pair.
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 50'000;
  tcfg.duration = net::seconds(5);
  const auto trace = trace::generate_trace(tcfg);
  std::printf("Generated %zu packets (%.0f kpps, 5 s) on path %s\n\n",
              trace.size(), tcfg.packets_per_second / 1000.0,
              tcfg.prefixes.to_string().c_str());

  // 2. The network: transit domain X adds 3 ms and drops 5% (bursty).
  auto x_loss = loss::GilbertElliott::with_target_loss(0.05, 10.0, 42);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.domains[1].delay_of = [](sim::PacketIndex) {
    return net::milliseconds(3);
  };
  env.domains[1].loss = &x_loss;
  const sim::PathRunResult run = sim::run_path(trace, env);

  // 3. Monitoring: X's ingress (HOP 2) and egress (HOP 3) both run VPM.
  //    Protocol parameters are system-wide; the tuning is X's own choice.
  core::ProtocolParams protocol;           // defaults: mu=1e-3, J=10ms
  core::HopTuning tuning;
  tuning.sample_rate = 0.02;               // 2% delay samples
  tuning.cut_rate = 1.0 / 25'000.0;        // one aggregate per ~0.5 s

  auto make_monitor = [&](net::HopId prev, net::HopId next) {
    return core::HopMonitor(core::HopMonitorConfig{
        .protocol = protocol,
        .tuning = tuning,
        .path = net::PathId{.header_spec_id = protocol.header_spec.id(),
                            .prefixes = tcfg.prefixes,
                            .previous_hop = prev,
                            .next_hop = next,
                            .max_diff = net::milliseconds(5)},
    });
  };
  core::HopMonitor ingress = make_monitor(1, 3);  // HOP 2
  core::HopMonitor egress = make_monitor(2, 4);   // HOP 3
  for (const sim::Obs& o : run.hop_observations[1]) {
    ingress.observe(trace[o.pkt], o.when);
  }
  for (const sim::Obs& o : run.hop_observations[2]) {
    egress.observe(trace[o.pkt], o.when);
  }

  // 4. Receipts out, verdicts in.
  core::PathVerifier verifier;
  verifier.add_hop(core::HopReceipts{
      .hop = 2,
      .samples = ingress.collect_samples(),
      .aggregates = ingress.collect_aggregates(true)});
  verifier.add_hop(core::HopReceipts{
      .hop = 3,
      .samples = egress.collect_samples(),
      .aggregates = egress.collect_aggregates(true)});

  const core::DomainLossReport loss = verifier.domain_loss(2, 3);
  std::printf("Loss through X (from receipts):\n");
  std::printf("  offered %llu, delivered %llu -> %.2f%% loss "
              "(injected: 5%%)\n",
              static_cast<unsigned long long>(loss.offered),
              static_cast<unsigned long long>(loss.delivered),
              loss.loss_rate() * 100.0);
  std::printf("  computable every %.2f s (joined aggregates: %zu)\n\n",
              loss.mean_granularity_s, loss.joined_aggregates);

  const core::DomainDelayReport delay = verifier.domain_delay(2, 3);
  std::printf("Delay through X (from %zu commonly sampled packets):\n",
              delay.common_samples);
  for (const auto& q : delay.quantiles) {
    std::printf("  p%-4.0f = %6.3f ms   (95%% CI +/- %.3f ms)\n",
                q.quantile * 100.0, q.value, q.accuracy());
  }
  std::printf("\n(True delay was a constant 3 ms; every quantile should "
              "sit on it.)\n");
  return 0;
}
