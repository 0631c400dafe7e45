// ABL-REORDER — the Section 6.3 design choice: AggTrans patch-up windows.
// We sweep the reordering intensity (intra-domain jitter) and compare the
// verifier's loss computation with patch-up enabled vs disabled, plus the
// DA++ baseline (which has no patch-up at all, §3.3).
#include <cstdio>
#include <vector>

#include "baseline/diff_aggregator.hpp"
#include "core/aggregator.hpp"
#include "core/alignment.hpp"
#include "core/verifier.hpp"
#include "experiment.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

struct Row {
  double phantom_loss_no_patchup = 0.0;  ///< joined aggs with bogus loss
  double phantom_loss_patchup = 0.0;
  std::size_t migrations = 0;
  double lda_unusable_frac = 0.0;
};

Row run_row(net::Duration jitter, std::uint64_t seed) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 50'000;
  tcfg.duration = net::seconds(5);
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = seed + 1;
  env.domains[1].jitter = jitter;  // reordering, no loss at all
  const sim::PathRunResult run = sim::run_path(trace, env);

  const auto protocol = bench::bench_protocol();
  const net::DigestEngine engine = protocol.make_engine();
  const double cut_rate = 1e-3;

  auto vpm_receipts = [&](std::size_t pos) {
    core::Aggregator agg(engine, core::cut_threshold_for(cut_rate),
                         protocol.reorder_window_j);
    for (const sim::Obs& o : run.hop_observations[pos]) {
      agg.observe(trace[o.pkt], o.when);
    }
    auto closed = agg.take_closed();
    if (auto last = agg.flush_open(); last.has_value()) {
      auto tail = agg.take_closed();
      closed.insert(closed.end(), tail.begin(), tail.end());
      closed.push_back(*last);
    }
    std::vector<core::AggregateReceipt> rs;
    for (const auto& d : closed) {
      rs.push_back(core::AggregateReceipt{.path = {},
                                          .agg = d.agg,
                                          .packet_count = d.packet_count,
                                          .trans = d.trans,
                                          .opened_at = d.opened_at,
                                          .closed_at = d.closed_at});
    }
    return rs;
  };
  const auto up = vpm_receipts(1);
  const auto down = vpm_receipts(2);

  auto phantom_frac = [](const core::AlignmentResult& r) {
    if (r.aligned.empty()) return 0.0;
    std::size_t bad = 0;
    for (const auto& a : r.aligned) {
      if (a.lost() != 0) ++bad;
    }
    return static_cast<double>(bad) / static_cast<double>(r.aligned.size());
  };
  const auto raw = core::align_aggregates(up, down, false);
  const auto patched = core::align_aggregates(up, down, true);

  // DA++ baseline.
  auto lda_receipts = [&](std::size_t pos) {
    baseline::DiffAggregator agg(engine, core::cut_threshold_for(cut_rate));
    for (const sim::Obs& o : run.hop_observations[pos]) {
      agg.observe(trace[o.pkt], o.when);
    }
    auto closed = agg.take_closed();
    if (auto last = agg.flush_open(); last.has_value()) closed.push_back(*last);
    return closed;
  };
  const auto lda_stats =
      baseline::lda_domain_stats(lda_receipts(1), lda_receipts(2));
  const double lda_total = static_cast<double>(lda_stats.usable_aggregates +
                                               lda_stats.unusable_aggregates);

  return Row{
      .phantom_loss_no_patchup = phantom_frac(raw),
      .phantom_loss_patchup = phantom_frac(patched),
      .migrations = patched.migrations,
      .lda_unusable_frac =
          lda_total == 0.0
              ? 0.0
              : static_cast<double>(lda_stats.unusable_aggregates) / lda_total,
  };
}

}  // namespace

int main() {
  std::printf("ABL-REORDER: AggTrans patch-up under packet reordering\n");
  std::printf(
      "Setup: lossless domain with uniform jitter (reorders packets closer\n"
      "than the jitter), ~50-packet reorder window at the highest setting;\n"
      "'phantom loss' = fraction of joined aggregates whose counts\n"
      "disagree although nothing was lost.\n\n");

  std::printf("%12s %18s %15s %12s %15s\n", "jitter[us]", "no-patchup[%]",
              "patchup[%]", "migrations", "DA++unusable[%]");
  vpm::bench::rule(78);
  bool shape_ok = true;
  for (const std::int64_t jitter_us : {0ll, 100ll, 200ll, 400ll, 800ll}) {
    const Row r = run_row(net::microseconds(jitter_us), 7000);
    std::printf("%12lld %18.1f %15.1f %12zu %15.1f\n",
                static_cast<long long>(jitter_us),
                r.phantom_loss_no_patchup * 100.0,
                r.phantom_loss_patchup * 100.0, r.migrations,
                r.lda_unusable_frac * 100.0);
    if (r.phantom_loss_patchup != 0.0 ||
        (jitter_us > 0 && r.migrations == 0)) {
      shape_ok = false;
    }
  }
  std::printf(
      "\nShape checks: without patch-up, phantom loss grows with jitter;\n"
      "with AggTrans it stays at zero (§6.3).  DA++ (no window at all)\n"
      "loses usable aggregates the same way (§3.3).\n");
  // The §6.3 claim this binary guards: patch-up leaves no phantom loss at
  // any jitter, and reordering makes it migrate packets.
  std::printf("Patch-up shape check: %s\n",
              shape_ok ? "ok"
                       : "FAILED (phantom loss with patch-up, or no "
                         "migrations under jitter)");
  return shape_ok ? 0 : 1;
}
