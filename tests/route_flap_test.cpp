// Route-flap regression (ISSUE 7 satellite): a mid-epoch path-table
// rebuild under the PR-5 lifecycle machinery must not orphan open
// receipts (every observed packet still reaches the verifier through
// exactly one wire-delivered aggregate) or corrupt consumer cursors
// (no ack rejections, no residual lag, the store drains).
#include <gtest/gtest.h>

#include "scenario_grid.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

sim::ScenarioConfig flap_config(std::uint64_t seed) {
  sim::ScenarioConfig cfg = sim::parse_scenario(
      "name=route-flap seed=1 domains=S,X,N,D paths=4 rounds=12 "
      "ttl_rounds=2 route_flap=2:4:4 loss=bernoulli loss_rate=0.02");
  cfg.seed = seed;
  return cfg;
}

TEST(RouteFlap, RebuildOrphansNothing) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const sim::ScenarioOutcome out = sim::run_scenario(flap_config(seed));
    SCOPED_TRACE("repro: " + out.repro);

    // Receipt conservation across both table rebuilds: the flush at the
    // flap boundary shipped every open receipt, the rebuilt collectors
    // resumed every path, and nothing was counted twice.
    EXPECT_TRUE(test::conserves_receipts(out));

    // The flap is an honest event: no liar findings, no gaps, and loss
    // estimates still track ground truth exactly for traffic that ran.
    EXPECT_TRUE(test::is_clean(out));
    EXPECT_TRUE(test::loss_tracks_truth(out, "X", 1e-9));
    EXPECT_TRUE(test::loss_tracks_truth(out, "N", 1e-9));

    // Cursor integrity: the fleet acked everything it consumed, nothing
    // is stuck in the store, and the GC floor advanced behind the acks.
    EXPECT_EQ(out.ack_rejections, 0u);
    for (const std::size_t lag : out.consumer_lag_end) EXPECT_EQ(lag, 0u);
    EXPECT_EQ(out.storage_end.envelopes, 0u);
    EXPECT_EQ(out.store_rejected, 0u);
    EXPECT_GT(out.storage_end.erased, 0u);

    // The withdrawn paths' traffic stopped (fewer packets than the
    // always-up run) but every injected packet is accounted for.
    EXPECT_GT(out.total_packets, 0u);
    EXPECT_LE(out.delivered_packets, out.total_packets);
  }
}

TEST(RouteFlap, FlapWindowIsDeterministic) {
  const sim::ScenarioOutcome a = sim::run_scenario(flap_config(5));
  const sim::ScenarioOutcome b = sim::run_scenario(flap_config(5));
  EXPECT_EQ(a, b) << "repro: " << a.repro;
}

// The TTL eviction path and the flap rebuild compose: with idle paths
// evicted between flaps, conservation must still hold (eviction drains
// ship the tail receipts before the slot dies).
TEST(RouteFlap, LifecycleEvictionKeepsConservation) {
  sim::ScenarioConfig cfg = flap_config(7);
  cfg.ttl_rounds = 1;  // aggressive: evict after one idle round
  const sim::ScenarioOutcome out = sim::run_scenario(cfg);
  SCOPED_TRACE("repro: " + out.repro);
  EXPECT_TRUE(test::conserves_receipts(out));
  EXPECT_TRUE(test::is_clean(out));
  // The withdrawn paths actually went idle long enough to be evicted.
  EXPECT_GT(out.evicted_paths, 0u);
}

}  // namespace
}  // namespace vpm
