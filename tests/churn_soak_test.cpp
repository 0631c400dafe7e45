// The churn soak (§7.1 keeps collector state per ACTIVE path): 52
// reporting rounds in which a third of the live path set churns, through
// the whole epoch lifecycle on run_scenario — TTL eviction and arena
// compaction at the collectors, cursor GC in the store, the round-fed
// incremental verifier.  Every cell runs twice, as configured and with
// ttl_rounds=0 (the grow-only fleet), and asserts:
//
//   * every path's findings, churned paths included, equal the
//     materialized PathVerifier's over the same rounds, and the stable
//     paths' findings equal the grow-only run's — evicting and compacting
//     other paths is invisible to them;
//   * receipts conserve every observed packet and nothing expires;
//   * evictions keep pace with the rotation, compaction reclaims bytes,
//     garbage never exceeds the watermark, the arenas plateau and end
//     well below the grow-only fleet's, and the store drains.
//
// Store retention behind a lagging consumer is pinned by StoreCursor, and
// receipt-stream equality across eviction by Lifecycle and WireRoundTrip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "helpers.hpp"
#include "scenario_grid.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

/// run_scenario's compaction watermark (garbage fraction of resident
/// arena bytes that triggers a compaction).
constexpr double kGarbageWatermark = 0.25;
constexpr std::size_t kHops = 4;  // S -> X -> D

/// tests/scenarios/churn.conf with `overrides` applied on top.
sim::ScenarioConfig churn_cell(const std::string& overrides) {
  return sim::parse_scenario(test::load_scenario_file("churn.conf") + "\n" +
                             overrides);
}

std::size_t max_bytes(const std::vector<sim::RoundArenas>& arenas,
                      std::size_t begin, std::size_t end) {
  std::size_t m = 0;
  for (std::size_t r = begin; r < end; ++r) m = std::max(m, arenas[r].bytes);
  return m;
}

void check_churn_cell(const sim::ScenarioConfig& cfg) {
  sim::ScenarioConfig grow_cfg = cfg;
  grow_cfg.ttl_rounds = 0;
  const sim::ScenarioOutcome out = sim::run_scenario(cfg);
  const sim::ScenarioOutcome grow = sim::run_scenario(grow_cfg);
  SCOPED_TRACE("repro: " + out.repro);
  ASSERT_GE(cfg.rounds, 50u);
  ASSERT_EQ(out.arenas.size(), cfg.rounds);
  ASSERT_EQ(out.layout.hops.size(), kHops);

  // Findings.
  ASSERT_TRUE(test::matches_materialized(out));
  for (std::size_t p = 0; p < cfg.churn.stable; ++p) {
    ASSERT_TRUE(out.analysis[p] == grow.analysis[p])
        << "path " << p
        << ": evicting other paths changed a stable path's findings";
    // The findings are non-trivial: delay samples matched and traffic
    // accounted.
    ASSERT_EQ(out.analysis[p].domains.size(), 1u);
    EXPECT_GT(out.analysis[p].domains[0].delay.common_samples, 0u)
        << "path " << p;
    EXPECT_GT(out.analysis[p].domains[0].loss.offered, 0u) << "path " << p;
  }
  EXPECT_TRUE(test::conserves_receipts(out));
  EXPECT_EQ(out.expired_unmatched, 0u)
      << "in-window reporting must never expire unmatched state";

  // The lifecycle: every slot rotation evicts the retired path at each
  // HOP, and eviction garbage crosses the compaction watermark.
  const std::size_t rotations =
      cfg.churn.live * (cfg.rounds / cfg.churn.lifetime_rounds - 2);
  EXPECT_GE(out.lifecycle.evicted_paths, kHops * rotations);
  EXPECT_GT(out.lifecycle.compactions, 0u);
  EXPECT_GT(out.lifecycle.reclaimed_arena_bytes, 0u);
  EXPECT_TRUE(grow.lifecycle == collector::LifecycleReport{})
      << "the grow-only run must evict, compact and decay nothing";

  // The plateau.  Garbage sits at or below the watermark after every
  // round's lifecycle pass.  The total plateaus up to the slow ratchet of
  // live slice capacities (a stable path's buffer or ring doubles on a
  // rare deep burst, live memory the grow-only fleet pays too), and the
  // grow-only fleet, which keeps dead paths' slices, pulls away.
  for (std::size_t r = 0; r < out.arenas.size(); ++r) {
    const sim::RoundArenas& a = out.arenas[r];
    EXPECT_LE(static_cast<double>(a.bytes - a.live_bytes),
              kGarbageWatermark * static_cast<double>(a.bytes) + 64.0)
        << "round " << r << ": garbage above the compaction watermark";
  }
  const std::size_t third = cfg.rounds / 3;
  const std::size_t mid = max_bytes(out.arenas, third, 2 * third);
  const std::size_t last = max_bytes(out.arenas, 2 * third, cfg.rounds);
  EXPECT_LE(last, mid + mid / 2 + 4096)
      << "arenas must plateau (middle-third max " << mid
      << ", last-third max " << last << ")";
  EXPECT_LT(static_cast<double>(out.arenas.back().bytes),
            0.6 * static_cast<double>(grow.arenas.back().bytes))
      << "evicting and compacting must clearly beat the grow-only fleet";

  // The store's cursor GC drains behind the fleet.
  EXPECT_EQ(out.storage_end.envelopes, 0u);
  EXPECT_GT(out.storage_end.erased, 0u);
}

TEST(ChurnSoak, PlateauAndLifecycleUnderDefaultLoad) {
  check_churn_cell(churn_cell(""));
}

// The matrix: 10 seeds x both digest modes x shards {1, 4} at half load,
// split across cases so ctest can parallelize.
void run_matrix(const char* digest, std::size_t shards) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    check_churn_cell(churn_cell("pps=25000 seed=" + std::to_string(seed) +
                                " digest=" + digest +
                                " shards=" + std::to_string(shards)));
  }
}

TEST(ChurnSoakMatrix, SingleDigestOneShard) { run_matrix("single", 1); }
TEST(ChurnSoakMatrix, SingleDigestFourShards) { run_matrix("single", 4); }
TEST(ChurnSoakMatrix, IndependentDigestOneShard) {
  run_matrix("independent", 1);
}
TEST(ChurnSoakMatrix, IndependentDigestFourShards) {
  run_matrix("independent", 4);
}

}  // namespace
}  // namespace vpm
