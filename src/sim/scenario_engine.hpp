// The config-driven scenario engine: one declarative ScenarioConfig in,
// one typed ScenarioOutcome out, the full stack in between.
//
// For every reporting round the engine
//
//   1. propagates the round's traffic — minus the paths the route-flap
//      window withdraws and the churn schedule holds silent — through the
//      configured domain chain (sim/path_run: per-domain delay/jitter, the
//      configured loss model, timed link failures),
//   2. feeds each HOP's observations to its sharded collector,
//   3. drains the round, runs the collector lifecycle pass when
//      `ttl_rounds` is set (TTL eviction, whose drains ship with the round,
//      then arena compaction), applies the configured adversary transforms
//      (adversary/strategies — the drains a lying domain PUBLISHES differ
//      from what it observed), and ships the published drains through
//      WireExporter -> FaultyTransport -> dissem::FederatedStore (memory or
//      disk segments, `store_shards` producer shards),
//   4. polls a per-HOP FetchClient fleet that feeds per-path
//      IncrementalPathVerifiers (gap reports and all).
//
// After the run, the delivered-round oracle replays every round the fleet
// received in full (no deduplicated gap intersects its sealed sequence
// range) from a pre-fault archive of the sealed envelopes, hop by hop,
// into one materialized core::PathVerifier per path, which keeps every
// receipt: ScenarioOutcome::delivered_reference is what a perfect wire
// yields over exactly those rounds, so the guarantee "lost rounds surface
// as gaps, delivered rounds verify as if nothing was lost" is an output of
// every scenario — and, on a perfect wire, the round-fed verifier's whole
// analysis must equal the materialized one's.
//
// A churn schedule plus `ttl_rounds` is the §7.1 long-run soak: paths
// arrive, idle out and are evicted, arenas compact, the store's cursor GC
// drains, and the same config with `ttl_rounds=0` is the grow-only fleet
// it is compared against (churn_soak_test).  ScenarioOutcome::arenas and
// `lifecycle.compactions` / `lifecycle.reclaimed_arena_bytes` depend on
// `shards`, because each shard cache compacts its own arena; evictions
// and findings do not.
//
// Route flaps rebuild every HOP's path table mid-run under the PR-5
// lifecycle machinery (open receipts drain first, so nothing is
// orphaned).  Every crash_every round, after the round is published and
// before it is polled, the FetchClient fleet crashes and rebuilds from
// its acked cursors.  A segment store crashes with it: destroyed,
// optionally torn at its last segment's tail, reopened from disk, and
// re-sent every envelope it had accepted.  A crashed segment run's
// outcome then equals the memory run's outside the store's own
// accounting (store_crash_soak_test pins it).
//
// The outcome carries the verifier's findings NEXT TO the simulator's
// ground truth, so the scenario-grid suite can assert the §6 detection
// envelope per scenario class: honest runs stay clean, every lying
// domain's link is implicated, loss estimates track true loss.
//
// Determinism: identical config (including seed) => identical
// ScenarioOutcome, bit for bit — outcomes compare with == and every grid
// failure message carries ScenarioOutcome::repro, the one-line config
// string that reproduces the cell.
//
// Known modelling caveats (accepted, asserted around):
//   * adversary transforms run per reporting round, so a lie about a
//     packet whose truthful twin lands in the next round can surface as
//     an extra violation — detection assertions are presence-based, not
//     count-exact;
//   * lifecycle-eviction drains ship untransformed (an evicted path's
//     tail is truthful even at a lying domain);
//   * a colluding cover-up is invisible at the covered link by
//     construction (§3.1) — the grid asserts the blame DISPLACEMENT
//     (the covering domain absorbs the upstream liar's loss) instead.
#ifndef VPM_SIM_SCENARIO_ENGINE_HPP
#define VPM_SIM_SCENARIO_ENGINE_HPP

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/verifier.hpp"
#include "dissem/faulty_transport.hpp"
#include "dissem/storage.hpp"
#include "sim/scenario_config.hpp"

namespace vpm::sim {

/// Simulator ground truth for one path through one transit domain.
struct DomainTruth {
  std::uint64_t offered = 0;    ///< packets that entered (ingress HOP saw)
  std::uint64_t delivered = 0;  ///< packets that left (egress HOP saw)

  [[nodiscard]] double loss_rate() const noexcept {
    return offered == 0
               ? 0.0
               : 1.0 - static_cast<double>(delivered) /
                           static_cast<double>(offered);
  }
  friend bool operator==(const DomainTruth&, const DomainTruth&) = default;
};

/// The collectors' summed arena accounting after one round's lifecycle
/// pass: resident bytes, of which `live_bytes` are live slices and the
/// rest relocation and eviction garbage.
struct RoundArenas {
  std::size_t bytes = 0;
  std::size_t live_bytes = 0;
  friend bool operator==(const RoundArenas&, const RoundArenas&) = default;
};

struct ScenarioOutcome {
  core::PathLayout layout;
  std::vector<std::string> transit_domains;  ///< domains[1..N-2], in order
  /// The one-line repro string (cfg.to_string()) — every grid assertion
  /// appends it so a failing cell reproduces with a single command.
  std::string repro;

  std::uint64_t total_packets = 0;  ///< packets injected (post-flap/churn)
  std::uint64_t delivered_packets = 0;  ///< packets reaching the last HOP

  /// Per path: the verifier's findings, fed off the wire.
  std::vector<core::PathAnalysis> analysis;
  /// Per path: the materialized PathVerifier's findings over the delivered
  /// rounds only, replayed from the pre-fault archive.  Never has gaps;
  /// domains and links equal `analysis[p]`'s on any wire, and the whole
  /// analysis is equal when the wire lost nothing.
  std::vector<core::PathAnalysis> delivered_reference;
  /// Per hop: deduplicated dissemination gaps the fleet reported.
  std::vector<std::vector<core::RoundGap>> gaps;
  /// Per hop: sequences the transport destroyed (dropped or corrupted),
  /// ascending — the ground truth `gaps` must anchor at and cover.
  std::vector<std::vector<std::uint64_t>> lost_sequences;
  /// truth[path][t]: ground truth through transit_domains[t].
  std::vector<std::vector<DomainTruth>> truth;
  /// Per [hop][path]: packets the HOP observed vs packets its receipts
  /// counted on the wire (receipt conservation — equal on honest,
  /// fault-free runs even across route flaps and evictions).
  std::vector<std::vector<std::uint64_t>> observed_packets;
  std::vector<std::vector<std::uint64_t>> wire_packets;

  // End state: nothing stuck, nothing silently lost.
  std::vector<std::size_t> consumer_lag_end;  ///< per hop
  /// The store's retention at the end; `erased` and `segments_unlinked`
  /// sum every store incarnation.
  dissem::StorageStats storage_end;
  /// Wire arrivals the store refused, summed over store incarnations
  /// (re-sends after a store crash count in reingest_rejected).
  std::size_t store_rejected = 0;
  std::size_t client_rebuilds = 0;
  // Segment store crashes: tails torn, re-sent envelopes the reopened
  // store accepted (what a tear destroyed) and rejected, and the most
  // segment files live at any round's end.
  std::size_t torn_tails = 0;
  std::size_t reingest_accepted = 0;
  std::size_t reingest_rejected = 0;
  std::size_t segments_live_peak = 0;
  dissem::FaultStats wire;  ///< transport fault counts, summed over hops
  /// Retention casualties in the fleet-fed verifiers.
  std::uint64_t expired_unmatched = 0;
  std::uint64_t ack_rejections = 0;
  std::uint64_t gaps_reported = 0;   ///< raw, before deduplication
  std::uint64_t groups_delivered = 0;
  /// Every lifecycle pass summed over HOPs and rounds (all zero when
  /// ttl_rounds == 0).
  collector::LifecycleReport lifecycle;
  /// Per round: the arenas after that round's lifecycle pass, summed over
  /// HOPs.
  std::vector<RoundArenas> arenas;

  friend bool operator==(const ScenarioOutcome&,
                         const ScenarioOutcome&) = default;

  /// The false-positive bound: every path's links consistent and every
  /// reporting round delivered.
  [[nodiscard]] bool honest_clean() const;

  /// (upstream domain, downstream domain) pairs implicated by any path's
  /// link findings — sorted, deduplicated.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  implicated_links() const;

  /// Receipt-derived loss rate through `domain`, aggregated over paths.
  /// Throws std::invalid_argument unless `domain` is a transit domain.
  [[nodiscard]] double estimated_loss(const std::string& domain) const;
  /// Ground-truth loss rate through `domain`, aggregated over paths.
  /// Throws std::invalid_argument unless `domain` is a transit domain.
  [[nodiscard]] double true_loss(const std::string& domain) const;
};

/// Run one scenario.  `directory` roots a segment store (ignored for a
/// memory store); it must be empty or absent, and the caller removes it.
/// Deterministic per config.  Throws std::invalid_argument on malformed
/// configs: fewer than three domains, a negative domain_delay,
/// link_delay, jitter or max_diff, unknown loss/jitter/adversary domain
/// names, an adversary domain that is not a transit domain, two adversary
/// entries for one domain, a route flap withdrawing every path, a
/// link_down index out of range, a link_down or route flap starting after
/// the last round, a churn schedule with no pool (stable >= paths) or a
/// zero lifetime, a disabled link_down, route flap or churn schedule
/// (zero duration or zero live slots) with any other field set, a fault
/// rate outside [0, 1], fault delays the gap patience cannot cover,
/// store_shards == 0, a segment store without an empty directory, or
/// torn_tail without a segment store and crash_every.
[[nodiscard]] ScenarioOutcome run_scenario(
    const ScenarioConfig& cfg, const std::filesystem::path& directory = {});

}  // namespace vpm::sim

#endif  // VPM_SIM_SCENARIO_ENGINE_HPP
