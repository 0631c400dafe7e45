// Cell builders and assertion helpers for the scenario detection-envelope
// grid: scenario classes x loss models x digest modes, each cell one
// run_scenario call.  The fault soak shares the gap-exactness and
// delivered-round checks, the churn soak the materialized-reference one.
//
// Every assertion helper returns a testing::AssertionResult whose failure
// message embeds the cell's one-line repro string
// (ScenarioOutcome::repro, which always carries name and seed): paste it
// into `example_scenario_run '<repro>'` and the exact failing run
// re-executes outside the test harness.
#ifndef VPM_TESTS_SCENARIO_GRID_HPP
#define VPM_TESTS_SCENARIO_GRID_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario_engine.hpp"

namespace vpm::test {

inline const char* loss_tag(sim::LossKind k) {
  switch (k) {
    case sim::LossKind::kNone:
      return "none";
    case sim::LossKind::kBernoulli:
      return "bernoulli";
    case sim::LossKind::kGilbertElliott:
      return "ge";
    case sim::LossKind::kCongestion:
      return "congestion";
  }
  return "?";
}

inline const char* mode_tag(net::DigestMode m) {
  return m == net::DigestMode::kSingle ? "single" : "independent";
}

/// The loss models every scenario class crosses with.
inline constexpr sim::LossKind kGridLossKinds[] = {
    sim::LossKind::kBernoulli,
    sim::LossKind::kGilbertElliott,
    sim::LossKind::kCongestion,
};

inline constexpr net::DigestMode kGridModes[] = {
    net::DigestMode::kSingle,
    net::DigestMode::kIndependent,
};

/// Base cell: the S -> X -> N -> D chain with the configured loss process
/// inside X.  The congestion bottleneck is sized so every seed actually
/// drops (~10%); fake_delay equals the real traversal delay, the
/// plausible lie.
inline sim::ScenarioConfig grid_cell(const char* cls, sim::LossKind loss,
                                     net::DigestMode mode,
                                     std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.name = std::string(cls) + "-" + loss_tag(loss) + "-" + mode_tag(mode);
  cfg.seed = seed;
  cfg.domains = {"S", "X", "N", "D"};
  cfg.digest_mode = mode;
  cfg.loss = loss;
  cfg.loss_rate = 0.03;
  cfg.loss_burst = 4.0;
  cfg.congestion_bps = 30e6;
  cfg.fake_delay = cfg.domain_delay;
  return cfg;
}

inline sim::ScenarioConfig honest_cell(sim::LossKind loss,
                                       net::DigestMode mode,
                                       std::uint64_t seed) {
  return grid_cell("honest", loss, mode, seed);
}

inline sim::ScenarioConfig hide_loss_cell(sim::LossKind loss,
                                          net::DigestMode mode,
                                          std::uint64_t seed) {
  sim::ScenarioConfig cfg = grid_cell("hide", loss, mode, seed);
  cfg.adversaries = {{"X", sim::AdversaryKind::kHideLoss}};
  return cfg;
}

inline sim::ScenarioConfig understate_cell(sim::LossKind loss,
                                           net::DigestMode mode,
                                           std::uint64_t seed) {
  sim::ScenarioConfig cfg = grid_cell("shave", loss, mode, seed);
  cfg.adversaries = {{"X", sim::AdversaryKind::kUnderstateDelay}};
  cfg.shave = net::milliseconds(10);  // > max_diff: over the Eq. 2 bound
  return cfg;
}

inline sim::ScenarioConfig collusion_cell(sim::LossKind loss,
                                          net::DigestMode mode,
                                          std::uint64_t seed) {
  sim::ScenarioConfig cfg = grid_cell("collude", loss, mode, seed);
  cfg.adversaries = {{"X", sim::AdversaryKind::kHideLoss},
                     {"N", sim::AdversaryKind::kCoverUpstream}};
  return cfg;
}

inline sim::ScenarioConfig link_down_cell(sim::LossKind loss,
                                          net::DigestMode mode,
                                          std::uint64_t seed) {
  sim::ScenarioConfig cfg = grid_cell("linkdown", loss, mode, seed);
  cfg.link_down = {.link = 1, .round = 2, .duration_rounds = 2};  // X -> N
  return cfg;
}

inline sim::ScenarioConfig jitter_cell(sim::LossKind loss,
                                       net::DigestMode mode,
                                       std::uint64_t seed) {
  sim::ScenarioConfig cfg = grid_cell("jitter", loss, mode, seed);
  cfg.jitter_domain = "N";  // reorder in the honest downstream neighbour
  cfg.jitter = net::milliseconds(3);
  return cfg;
}

// ---------------------------------------------------------------- asserts

/// Zero false positives: every link consistent, every round delivered.
inline testing::AssertionResult is_clean(const sim::ScenarioOutcome& out) {
  if (out.honest_clean()) return testing::AssertionSuccess();
  auto result = testing::AssertionFailure();
  for (const auto& [up, down] : out.implicated_links()) {
    result << "implicated " << up << "->" << down << "; ";
  }
  for (const auto& per_hop : out.gaps) {
    for (const core::RoundGap& g : per_hop) {
      result << "gap " << g.producer << " seq [" << g.first_sequence << ","
             << g.last_sequence << "]; ";
    }
  }
  return result << "repro: " << out.repro;
}

/// Receipt conservation: every packet a HOP observed is counted by
/// exactly one wire-delivered aggregate (honest, fault-free runs).
inline testing::AssertionResult conserves_receipts(
    const sim::ScenarioOutcome& out) {
  for (std::size_t h = 0; h < out.observed_packets.size(); ++h) {
    for (std::size_t p = 0; p < out.observed_packets[h].size(); ++p) {
      if (out.observed_packets[h][p] != out.wire_packets[h][p]) {
        return testing::AssertionFailure()
               << "hop " << h + 1 << " path " << p << ": observed "
               << out.observed_packets[h][p] << " != wire "
               << out.wire_packets[h][p] << "; repro: " << out.repro;
      }
    }
  }
  return testing::AssertionSuccess();
}

/// Loss localisation: the receipt-estimated loss through `domain` is
/// within `tol` of the simulator's ground truth.
inline testing::AssertionResult loss_tracks_truth(
    const sim::ScenarioOutcome& out, const std::string& domain, double tol) {
  const double est = out.estimated_loss(domain);
  const double truth = out.true_loss(domain);
  if (std::abs(est - truth) <= tol) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "domain " << domain << ": estimated " << est << " vs true "
         << truth << " (tol " << tol << "); repro: " << out.repro;
}

/// Detection: exactly the (up, down) link is implicated, nothing else.
inline testing::AssertionResult only_implicates(
    const sim::ScenarioOutcome& out, const std::string& up,
    const std::string& down) {
  const auto links = out.implicated_links();
  if (links.size() == 1 && links[0] == std::make_pair(up, down)) {
    return testing::AssertionSuccess();
  }
  auto result = testing::AssertionFailure()
                << "want exactly " << up << "->" << down << ", got [";
  for (const auto& [u, d] : links) result << u << "->" << d << " ";
  return result << "]; repro: " << out.repro;
}

/// The §3.1 collusion outcome: no link implicated, the covering domain
/// absorbs the upstream liar's loss onto its own books.
inline testing::AssertionResult blame_displaced(
    const sim::ScenarioOutcome& out, const std::string& liar,
    const std::string& cover, double tol) {
  if (!out.honest_clean()) {
    return testing::AssertionFailure()
           << "collusion should be invisible at the covered link; repro: "
           << out.repro;
  }
  const double liar_est = out.estimated_loss(liar);
  const double displaced = out.estimated_loss(cover);
  const double hidden = out.true_loss(liar);
  if (liar_est <= tol && std::abs(displaced - hidden) <= tol) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << liar << " shows " << liar_est << " (want ~0), " << cover
         << " shows " << displaced << " (want ~" << hidden
         << "); repro: " << out.repro;
}

/// Gap exactness: every reported gap is anchored at a sequence the
/// transport destroyed, and every destroyed sequence lies inside a gap —
/// reordering, delay and duplication alone never degrade into a gap.
inline testing::AssertionResult gaps_match_losses(
    const sim::ScenarioOutcome& out) {
  if (out.gaps.size() != out.lost_sequences.size()) {
    return testing::AssertionFailure()
           << "gaps and lost_sequences disagree on the hop count; repro: "
           << out.repro;
  }
  for (std::size_t h = 0; h < out.gaps.size(); ++h) {
    const std::vector<std::uint64_t>& lost = out.lost_sequences[h];
    for (const core::RoundGap& g : out.gaps[h]) {
      if (g.first_sequence > g.last_sequence ||
          !std::binary_search(lost.begin(), lost.end(), g.first_sequence)) {
        return testing::AssertionFailure()
               << "hop " << h + 1 << ": gap [" << g.first_sequence << ","
               << g.last_sequence
               << "] is not anchored at a destroyed sequence; repro: "
               << out.repro;
      }
    }
    for (const std::uint64_t seq : lost) {
      const bool covered = std::any_of(
          out.gaps[h].begin(), out.gaps[h].end(),
          [seq](const core::RoundGap& g) {
            return g.first_sequence <= seq && seq <= g.last_sequence;
          });
      if (!covered) {
        return testing::AssertionFailure()
               << "hop " << h + 1 << ": destroyed seq " << seq
               << " was never reported as a gap; repro: " << out.repro;
      }
    }
  }
  return testing::AssertionSuccess();
}

/// The delivered-round oracle: the reference has no gaps, and every
/// path's domain and link findings equal it — delivered rounds verify as
/// if the wire had lost nothing.
inline testing::AssertionResult delivered_rounds_verify(
    const sim::ScenarioOutcome& out) {
  if (out.analysis.size() != out.delivered_reference.size()) {
    return testing::AssertionFailure()
           << "no reference per path; repro: " << out.repro;
  }
  for (std::size_t p = 0; p < out.analysis.size(); ++p) {
    const core::PathAnalysis& ref = out.delivered_reference[p];
    if (!ref.complete()) {
      return testing::AssertionFailure()
             << "path " << p << ": the reference has gaps; repro: "
             << out.repro;
    }
    if (out.analysis[p].domains != ref.domains ||
        out.analysis[p].links != ref.links) {
      return testing::AssertionFailure()
             << "path " << p
             << ": delivered rounds verify differently from the fault-free "
                "reference over the same rounds; repro: "
             << out.repro;
    }
  }
  return testing::AssertionSuccess();
}

/// Round-fed equals materialized: every path's whole analysis, gaps
/// included, equals the materialized reference's.  Holds on a perfect
/// wire, where the reference replays every round the fleet verified.
inline testing::AssertionResult matches_materialized(
    const sim::ScenarioOutcome& out) {
  if (out.analysis.size() != out.delivered_reference.size()) {
    return testing::AssertionFailure()
           << "no reference per path; repro: " << out.repro;
  }
  for (std::size_t p = 0; p < out.analysis.size(); ++p) {
    if (!(out.analysis[p] == out.delivered_reference[p])) {
      return testing::AssertionFailure()
             << "path " << p
             << ": round-fed findings differ from the materialized "
                "verifier's; repro: "
             << out.repro;
    }
  }
  return testing::AssertionSuccess();
}

// ----------------------------------------------------------- cell checks

enum class GridClass {
  kHonest,
  kHideLoss,
  kUnderstate,
  kCollusion,
  kLinkDown,
  kJitter,
};

inline constexpr GridClass kGridClasses[] = {
    GridClass::kHonest,   GridClass::kHideLoss, GridClass::kUnderstate,
    GridClass::kCollusion, GridClass::kLinkDown, GridClass::kJitter,
};

inline sim::ScenarioConfig build_cell(GridClass cls, sim::LossKind loss,
                                      net::DigestMode mode,
                                      std::uint64_t seed) {
  switch (cls) {
    case GridClass::kHonest:
      return honest_cell(loss, mode, seed);
    case GridClass::kHideLoss:
      return hide_loss_cell(loss, mode, seed);
    case GridClass::kUnderstate:
      return understate_cell(loss, mode, seed);
    case GridClass::kCollusion:
      return collusion_cell(loss, mode, seed);
    case GridClass::kLinkDown:
      return link_down_cell(loss, mode, seed);
    case GridClass::kJitter:
      return jitter_cell(loss, mode, seed);
  }
  return honest_cell(loss, mode, seed);
}

/// Run one grid cell and assert its class's slice of the detection
/// envelope.  Loss estimates are count-exact in this engine (receipts
/// count every packet, honest fault-free joins are complete), so the
/// localisation bound is tight.
inline void check_cell(GridClass cls, sim::LossKind loss,
                       net::DigestMode mode, std::uint64_t seed) {
  const sim::ScenarioConfig cfg = build_cell(cls, loss, mode, seed);
  const sim::ScenarioOutcome out = sim::run_scenario(cfg);
  SCOPED_TRACE("repro: " + out.repro);
  constexpr double kLossTol = 1e-9;

  // Every cell's loss process must actually bite, or the adversary
  // classes assert detection of a lie never told.
  EXPECT_GT(out.true_loss("X"), 0.0) << "vacuous cell; repro: " << out.repro;
  // Every cell runs a perfect wire.
  EXPECT_TRUE(matches_materialized(out));

  switch (cls) {
    case GridClass::kHonest:
    case GridClass::kJitter:
      EXPECT_TRUE(is_clean(out));
      EXPECT_TRUE(conserves_receipts(out));
      EXPECT_TRUE(loss_tracks_truth(out, "X", kLossTol));
      EXPECT_TRUE(loss_tracks_truth(out, "N", kLossTol));
      break;
    case GridClass::kHideLoss:
      EXPECT_TRUE(only_implicates(out, "X", "N"));
      // The lie works on X's own books: its receipts claim zero loss.
      EXPECT_LE(out.estimated_loss("X"), kLossTol)
          << "repro: " << out.repro;
      break;
    case GridClass::kUnderstate:
      EXPECT_TRUE(only_implicates(out, "X", "N"));
      // Aggregates are untouched by the delay lie: loss stays exact.
      EXPECT_TRUE(loss_tracks_truth(out, "X", kLossTol));
      break;
    case GridClass::kCollusion:
      EXPECT_TRUE(blame_displaced(out, "X", "N", kLossTol));
      break;
    case GridClass::kLinkDown:
      // Packets die ON the link: both ends report honestly and the link
      // is implicated without either domain lying (§3.1: the verifier
      // cannot tell a lying neighbour from a faulty link — it names the
      // pair).  Loss INSIDE X is still localised exactly.
      EXPECT_TRUE(only_implicates(out, "X", "N"));
      EXPECT_TRUE(loss_tracks_truth(out, "X", kLossTol));
      break;
  }
}

}  // namespace vpm::test

#endif  // VPM_TESTS_SCENARIO_GRID_HPP
