// The receipt collector / verifier: computes each domain's loss and delay
// from receipts and cross-checks neighbours' receipts for consistency
// (Sections 2.2 and 4).
//
// Everything here consumes *receipts only* — never simulator ground truth
// — so the code path is exactly what a real deploying domain would run.
#ifndef VPM_CORE_VERIFIER_HPP
#define VPM_CORE_VERIFIER_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/consistency.hpp"
#include "core/receipt.hpp"
#include "net/path_id.hpp"
#include "stats/delay_accuracy.hpp"
#include "stats/quantile.hpp"

namespace vpm::core {

/// Delay through one domain, estimated from commonly sampled packets at
/// its ingress/egress HOPs (Section 4, "Receipt-based Statistics").
struct DomainDelayReport {
  std::size_t common_samples = 0;
  /// Per-packet delays (ms) of the commonly sampled packets.
  std::vector<double> sample_delays_ms;
  /// Quantile estimates with confidence intervals ([20]-style).
  std::vector<stats::QuantileEstimate> quantiles;
  [[nodiscard]] bool usable() const noexcept { return common_samples > 0; }
  friend bool operator==(const DomainDelayReport&,
                         const DomainDelayReport&) = default;
};

/// Loss through one domain, computed from joined aggregates.
struct DomainLossReport {
  std::uint64_t offered = 0;    ///< packets counted at ingress
  std::uint64_t delivered = 0;  ///< packets counted at egress
  std::size_t joined_aggregates = 0;
  std::size_t patchup_migrations = 0;
  /// Mean/max time (s) spanned by one joined aggregate: the granularity at
  /// which loss is computable (Fig. 3's y-axis).
  double mean_granularity_s = 0.0;
  double max_granularity_s = 0.0;
  std::vector<AlignedAggregate> details;

  [[nodiscard]] double loss_rate() const noexcept {
    return offered == 0
               ? 0.0
               : 1.0 - static_cast<double>(delivered) /
                           static_cast<double>(offered);
  }
  friend bool operator==(const DomainLossReport&,
                         const DomainLossReport&) = default;
};

/// Consistency verdict for one inter-domain link.
struct LinkReport {
  LinkSampleCheck samples;
  LinkAggregateCheck aggregates;
  [[nodiscard]] bool consistent() const noexcept {
    return samples.consistent() && aggregates.consistent();
  }
  [[nodiscard]] std::size_t violation_count() const noexcept {
    return samples.violations.size() + aggregates.violations.size();
  }
  friend bool operator==(const LinkReport&, const LinkReport&) = default;
};

/// How the path's HOPs map to domains, for attribution (the verifier
/// learns this from BGP/peering data; here it is supplied).
struct PathLayout {
  /// HOPs in path order (Fig. 1: 1..8).
  std::vector<net::HopId> hops;
  /// domain_of[i] names the domain owning hops[i].
  std::vector<std::string> domain_of;

  friend bool operator==(const PathLayout&, const PathLayout&) = default;
};

struct DomainFinding {
  std::string domain;
  net::HopId ingress = net::kNoHop;
  net::HopId egress = net::kNoHop;
  DomainDelayReport delay;
  DomainLossReport loss;

  friend bool operator==(const DomainFinding&,
                         const DomainFinding&) = default;
};

struct LinkFinding {
  std::string upstream_domain;
  std::string downstream_domain;
  net::HopId upstream_hop = net::kNoHop;
  net::HopId downstream_hop = net::kNoHop;
  LinkReport report;
  /// When inconsistent, these two domains are mutually implicated: one of
  /// them is lying or their shared link is faulty (§3.1's exposure
  /// argument).
  [[nodiscard]] bool implicates_pair() const noexcept {
    return !report.consistent();
  }
  friend bool operator==(const LinkFinding&, const LinkFinding&) = default;
};

/// A stretch of a producer's receipt stream that never reached the
/// verifier intact (ISSUE 6's graceful-degradation contract).  Lost or
/// corrupt envelopes do NOT silently deform findings: the consumer skips
/// the affected reporting round(s), records the damage here, and
/// resynchronizes at the next round close.  Findings over fully-delivered
/// rounds stay exact; the gap is the explicit record of what is missing.
struct RoundGap {
  enum class Cause : std::uint8_t {
    kLost,     ///< envelope(s) never arrived (dropped, MAC-rejected)
    kCorrupt,  ///< envelope arrived but its payload failed fatal decode
  };
  std::string producer;              ///< producer domain of the stream
  net::HopId hop = net::kNoHop;      ///< HOP whose rounds are missing
  std::uint64_t first_sequence = 0;  ///< envelope sequence range [first,
  std::uint64_t last_sequence = 0;   ///<   last] covered by the gap
  Cause cause = Cause::kLost;
  /// Wire path keys whose receipts were discarded during resync (empty
  /// for a pure loss — nothing was decoded to attribute).
  std::vector<std::uint64_t> affected_paths;
  friend bool operator==(const RoundGap&, const RoundGap&) = default;
};

struct PathAnalysis {
  std::vector<DomainFinding> domains;  ///< transit domains only
  std::vector<LinkFinding> links;
  /// Reporting rounds lost or corrupted in dissemination, in report
  /// order.  Empty on a fault-free (or fully-recovered) stream.
  std::vector<RoundGap> gaps;
  [[nodiscard]] bool all_links_consistent() const noexcept {
    for (const LinkFinding& l : links) {
      if (!l.report.consistent()) return false;
    }
    return true;
  }
  /// True when every reporting round reached the verifier intact.
  [[nodiscard]] bool complete() const noexcept { return gaps.empty(); }
  friend bool operator==(const PathAnalysis&, const PathAnalysis&) = default;
};

/// Collects receipts from every HOP of one path and answers queries.
class PathVerifier {
 public:
  /// Ingest one reporting round of receipts from `hop`: rounds concatenate
  /// per the collector's periodic-drain invariant, so N add_round calls
  /// equal one add_round of the combined drain.  This verifier stays the
  /// MATERIALIZED reference (memory grows with history); the round-fed
  /// production counterpart is core::IncrementalPathVerifier.
  void add_round(net::HopId hop, PathDrain round);

  [[nodiscard]] bool has_hop(net::HopId hop) const noexcept {
    return receipts_.contains(hop);
  }

  /// Delay through the domain whose ingress/egress HOPs are given, using
  /// only that domain's receipts.  Throws std::out_of_range for unknown
  /// HOPs.
  [[nodiscard]] DomainDelayReport domain_delay(
      net::HopId ingress, net::HopId egress,
      std::span<const double> quantiles = stats::kDelayQuantiles,
      double confidence = 0.95) const;

  /// Loss through the domain between the two HOPs.
  [[nodiscard]] DomainLossReport domain_loss(net::HopId ingress,
                                             net::HopId egress) const;

  /// Consistency check across the link between two facing HOPs.
  [[nodiscard]] LinkReport check_link(net::HopId up, net::HopId down) const;

  /// Full Fig.-1-style analysis: per-transit-domain loss/delay plus every
  /// link verdict.  Missing HOPs yield empty findings rather than throwing
  /// (partial deployment, Section 8).
  [[nodiscard]] PathAnalysis analyze(const PathLayout& layout) const;

 private:
  [[nodiscard]] const PathDrain& hop(net::HopId id) const;
  /// Each HOP's rounds so far, concatenated.
  std::map<net::HopId, PathDrain> receipts_;
};

}  // namespace vpm::core

#endif  // VPM_CORE_VERIFIER_HPP
