// Receipt consistency checking (Section 4, "Receipt Consistency") over an
// inter-domain link: the verifiability machinery.
//
// For sample receipts from the two HOPs facing each other across a link
// (e.g. HOPs 5 and 6 of Fig. 1):
//   Eq. 1: both receipts must declare the same MaxDiff;
//   Eq. 2: for each commonly sampled packet, Time_down - Time_up must not
//          exceed MaxDiff.
// Beyond the paper's two equations, the disclosed thresholds make
// *omissions* checkable: every marker the upstream HOP delivered must
// appear downstream (§5.3), and any packet q with
// SampleFcn(q, marker) > sigma_downstream must too.  A violation means
// either a faulty link or a lie — exactly the paper's dichotomy; the
// verifier discards the receipts and notifies both neighbours, exposing a
// liar to the domain it implicated (§3.1).
//
// For aggregate receipts, counts must agree on every joined aggregate
// after patch-up: a correct link neither loses nor invents packets.
#ifndef VPM_CORE_CONSISTENCY_HPP
#define VPM_CORE_CONSISTENCY_HPP

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "core/function_ref.hpp"
#include "core/receipt.hpp"
#include "net/time.hpp"

namespace vpm::core {

enum class InconsistencyKind : std::uint8_t {
  kMaxDiffMismatch,    ///< Eq. 1 violated
  kDelayBound,         ///< Eq. 2 violated
  kMissingDownstream,  ///< upstream-delivered sample absent downstream
  kMissingUpstream,    ///< downstream sample upstream should have reported
  kMarkerMissing,      ///< an upstream marker absent downstream (§5.3)
  kCountMismatch,      ///< joined-aggregate counts differ
  kNegativeLoss,       ///< downstream counted more packets than upstream
};

[[nodiscard]] std::string to_string(InconsistencyKind k);

struct Inconsistency {
  InconsistencyKind kind;
  net::PacketDigest pkt_id = 0;  ///< offending packet (0 for aggregates)
  double magnitude = 0.0;        ///< ms over bound, or packet-count delta

  friend bool operator==(const Inconsistency&,
                         const Inconsistency&) = default;
};

struct LinkSampleCheck {
  std::size_t rounds_matched = 0;
  std::size_t common_samples = 0;
  std::vector<Inconsistency> violations;
  [[nodiscard]] bool consistent() const noexcept {
    return violations.empty();
  }
  /// Cross-link residence times (ms) of commonly sampled packets — used
  /// to monitor the link itself.  Per matched sampling round: the
  /// marker's, then the round's other packets in ascending id order.
  std::vector<double> link_delays_ms;

  friend bool operator==(const LinkSampleCheck&,
                         const LinkSampleCheck&) = default;
};

/// Check two sample receipts across one inter-domain link.  `up` is the
/// delivering HOP's receipt, `down` the receiving HOP's.
[[nodiscard]] LinkSampleCheck check_link_samples(const SampleReceipt& up,
                                                 const SampleReceipt& down);

struct LinkAggregateCheck {
  std::size_t aggregates_checked = 0;
  std::vector<Inconsistency> violations;
  [[nodiscard]] bool consistent() const noexcept {
    return violations.empty();
  }
  friend bool operator==(const LinkAggregateCheck&,
                         const LinkAggregateCheck&) = default;
};

/// Check aggregate receipts across one link: after alignment/patch-up,
/// every joined aggregate's counts must be equal (a correct link loses
/// nothing).
[[nodiscard]] LinkAggregateCheck check_link_aggregates(
    std::span<const AggregateReceipt> up,
    std::span<const AggregateReceipt> down);

// --- Round-fed consistency (incremental verifier support) -----------------
//
// check_link_samples works round by round: markers delimit sampling rounds
// and matching rounds pair by marker id.  The pieces below are its loop
// body and splitter, exposed so a round-fed verifier can run the SAME
// checks incrementally — pairing rounds as they arrive and retiring them —
// instead of materializing both HOPs' full sample streams.

/// One marker-delimited sampling round (markers are always sampled, §5.3).
struct SampleRound {
  net::PacketDigest marker_id = 0;
  net::Timestamp marker_time;
  /// Non-marker records of the round as (packet id, time), one per id in
  /// ascending id order; a repeated id keeps its first record in stream
  /// order.
  std::vector<std::pair<net::PacketDigest, net::Timestamp>> records;
};

/// Splits a sample stream into rounds across multiple feeds: records
/// accumulate into the open round until a marker completes it.  A round
/// straddling two reporting drains reassembles exactly as it would in the
/// concatenated receipt.  Records after the last marker stay pending
/// (their pairing fate is undecided) — for honest receipts Algorithm 1
/// never emits trailing records, so a finished stream leaves nothing.
class SampleRoundSplitter {
 public:
  /// Feed the next slice of the stream; completed rounds are handed to
  /// `on_round` in stream order, their records sorted once, when the
  /// marker closes the round.
  void feed(std::span<const SampleRecord> records,
            FunctionRef<void(SampleRound&&)> on_round);

 private:
  SampleRound current_;
};

/// Check one matched (up, down) round pair — the loop body of
/// check_link_samples.  `max_diff` is the upstream HOP's disclosed bound
/// (Eq. 1 made them agree); the sigmas are the two HOPs' disclosed sample
/// thresholds for the omission checks (§5.2/§5.3).  Accumulates matches,
/// link delays and violations into `out` (rounds_matched included): the
/// marker's delay first, then the up round's records in ascending id
/// order (delay, Eq.-2 and kMissingDownstream output), then the down
/// round's in ascending id order (kMissingUpstream).  Each round is walked
/// once, as a merge against the other.
void check_sample_round_pair(const SampleRound& up, const SampleRound& down,
                             net::Duration max_diff,
                             std::uint32_t up_sample_threshold,
                             std::uint32_t down_sample_threshold,
                             LinkSampleCheck& out);

/// The per-joined-aggregate count rule of check_link_aggregates: appends
/// the violation for one aligned aggregate, if any.
void check_aligned_counts(const AlignedAggregate& a,
                          std::vector<Inconsistency>& out);

}  // namespace vpm::core

#endif  // VPM_CORE_CONSISTENCY_HPP
