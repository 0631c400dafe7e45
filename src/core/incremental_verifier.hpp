// The round-fed, bounded-memory receipt verifier.
//
// PathVerifier materializes every HOP's receipts in a std::map and runs
// the Section 4 analyses over full sequences at query time — fine for one
// measurement run, O(history) for a domain verifying a path for months.
// IncrementalPathVerifier is the production counterpart: constructed with
// the PathLayout (so it knows which adjacent HOP pairs it must analyze),
// it ingests receipts one reporting round at a time — fed straight from
// WireImporter's recovered drains via core::DrainRoundSink — and retires
// raw receipts as soon as their pairwise analysis is final:
//
//   * cross-HOP delay matching holds only the ingress samples still
//     waiting for their egress twin (evicted after `retain_rounds`);
//   * link sample-consistency pairs marker-delimited sampling rounds as
//     they complete, FIFO per link, and retires a matched pair
//     immediately (an upstream round unmatched after `retain_rounds` is
//     declared kMarkerMissing, exactly what the batch check concludes of
//     a marker that never appears downstream);
//   * aggregate alignment keeps an AggregateTail per pair and consumes
//     the stable aligned prefix after every round
//     (core::consume_aligned_prefix), so an aggregate receipt — held as
//     its prepared entry: cut, count, times, AggTrans windows and, once
//     counted, its closing boundary's §6.3 counts — lives only until a
//     margin of matched boundaries passes it.
//
// analyze() then returns the same PathAnalysis the materialized verifier
// computes over the full history — byte-identical findings whenever every
// receipt's counterpart arrives within the retention window (honest
// reporting; every scenario-grid cell, the fault soak's lossless cells and
// the churn soak's 52-round cells compare each path against run_scenario's
// materialized delivered-round reference), while
// resident state stays O(retained window + analysis product), not
// O(history).  One documented divergence on TAMPERED streams: sampling
// rounds pair match-ONCE here (a matched downstream round is retired for
// memory), while the batch checker would let duplicated upstream marker
// ids re-match one downstream round — the duplicate surfaces as
// kMarkerMissing instead of a repeated check, still a violation either
// way.
//
// Per-round cost follows the round, not the history, and the round path
// holds its state in flat vectors: nothing on it allocates per element.
// add_round touches only the HOP's (at most two) adjacent pairs: the
// round's ingress samples are sorted once and merged into a digest-sorted
// index that egress samples binary-search; sampling rounds are sorted by
// packet id when their marker closes them, so a matched pair of rounds is
// checked by two linear merges; the round's new delays are merged once
// into a kept-sorted copy; each new aggregate is prepared once for both
// pairs, its windows moved as they are out of the by-value drain; and a
// tail is re-aligned only when a receipt has joined it.  A round's few
// fresh entries sort and merge into a sorted index or copy without a heap
// buffer.  A re-alignment
// consumes the tail's stable prefix until a pass consumes nothing and
// keeps that pass's alignment.  It sorts the tail's cutting ids and reads,
// at each matched boundary, the counts the downstream entry kept — a
// boundary is re-aligned every round until the margin passes it, so its
// windows are read once, when it is first counted against its upstream
// receipt.
//
// The verifier keeps its findings.  A result add_round finalizes — a
// matched delay, a link delay, a sample or count violation, a consumed
// aligned group — waits in its pair's state until the next analyze(),
// which appends it to the kept PathAnalysis once; a reported gap is
// appended at once.  analyze() sorts no delay and no window, aligns
// nothing and copies no history: it replaces only the open suffix it
// appended on the previous call (delays behind a reserved egress slot,
// the tail's kept alignment and its count checks, pending sampling rounds
// resolved against what is resident) and re-reads the five quantiles off
// the sorted copy, so its cost follows the round and the open state.
#ifndef VPM_CORE_INCREMENTAL_VERIFIER_HPP
#define VPM_CORE_INCREMENTAL_VERIFIER_HPP

#include <cstdint>
#include <vector>

#include "core/alignment.hpp"
#include "core/consistency.hpp"
#include "core/receipt.hpp"
#include "core/verifier.hpp"
#include "net/path_id.hpp"

namespace vpm::core {

class IncrementalPathVerifier {
 public:
  struct Config {
    /// How the path's HOPs map to domains — fixed at construction, since
    /// pairwise running state exists per adjacent HOP pair.
    PathLayout layout;
    /// Rounds an unmatched cross-HOP sample or sampling round waits for
    /// its counterpart before being finalized (expired ingress entries /
    /// kMarkerMissing verdicts).  Honest counterparts arrive within one
    /// round (a packet in flight at a drain shows up in the next), so a
    /// small window preserves batch equality.  Must be >= 1.
    std::uint64_t retain_rounds = 4;
    /// Matched aggregate boundaries kept unconsumed behind each alignment
    /// tail (see core::consume_aligned_prefix).
    std::size_t margin_boundaries = 2;
  };

  /// Throws std::invalid_argument on a malformed layout (size mismatch or
  /// a HOP id listed twice) or a zero retention window.
  explicit IncrementalPathVerifier(Config cfg);

  /// Ingest one reporting round of receipts from `hop` (must appear in
  /// the layout).  Feed rounds in reporting order per hop and, within one
  /// reporting round, upstream HOPs before downstream ones — the order
  /// receipts become available in a deployment, and the order that lets
  /// cross-HOP matching retire state immediately.
  void add_round(net::HopId hop, PathDrain round);

  /// Record a dissemination gap: reporting round(s) from one HOP that
  /// were lost or corrupted in transit and will never be fed.  The
  /// verifier keeps running on whatever does arrive — cross-HOP state
  /// whose counterpart fell in the gap ages out through the normal
  /// retention path — and the gap joins the findings' `gaps` verbatim at
  /// once, so no absence is silent.
  void report_gap(RoundGap gap);

  /// Gaps reported so far, in report order.
  [[nodiscard]] const std::vector<RoundGap>& gaps() const noexcept {
    return findings_.gaps;
  }

  /// The Fig.-1-style findings over everything ingested so far, which
  /// the verifier keeps.  analyze() brings them up to date at a cost that
  /// follows the rounds since the last call and the open state, not the
  /// history, so it is callable every round.  A pair whose two HOPs have
  /// not both reported yields an empty finding (partial deployment,
  /// exactly like the materialized analyze()) while its finalized results
  /// wait.
  ///
  /// The reference lives as long as the verifier.  Its contents are
  /// current until the next analyze() call, which updates them in place
  /// (a reported gap joins `gaps` at once); a caller that needs a
  /// snapshot copies it.
  [[nodiscard]] const PathAnalysis& analyze();

  [[nodiscard]] std::uint64_t rounds_ingested(net::HopId hop) const;

  /// Resident-state accounting for the bounded-memory claim.  The first
  /// three are the O(retained window) working set; the retained_* figures
  /// are the analysis product itself (delays and joined aggregates appear
  /// verbatim in the findings).
  struct ResidentStats {
    std::size_t pending_ingress_samples = 0;
    /// Egress samples buffered for an upstream round still in transit —
    /// nonzero only while cross-HOP feeds are out of order.
    std::size_t pending_egress_samples = 0;
    std::size_t pending_sample_rounds = 0;
    std::size_t tail_aggregate_receipts = 0;
    std::size_t retained_delays = 0;
    std::size_t retained_aligned_groups = 0;
    /// Entries dropped unmatched past the retention window (0 under
    /// honest in-window reporting).
    std::uint64_t expired_unmatched = 0;
  };
  [[nodiscard]] ResidentStats resident_stats() const;

 private:
  /// One layout position's HOP: rounds ingested, and receipt metadata
  /// captured from its first round (stable across an honest HOP's rounds;
  /// the combined batch receipt reports the first).
  struct HopState {
    std::uint64_t rounds = 0;
    net::Duration max_diff{0};
    std::uint32_t sample_threshold = 0;
  };

  /// Cross-HOP delay matching for a same-domain pair.
  ///
  /// The ingress index is a digest-sorted vector: a round's ingress
  /// records are sorted once and merged in, egress samples binary-search
  /// it, and expiry is one pass over it.
  ///
  /// Each delay is kept twice, 8 B a copy: in the findings in egress
  /// observation order (the order the batch matcher reports) and in
  /// `sorted` ascending (the order statistics the quantiles read).  A
  /// delay reaches the findings through `slots`, which holds the egress
  /// order from where the findings' kept prefix ends: analyze() moves the
  /// slots before the first reserved one into the kept prefix and appends
  /// the rest as the open suffix.  add_round merges the round's new
  /// delays into `sorted` once.
  struct DelayState {
    struct Entry {
      net::PacketDigest digest = 0;
      net::Timestamp time;
      std::uint64_t round = 0;  ///< pair clock when inserted
      bool matched = false;     ///< some egress sample paired with it
    };
    /// An egress sample whose ingress twin has not been fed yet.  Each
    /// HOP's stream arrives through its own fetch loop, so a downstream
    /// round can land polls before its upstream counterpart (backoff, gap
    /// patience); buffering this side symmetrically makes the match
    /// independent of cross-HOP feed order within the retention window.
    /// The sample reserves its place in `slots` when it arrives, and the
    /// match fills it; if it expires unmatched, the slot is removed.
    struct PendingEgress {
      net::PacketDigest digest = 0;
      net::Timestamp time;
      std::size_t slot = 0;     ///< reserved index into `slots`
      std::uint64_t round = 0;  ///< pair clock when buffered
    };
    /// The ingress samples inside retention, one entry per digest,
    /// ascending by digest.  A digest keeps its first record (an earlier
    /// round's, or the first in its round's stream) until it expires, as
    /// the batch matcher's `emplace` keeps it.
    std::vector<Entry> ingress_times;
    /// In egress stream order, so the reserved slots ascend.
    std::vector<PendingEgress> pending_egress;
    /// Delay (ms) of every matched egress sample past the findings' kept
    /// prefix, in egress stream order, plus one unread placeholder per
    /// pending_egress entry.
    std::vector<double> slots;
    /// The matched delays, ascending.
    std::vector<double> sorted;
    std::size_t kept = 0;  ///< delays in the findings' kept prefix
    std::uint64_t expired = 0;
  };

  /// Sums over joined aggregates in the findings' order.  analyze()
  /// continues the kept groups' sums over the tail's groups, so every
  /// double is the in-order sum over all of them, bit for bit.
  struct LossTotals {
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    double duration_s = 0.0;
    double max_duration_s = 0.0;
    void add(const AlignedAggregate& g);
  };

  /// Aggregate alignment for a same-domain pair (loss report).
  struct LossState {
    /// Groups consumed since the last analyze(), which appends them to
    /// the findings' kept prefix.
    std::vector<AlignedAggregate> groups;
    std::size_t kept = 0;  ///< groups in the findings' kept prefix
    LossTotals kept_totals;
    std::size_t consumed_migrations = 0;
  };

  /// Sampling-round pairing for an inter-domain link.  Both round queues
  /// are vectors, a few rounds long for honest HOPs but as long as a HOP
  /// makes them inside the retention window: a settle erases the resolved
  /// front of `pending_up` once, each head finds its downstream round by
  /// binary search, and one pass over `down_rounds` drops the claimed and
  /// the expired rounds.
  struct LinkSamplesState {
    struct Stamped {
      SampleRound round;
      std::uint64_t seen;    ///< pair clock when completed
      bool claimed = false;  ///< downstream round matched by this settle
    };
    SampleRoundSplitter up_splitter;
    SampleRoundSplitter down_splitter;
    /// Upstream rounds in stream order, resolved FIFO from the front
    /// (the batch check's order).
    std::vector<Stamped> pending_up;
    /// Unclaimed downstream rounds (a claimed one leaves in its settle's
    /// expiry pass) ascending by marker id, one per id: a feed's rounds
    /// are sorted and merged in, and a round repeating a resident marker,
    /// or one earlier in its feed, is dropped, as the batch check's index
    /// keeps the first.
    std::vector<Stamped> down_rounds;
    /// The finalized rounds' output: match counts over all of them, but
    /// only the violations and link delays finalized since the last
    /// analyze(), which appends them to the findings' kept prefix.  The
    /// Eq.-1 MaxDiff verdict joins it, ahead of everything, when the
    /// link's second HOP reports its first round.
    LinkSampleCheck settled;
    std::size_t kept_violations = 0;  ///< in the findings' kept prefix
    std::size_t kept_delays = 0;      ///< in the findings' kept prefix
    std::uint64_t expired = 0;
  };

  /// Aggregate count-consistency for an inter-domain link.
  struct LinkAggregatesState {
    std::size_t checked = 0;  ///< consumed groups
    /// Count violations of the groups consumed since the last analyze().
    std::vector<Inconsistency> violations;
    std::size_t kept = 0;  ///< violations in the findings' kept prefix
  };

  /// What both kinds of pair hold: where they sit, and the aggregates
  /// both HOPs reported that alignment has not yet finalized — the loss
  /// report's for a domain, the count check's for a link.
  struct PairBase {
    std::size_t up_pos = 0;  ///< joins layout positions up_pos, up_pos + 1
    AggregateTail tail;
    /// The alignment of `tail` as the last consume_aligned_prefix pass,
    /// which consumed nothing, ran it; analyze() reads it.  add_round
    /// re-aligns a tail whenever a receipt joins it, so it is current
    /// whenever add_round returns.
    AlignmentResult tail_alignment;
  };
  /// A same-domain segment: its finding is findings_.domains at the same
  /// index.
  struct DomainPair : PairBase {
    DelayState delay;
    LossState loss;
  };
  /// An inter-domain link: its finding is findings_.links at the same
  /// index.
  struct LinkPair : PairBase {
    LinkSamplesState samples;
    LinkAggregatesState aggregates;
  };

  /// `hop`'s position in the layout, or layout.hops.size() if absent.
  [[nodiscard]] std::size_t position_of(net::HopId hop) const;
  [[nodiscard]] std::uint64_t pair_clock(const PairBase& p) const;
  [[nodiscard]] bool both_reported(const PairBase& p) const;
  /// Calls `f` with the pair joining layout positions up_pos, up_pos + 1.
  template <typename F>
  void with_pair(std::size_t up_pos, F&& f);
  void feed_samples(DomainPair& p, bool is_up, const SampleReceipt& samples);
  void feed_samples(LinkPair& p, bool is_up, const SampleReceipt& samples);
  /// Resolves and expires the pair's pending state; re-aligns its tail
  /// only if `tail_grew` (a receipt joined it in this feed).
  void settle_pair(DomainPair& p, bool tail_grew);
  void settle_pair(LinkPair& p, bool tail_grew);
  /// Consume the tail's stable prefix into `out` until a pass consumes
  /// nothing, and keep that pass's alignment.  Returns the patch-up
  /// migrations attributed to the consumed groups.
  std::size_t settle_tail(PairBase& p, std::vector<AlignedAggregate>& out);
  /// Bring one kept finding up to date (analyze()'s per-pair step).
  void refresh(DomainPair& p, DomainFinding& f);
  void refresh(LinkPair& p, LinkFinding& f);

  Config cfg_;
  std::vector<DomainPair> domain_pairs_;  ///< in layout order
  std::vector<LinkPair> link_pairs_;      ///< in layout order
  std::vector<HopState> hops_;            ///< indexed by layout position
  /// The kept findings.  Their `domains` and `links` are built by the
  /// first analyze(); reported gaps append to `gaps` at once.
  PathAnalysis findings_;
};

}  // namespace vpm::core

#endif  // VPM_CORE_INCREMENTAL_VERIFIER_HPP
