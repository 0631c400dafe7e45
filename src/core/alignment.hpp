// Receipt-level join and reorder patch-up (Sections 6.1-6.3).
//
// Two HOPs observing the same path report aggregate sequences that are
// nested when nothing goes wrong (subset property of cut points), but can
// misalign when a cutting packet is lost (boundary disappears downstream)
// or packets reorder across a boundary (counts shift by a packet or two).
//
// align_aggregates() walks both receipt sequences, matching boundaries by
// their cutting-packet id, accumulating (combining, in the Section 4
// sense) receipts between matched boundaries — the receipt-level
// realisation of Join.  With patch-up enabled it first migrates packets
// across matched boundaries using the AggTrans windows, exactly as the
// Section 6.3 example migrates p4 between HOP 4's aggregates.
//
// The kernel reads PreparedAggregates, not receipts: each AggTrans window
// is sorted once, when its receipt is prepared, and the migrations at a
// matched boundary are counted by one linear merge of the downstream
// receipt's windows against the upstream receipt's.  One kernel call over
// u upstream and d downstream entries sorts their u + d cutting ids and,
// at each matched boundary, merges the four windows there; it copies and
// sorts no window.  The batch entry points prepare their receipts once
// per call; a tail's entries are prepared once, when they join it.
//
// Boundary-order inversions: when two cutting points land within the
// reorder window of each other, they can swap across a link.  The §6.3
// pairwise migration assumes each boundary separates the same two
// aggregates at both HOPs, which no longer holds in a swapped
// neighbourhood — so patch-up skips migrations at inverted boundaries and
// the join coarsens across them on both sides (counts stay conserved; the
// affected region just reports at one-coarser granularity).
#ifndef VPM_CORE_ALIGNMENT_HPP
#define VPM_CORE_ALIGNMENT_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/receipt.hpp"

namespace vpm::core {

/// One joined aggregate with both HOPs' (possibly combined) counts.
struct AlignedAggregate {
  std::uint64_t up_count = 0;
  std::uint64_t down_count = 0;
  std::size_t up_receipts = 0;    ///< raw receipts combined on the up side
  std::size_t down_receipts = 0;  ///< ... and on the down side
  net::Timestamp up_opened;
  net::Timestamp up_closed;
  /// Cutting-packet id of the boundary that closed this joined aggregate
  /// (0 for the final, unbounded one).
  net::PacketDigest boundary_id = 0;

  /// Duration covered, by the upstream HOP's clock.
  [[nodiscard]] double duration_s() const {
    return (up_closed - up_opened).seconds();
  }
  /// Packets lost between the HOPs within this joined aggregate (negative
  /// means downstream counted MORE than upstream — an inconsistency).
  [[nodiscard]] std::int64_t lost() const {
    return static_cast<std::int64_t>(up_count) -
           static_cast<std::int64_t>(down_count);
  }
  friend bool operator==(const AlignedAggregate&,
                         const AlignedAggregate&) = default;
};

struct AlignmentResult {
  std::vector<AlignedAggregate> aligned;
  /// Boundaries present upstream but not downstream (e.g. cutting packet
  /// lost) and vice versa — these forced combining.
  std::size_t boundaries_merged_up = 0;
  std::size_t boundaries_merged_down = 0;
  std::size_t boundaries_matched = 0;
  /// Packets migrated across boundaries by patch-up.
  std::size_t migrations = 0;
  friend bool operator==(const AlignmentResult&,
                         const AlignmentResult&) = default;
};

/// What the alignment kernel reads of one aggregate receipt.  The path,
/// the AggId's last packet and the windows' order (beyond `after`'s first
/// id) play no part in alignment, so none is kept.
struct PreparedAggregate {
  net::PacketDigest cut_id = 0;  ///< agg.first: the cut that opened it
  /// The first id of the receipt's AggTrans `after` window: the cutting
  /// packet of the boundary that closed it, as the receipt reports it.
  /// Meaningful only while `after` is non-empty.
  net::PacketDigest closing_id = 0;
  std::uint32_t packet_count = 0;
  net::Timestamp opened_at;
  net::Timestamp closed_at;
  /// The AggTrans windows, ascending, duplicates kept.
  std::vector<net::PacketDigest> before;
  std::vector<net::PacketDigest> after;
};

/// Prepare receipts for alignment, in order: each AggTrans window moves
/// out of its receipt and is sorted in place.
[[nodiscard]] std::vector<PreparedAggregate> prepare_aggregates(
    std::vector<AggregateReceipt> receipts);

/// Join two aggregate-receipt sequences (observation order).  If
/// `apply_patchup`, AggTrans windows repair reorder-shifted counts first.
/// Either sequence may be empty (result has no aligned aggregates).
/// Prepares both sequences, then runs the kernel the tails use.
[[nodiscard]] AlignmentResult align_aggregates(
    std::span<const AggregateReceipt> up,
    std::span<const AggregateReceipt> down, bool apply_patchup = true);

/// Patch-up alone (exposed for tests and the reorder ablation): returns
/// `down` with counts adjusted to match `up`'s boundary assignments, plus
/// the number of migrations performed.
struct PatchupResult {
  std::vector<AggregateReceipt> down;
  std::size_t migrations = 0;
};
[[nodiscard]] PatchupResult patch_up(std::span<const AggregateReceipt> up,
                                     std::span<const AggregateReceipt> down);

// --- Incremental alignment (round-fed verifier support) -------------------
//
// A verifier ingesting reporting rounds for months cannot hold both HOPs'
// full aggregate sequences.  It holds an AggregateTail instead: the
// prepared entries of the receipts not yet absorbed into finalized
// aligned output.  After each round, consume_aligned_prefix() aligns the
// tails and consumes every aligned group up to a stability margin of
// matched boundaries — the alignment decisions in that prefix are final
// because align_aggregates' scan is forward and its merge/inversion tests
// only consult boundary ids in the consumed neighbourhood (receipts an
// honest peer ships within a round or two; the margin absorbs the
// in-flight lag).  Consumed entries leave the tail, so resident state is
// O(retained window), not O(history), and the concatenation  consumed
// groups ++ align_tail(tail).aligned  is the alignment of the full
// sequences.  A receipt's windows are sorted once, when it joins a tail;
// every later alignment of that tail merges them as they are.  A call
// that consumes nothing hands out the alignment it ran, so a caller that
// consumes until that happens holds the tail's alignment without running
// align_tail.

struct AggregateTail {
  std::vector<PreparedAggregate> up;
  std::vector<PreparedAggregate> down;
  /// Patch-up packets owed to down.front() by the migration at the last
  /// consumed seam boundary (its matching shift was already applied to
  /// the consumed neighbour).  Applied before every tail alignment.
  std::int64_t down_carry = 0;

  /// Append prepared receipts, in observation order, to one side.
  void append_up(std::vector<PreparedAggregate> entries);
  void append_down(std::vector<PreparedAggregate> entries);

  [[nodiscard]] std::size_t receipt_count() const noexcept {
    return up.size() + down.size();
  }
};

struct TailConsumeStats {
  std::size_t groups = 0;      ///< aligned groups consumed
  std::size_t migrations = 0;  ///< patch-up migrations attributed to them
};

/// Align `tail` and consume the stable prefix: every aligned group except
/// the final (unbounded) one and the last `margin_boundaries`
/// matched-boundary groups.  Consumed groups append to `out`; consumed
/// entries leave the tail and the seam migration shift rolls into
/// `tail.down_carry`.  No-op while either side is empty or the matched
/// count is within the margin; such a call moves the alignment it ran,
/// equal to align_tail(tail), into `unconsumed`.  A call that consumes
/// leaves `unconsumed` as it was.
TailConsumeStats consume_aligned_prefix(AggregateTail& tail,
                                        std::size_t margin_boundaries,
                                        std::vector<AlignedAggregate>& out,
                                        AlignmentResult& unconsumed);

/// Align the tail to completion WITHOUT consuming — the reference for the
/// alignment consume_aligned_prefix hands out.  `.migrations` counts only
/// migrations at tail boundaries (add the consumed stats for the
/// full-history figure).
[[nodiscard]] AlignmentResult align_tail(const AggregateTail& tail);

}  // namespace vpm::core

#endif  // VPM_CORE_ALIGNMENT_HPP
