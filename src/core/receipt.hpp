// Traffic receipts: the information VPM domains voluntarily disclose.
//
// Section 4 defines two receipt kinds:
//   R = <PathID, Samples>            (delay samples)
//   R = <PathID, AggID, PktCnt>      (packet aggregates)
// extended in Section 6.3 with AggTrans, the per-packet window around each
// cutting point that enables reorder patch-up.
//
// Reproduction extensions, each disclosed and justified here:
//   * SampleRecord.is_marker — with independently-seeded digests
//     (DigestMode::kIndependent) a verifier cannot recompute marker-ness
//     from the PktID, so the reporter flags it.  (With kSingle digests the
//     flag is redundant and checkable.)
//   * SampleReceipt.sample_threshold — the reporter's sigma.  Disclosing it
//     lets a verifier compute which packets the reporter SHOULD have
//     sampled (Section 5.2's subset property), turning "missing sample"
//     into a checkable inconsistency.  A domain's sampling rate is
//     observable from its receipts anyway, so nothing new leaks.
//   * AggregateReceipt.opened_at/closed_at — receipt epoch timestamps, so
//     loss granularity is reportable in seconds (Fig. 3's y-axis) without
//     out-of-band knowledge of path rates.
//
// Receipts have one wire format, core/receipt_batch's path entries under
// HOP-round headers (§7.1).  It names a path by its index into a path
// table both ends hold and carries times to the microsecond, so receipts
// compare with `==`, not by bytes.
#ifndef VPM_CORE_RECEIPT_HPP
#define VPM_CORE_RECEIPT_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/digest.hpp"
#include "net/path_id.hpp"
#include "net/time.hpp"

namespace vpm::core {

/// One sampled measurement: <PktID, Time> (Section 4).
struct SampleRecord {
  net::PacketDigest pkt_id = 0;
  net::Timestamp time;
  bool is_marker = false;

  friend bool operator==(const SampleRecord&, const SampleRecord&) = default;
};

/// Receipt for a set of sampled packets.
struct SampleReceipt {
  net::PathId path;
  /// The reporter's sigma (see header comment).
  std::uint32_t sample_threshold = 0;
  /// The system-wide mu, echoed for self-containedness.
  std::uint32_t marker_threshold = 0;
  /// In observation order.
  std::vector<SampleRecord> samples;

  friend bool operator==(const SampleReceipt&, const SampleReceipt&) = default;
};

/// Aggregate identifier: digests of the aggregate's first and last packet.
struct AggId {
  net::PacketDigest first = 0;
  net::PacketDigest last = 0;

  friend bool operator==(const AggId&, const AggId&) = default;
};

/// The AggTrans reorder window (Section 6.3): packet ids observed within J
/// of the *boundary* that closed this aggregate, split by side.  `before`
/// are ids the reporter assigned to this aggregate, `after` ids assigned
/// to the next (starting with the cutting packet).  Empty for the final
/// (never-closed) aggregate of a run.
struct TransWindow {
  std::vector<net::PacketDigest> before;
  std::vector<net::PacketDigest> after;

  [[nodiscard]] bool empty() const noexcept {
    return before.empty() && after.empty();
  }
  friend bool operator==(const TransWindow&, const TransWindow&) = default;
};

/// Receipt for one packet aggregate.
struct AggregateReceipt {
  net::PathId path;
  AggId agg;
  std::uint32_t packet_count = 0;
  TransWindow trans;
  net::Timestamp opened_at;  ///< local time of the first packet
  net::Timestamp closed_at;  ///< local time of the last packet

  friend bool operator==(const AggregateReceipt&,
                         const AggregateReceipt&) = default;
};

/// Everything one path's monitor discloses in one control-plane drain: the
/// sample receipt plus the closed aggregates.  This is the unit the
/// processor module ships per reporting period.
struct PathDrain {
  SampleReceipt samples;
  std::vector<AggregateReceipt> aggregates;

  friend bool operator==(const PathDrain&, const PathDrain&) = default;
};

/// One path's drain tagged with its global path index (the index a
/// single-cache collector over the same path table would use; a sharded
/// collector's shard-local indices never leak).
struct IndexedPathDrain {
  std::size_t path = 0;
  PathDrain drain;

  friend bool operator==(const IndexedPathDrain&,
                         const IndexedPathDrain&) = default;
};

// --- Receipt combination (Section 4, "Receipt Combination") -------------

/// Combine sample receipts from one HOP: union of the sample sets, merged
/// in time order.  Throws std::invalid_argument if paths or thresholds
/// differ (receipts from different HOPs/paths must not be combined).
[[nodiscard]] SampleReceipt combine_samples(
    std::span<const SampleReceipt> receipts);

/// Combine N *consecutive* aggregates from one HOP:
/// <PathID, AggID(first of first, last of last), sum of PktCnt>.
/// The result's trans window is the last receipt's (the surviving
/// boundary).  Throws std::invalid_argument on empty input or mixed paths.
[[nodiscard]] AggregateReceipt combine_aggregates(
    std::span<const AggregateReceipt> receipts);

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_HPP
