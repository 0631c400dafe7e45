// The consumer side of receipt dissemination: walks one producer's
// authenticated chunk stream out of a ReceiptStore and reconstructs the
// per-path receipt drains the producer's collector emitted — the byte-level
// inverse of WireExporter, closing the loop
//
//   collector drain -> wire entries -> sealed envelopes -> store ->
//   recovered drains -> PathVerifier.
//
// Recovery is exact up to the wire format's 1 µs time quantisation: a
// drain whose observation timestamps are microsecond-aligned round-trips
// `==`-equal (the round-trip equivalence suite pins this).
//
// Input is hostile (receipts cross trust boundaries, §4): every structural
// violation — an unknown chunk tag, truncation, an entry length that does
// not match its body, a path index past the table or not ascending within
// a round, a round digest the table does not reproduce — raises
// net::WireError and never corrupts the sink stream: a sink only ever
// receives whole paths, each in one on_drain call.
#ifndef VPM_DISSEM_WIRE_IMPORTER_HPP
#define VPM_DISSEM_WIRE_IMPORTER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/receipt_batch.hpp"
#include "core/receipt_sink.hpp"
#include "core/verifier.hpp"
#include "dissem/receipt_store.hpp"
#include "net/path_id.hpp"

namespace vpm::dissem {

class WireImporter {
 public:
  /// `paths` is the consumer's PathId table in the producer's global path
  /// index order (announced out of band).  Wire entries name paths by
  /// index into it; each round's close carries a digest of the indices
  /// and full PathIds the producer shipped, so a table that differs — for
  /// another HOP, or permuted — fails at the first round close with a
  /// fatal net::WireError.
  explicit WireImporter(std::vector<net::PathId> paths);

  /// Decode every accepted chunk from `producer` in sequence order,
  /// handing each recovered path drain to `sink` (one on_drain per path,
  /// as the collector drains do) — constant memory in the number of
  /// paths and chunks.  A producer that reports periodically ships
  /// several drains through one envelope sequence; each round's paths are
  /// emitted as their own drains, in shipped order.  Throws
  /// net::WireError on malformed input; the sink then holds exactly the
  /// paths decoded before the error — including, when the error is a
  /// round digest mismatch, that round's paths (FetchClient delivers only
  /// closed rounds, so it never hands those on).
  void import_into(const ReceiptStore& store, DomainId producer,
                   core::ReceiptSink& sink) const;

  /// Materialized convenience form.
  [[nodiscard]] std::vector<core::IndexedPathDrain> import(
      const ReceiptStore& store, DomainId producer) const;

  /// Rebuild the HopReceipts of a single-path producer (one HOP's receipts
  /// about one path) for PathVerifier::add_hop.  Periodic reporting
  /// rounds concatenate, matching the collector's
  /// periodic-drains-concatenate-to-one-shot invariant.  Throws
  /// std::invalid_argument on an empty stream or a producer whose stream
  /// covers more than one path.
  [[nodiscard]] core::HopReceipts import_hop(const ReceiptStore& store,
                                             DomainId producer,
                                             net::HopId hop) const;

  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths_.size();
  }

  /// The PathId at a decoded drain's path index (throws std::out_of_range
  /// on a bad index) — lets consumers map sink indices back to wire keys.
  [[nodiscard]] const net::PathId& path_at(std::size_t index) const {
    return paths_.at(index);
  }

  /// Stateful incremental decode: feed one producer's chunk payloads in
  /// sequence order ACROSS fetches — the cursor-consumer loop
  ///
  ///   store.fetch_from(me, producer, [&](seq, payload) {
  ///     session.feed(payload); last = seq; });
  ///   store.ack(me, producer, last);
  ///
  /// A round that spans chunks (and therefore fetches) decodes exactly as
  /// in the one-shot import, because the round state (its last index and
  /// running digest) persists between feeds.  Call finish() at true
  /// end-of-stream.  The parent importer and sink must outlive the
  /// session.
  class Session {
   public:
    Session(const WireImporter& importer, core::ReceiptSink& sink);

    /// Decode one accepted chunk payload.  Error handling is two-tier: a
    /// payload whose item framing does not byte-complete (a truncated
    /// fetch) throws a TRANSIENT net::WireError *before any state is
    /// touched* — the session stays usable and the same feed retried with
    /// the full payload decodes normally.  A structurally complete payload
    /// that fails decode throws a FATAL WireError and POISONS the session:
    /// the failing entry never reaches the sink (entries the payload
    /// decoded before the error already did, whole), and feed()/finish()
    /// then throw std::logic_error until resync() abandons the damaged
    /// round.
    void feed(std::span<const std::byte> payload);

    /// End the stream.  Idempotent; feed() after finish() throws, and so
    /// does finish() on a poisoned session.
    void finish();

    /// Gap recovery: abandon the open round (and clear poison) and skip
    /// every subsequent entry until the next round close, where normal
    /// decoding resumes.  Call after a FATAL feed() (corrupt content) or
    /// after envelopes were lost upstream and the next available payload
    /// may start mid-round.  Path keys whose entries are discarded
    /// accumulate for take_skipped_keys(), so the caller can attribute the
    /// gap.  Throws after finish().
    void resync();

    /// True while resync() is still hunting for the next round close.
    [[nodiscard]] bool resyncing() const noexcept { return skipping_; }

    /// True after a fatal decode error, until resync().
    [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

    /// True when the stream sits exactly on a reporting-round boundary:
    /// no round open, not poisoned, not resyncing.  After a feed() this
    /// holds iff the payload ended with a round close — the safe point for
    /// a consumer to deliver buffered rounds and ack (crash-resume
    /// alignment).
    [[nodiscard]] bool at_round_boundary() const noexcept {
      return !in_round_ && !poisoned_ && !skipping_;
    }

    /// Wire path keys of entries discarded by resync skipping (deduped,
    /// ascending), including the entry whose decode poisoned the session.
    /// Draining resets the list.
    [[nodiscard]] std::vector<std::uint64_t> take_skipped_keys();

   private:
    void decode_chunk(std::span<const std::byte> payload);
    /// The index `step` names after the segment's previous entry; throws
    /// WireError past the table.
    std::size_t index_of(std::uint64_t step) const;
    void end_round();
    void note_skipped(std::uint64_t key);
    /// Sorts and dedupes skipped_keys_, merging what was noted since the
    /// last compaction into the sorted prefix.
    void compact_skipped();
    /// Framing-only completeness scan; throws TRANSIENT WireError on
    /// truncation, touches no session state.
    static void prescan(std::span<const std::byte> payload);

    const WireImporter* importer_;
    core::ReceiptSink* sink_;
    core::RoundHeader header_;  ///< the open segment's
    std::size_t segment_next_ = 0;  ///< last index in the segment + 1, or 0
    bool in_round_ = false;         ///< entries decoded since the last close
    std::size_t round_next_ = 0;    ///< lowest index that continues the round
    std::uint64_t digest_ = core::kRoundDigestSeed;
    static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);
    /// The entry being decoded, named by resync() if its decode failed.
    std::size_t decoding_ = kNoEntry;
    /// Keys in skip order, sorted and deduped up to the last compaction.
    std::vector<std::uint64_t> skipped_keys_;
    std::size_t skipped_compacted_ = 0;  ///< size after the last compaction
    bool finished_ = false;
    bool poisoned_ = false;  ///< a fatal feed() threw mid-chunk
    bool skipping_ = false;  ///< resync() active: discard to next close
  };

 private:
  std::vector<net::PathId> paths_;
  std::vector<std::uint64_t> identities_;  ///< of paths_[i], for digests
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_WIRE_IMPORTER_HPP
