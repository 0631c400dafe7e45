// The consumer side of receipt dissemination: walks one producer's
// authenticated chunk stream out of a ReceiptStore and reconstructs the
// per-path receipt drains the producer's collector emitted — the byte-level
// inverse of WireExporter, closing the loop
//
//   collector drain -> wire batches -> sealed envelopes -> store ->
//   recovered drains -> PathVerifier.
//
// Recovery is exact up to the wire format's 1 µs time quantisation: a
// drain whose observation timestamps are microsecond-aligned round-trips
// `==`-equal (the round-trip equivalence suite pins this).
//
// Input is hostile (receipts cross trust boundaries, §4): every structural
// violation — unknown chunk/section tags, truncation, section length
// mismatches, unknown or revisited path keys, aggregate sections before a
// path's sample batch, split batches that disagree on thresholds — raises
// net::WireError and never corrupts the sink stream: a sink only ever
// receives whole paths, each in one on_drain call.
#ifndef VPM_DISSEM_WIRE_IMPORTER_HPP
#define VPM_DISSEM_WIRE_IMPORTER_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/receipt_sink.hpp"
#include "core/verifier.hpp"
#include "dissem/receipt_store.hpp"
#include "net/path_id.hpp"

namespace vpm::dissem {

class WireImporter {
 public:
  /// `paths` is the consumer's PathId table in global path index order
  /// (announced out of band, exactly like the encode/decode contract of
  /// core/receipt_batch).  Wire path keys resolve against it; recovered
  /// drains are tagged with the matching index.  Throws
  /// std::invalid_argument on duplicate path keys.
  explicit WireImporter(std::vector<net::PathId> paths);

  /// Decode every accepted chunk from `producer` in sequence order,
  /// handing each recovered path drain to `sink` (one on_drain per path,
  /// as the collector drains do) — constant memory in the number of
  /// paths and chunks.  A producer that reports periodically ships
  /// several drains through one envelope sequence; each round's paths are
  /// emitted as their own drains, in shipped order (a fresh sample
  /// section for an already-imported path starts the next round).  Throws
  /// net::WireError on malformed input; the sink then holds exactly the
  /// paths completed before the error.
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
  /// A path whose sections straddle a chunk (and therefore fetch)
  /// boundary reassembles exactly as in the one-shot import, because the
  /// assembly state persists between feeds.  Call finish() at true
  /// end-of-stream to close a trailing path (a stream whose producer
  /// ends every round with end_round() is already closed).  The parent
  /// importer and sink must outlive the session.
  class Session {
   public:
    Session(const WireImporter& importer, core::ReceiptSink& sink);

    /// Decode one accepted chunk payload.  Error handling is two-tier
    /// (ISSUE 6): a payload whose section framing does not byte-complete
    /// (a truncated fetch) throws a TRANSIENT net::WireError *before any
    /// state is touched* — the session stays usable and the same feed
    /// retried with the full payload decodes normally.  A structurally
    /// complete payload that fails decode throws a FATAL WireError and
    /// POISONS the session: the open path's assembly may be half mutated
    /// (it never reaches the sink; paths the payload completed before the
    /// error already did, whole), so feed()/finish() then throw
    /// std::logic_error until resync() abandons the damaged round.
    void feed(std::span<const std::byte> payload);

    /// Close the path left open by a stream that did not end at a round
    /// boundary.  Idempotent; feed() after finish() throws, and finish()
    /// on a poisoned session throws rather than emit the half-decoded
    /// assembly.
    void finish();

    /// Gap recovery: discard the in-progress assembly (and clear poison)
    /// and skip every subsequent section until the next explicit round
    /// mark, where normal decoding resumes.  Call after a FATAL feed()
    /// (corrupt content) or after envelopes were lost upstream and the
    /// next available payload may start mid-round.  Path keys whose
    /// sections are discarded accumulate for take_skipped_keys(), so the
    /// caller can attribute the gap.  Throws after finish().
    void resync();

    /// True while resync() is still hunting for the next round mark.
    [[nodiscard]] bool resyncing() const noexcept { return skipping_; }

    /// True after a fatal decode error, until resync().
    [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

    /// True when the stream sits exactly on a reporting-round boundary:
    /// nothing half assembled, not poisoned, not resyncing.  After a
    /// feed() this holds iff the payload ended with a round mark — the
    /// safe point for a consumer to deliver buffered rounds and ack
    /// (crash-resume alignment).
    [[nodiscard]] bool at_round_boundary() const noexcept {
      return !cur_.active && !poisoned_ && !skipping_;
    }

    /// Wire path keys of sections discarded by resync skipping (deduped,
    /// ascending), including a half-assembled path abandoned by resync()
    /// itself.  Draining resets the list.
    [[nodiscard]] std::vector<std::uint64_t> take_skipped_keys();

   private:
    /// Per-stream assembly: a path's sections are contiguous (possibly
    /// straddling chunk boundaries), sample batches first; the whole path
    /// accumulates here and reaches the sink once, from close_path().
    struct Assembly {
      bool active = false;
      std::size_t index = 0;
      std::uint64_t key = 0;
      core::PathDrain drain;
      bool have_samples = false;   ///< at least one sample section decoded
      /// An aggregate section (even an empty one) decoded: a further
      /// sample section for this path starts the producer's next round.
      bool in_aggregates = false;
    };

    void close_path();
    void decode_chunk(std::span<const std::byte> payload);
    void note_skipped(std::uint64_t key);
    /// Sorts and dedupes skipped_keys_, merging what was noted since the
    /// last compaction into the sorted prefix.
    void compact_skipped();
    /// Framing-only completeness scan; throws TRANSIENT WireError on
    /// truncation, touches no session state.
    static void prescan(std::span<const std::byte> payload);

    const WireImporter* importer_;
    core::ReceiptSink* sink_;
    Assembly cur_;
    std::vector<bool> seen_;  ///< paths already imported this round
    /// Keys in skip order, sorted and deduped up to the last compaction.
    std::vector<std::uint64_t> skipped_keys_;
    std::size_t skipped_compacted_ = 0;  ///< size after the last compaction
    bool finished_ = false;
    bool poisoned_ = false;  ///< a fatal feed() threw mid-chunk
    bool skipping_ = false;  ///< resync() active: discard to next mark
  };

 private:
  std::vector<net::PathId> paths_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_WIRE_IMPORTER_HPP
