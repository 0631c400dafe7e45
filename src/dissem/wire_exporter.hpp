// The processor module's receipt egress: a core::ReceiptSink that encodes
// every drained path as an entry of core/receipt_batch's HOP-round layout
// and seals the entries into sequenced, authenticated envelopes (§2.3
// dissemination, §7.1 bandwidth arithmetic).
//
// Rounds: the paths one drain streams, in ascending index order, form one
// reporting round.  end_round() closes it, and so does a path index that
// does not ascend (the next drain restarting at a lower index, or a
// pipeline's next collector element).  Each close carries the digest of
// the (index, path identity) pairs the round shipped, which the importer
// checks against its own path table.
//
// Streaming posture: the exporter buffers ONE chunk and nothing else, so a
// 100k-path drain exports in memory bounded by the chunk size — constant
// in the path count.  Each entry is sized before it is written and then
// encoded straight into the open chunk; sealing back-patches the chunk's
// item count and moves the buffer into the envelope, whose MAC is
// computed in place.  An entry never straddles two chunks: one that would
// push the chunk past max_chunk_bytes seals the chunk first, and an entry
// larger than the cap ships alone, as an oversized chunk (counted in
// stats().oversized_sections).  A round that spans chunks opens a segment
// in each, whose header repeats the round's thresholds, so every chunk
// decodes on its own.
//
// Chunk payload layout (one Envelope payload per chunk):
//
//   u8  0x35 chunk tag
//   u32 item count (entries and round closes)
//   core/receipt_batch segments holding exactly that many items
//
// Receipt times are 3-byte microsecond offsets from a run epoch (~16.7 s
// of span); the codec starts a new run where the next sampling round or
// aggregate would not fit, so arbitrarily long drains encode.  A single
// round or aggregate spanning more than the epoch range cannot be
// represented at all: the codec throws core::WireLimitError before
// writing the entry — the processor must drain at least once per epoch
// range, the paper's 1 s reporting period being far inside it.
#ifndef VPM_DISSEM_WIRE_EXPORTER_HPP
#define VPM_DISSEM_WIRE_EXPORTER_HPP

#include <cstdint>
#include <functional>

#include "core/receipt_batch.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/envelope.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {

/// Wire framing constants shared with WireImporter (and the hostile-input
/// suite).
inline constexpr std::uint8_t kChunkTag = 0x35;
/// Chunk header bytes: tag + item count.
inline constexpr std::size_t kChunkHeaderBytes = 1 + 4;
/// Envelope framing around a chunk payload (tag + producer + sequence +
/// length + MAC), for the B/packet accounting.
inline constexpr std::size_t kEnvelopeOverheadBytes = 1 + 4 + 8 + 4 + 8;

class WireExporter final : public core::ReceiptSink {
 public:
  struct Config {
    DomainId producer = 0;
    DomainKey key = 0;
    /// Target chunk payload bound (headers + items).  Bounds the
    /// exporter's resident buffer; also the dissemination unit a consumer
    /// fetches.
    std::size_t max_chunk_bytes = 64 * 1024;
    /// Sequence number of the first sealed envelope (strictly increasing
    /// from there; resuming a producer continues from its last sequence).
    std::uint64_t first_sequence = 1;
  };

  using EnvelopeConsumer = std::function<void(Envelope&&)>;

  /// `consumer` receives each sealed envelope as its chunk closes (e.g.
  /// `[&store](Envelope&& e) { store.ingest(std::move(e)); }`).  Throws
  /// std::invalid_argument on a null consumer or zero chunk size.
  WireExporter(Config cfg, EnvelopeConsumer consumer);

  /// ReceiptSink: feed with MonitoringCache::drain_all(sink) /
  /// ShardedCollector::drain(sink) / Pipeline::report(sink).  Writes the
  /// path's entry into the open chunk, first closing the round when
  /// `path_index` does not exceed the round's last.  A drain the codec
  /// rejects throws std::invalid_argument (core::WireLimitError for a
  /// receipt the layout cannot represent) before its entry is written; the
  /// exporter then refuses every further call (on_drain, end_round, flush,
  /// finish) with std::logic_error.  Throws std::logic_error after
  /// finish().
  void on_drain(std::size_t path_index, core::PathDrain drain) override;

  /// Close the reporting round: appends a round close carrying the
  /// round's digest.  Idempotent until more receipts arrive; a no-op
  /// before anything was exported.  Without it, the next drain's first
  /// index closes the round if it does not ascend; a consumer holding
  /// rounds until they close (FetchClient) needs the close to deliver.
  void end_round();

  /// Seal and emit the current partial chunk NOW, without ending the
  /// stream.  Periodic producers call end_round() + flush() after each
  /// drain so the round ships as soon as it closes instead of waiting for
  /// the size cap — the store's cursor consumers then see whole rounds
  /// per fetch.  No-op when nothing is buffered; throws std::logic_error
  /// after a rejected drain or after finish().
  void flush();

  /// Close the round and seal the final partial chunk.  Call once after
  /// the last drain; idempotent.  (Not run from the destructor: sealing
  /// invokes the consumer, which must not happen implicitly during
  /// unwinding.)  Periodic reporting: either stream several consecutive
  /// drains through one exporter with end_round() between them and
  /// finish() once, or use one exporter per period with first_sequence =
  /// the previous exporter's next_sequence().
  void finish();

  struct Stats {
    std::uint64_t paths = 0;  ///< entries written
    std::uint64_t sample_records = 0;
    std::uint64_t aggregate_receipts = 0;
    /// Round headers written: one per reporting round per chunk the round
    /// spans.  (Named for the per-path sample batches they replaced.)
    std::uint64_t sample_batches = 0;
    /// Round closes written, each carrying its round's digest.
    std::uint64_t aggregate_batches = 0;
    /// Sample or aggregate runs past an entry's first of each kind,
    /// forced by the 16.7 s epoch span.
    std::uint64_t epoch_splits = 0;
    std::uint64_t chunks = 0;          ///< envelopes sealed
    std::uint64_t payload_bytes = 0;   ///< chunk payload bytes shipped
    std::uint64_t envelope_bytes = 0;  ///< payloads + envelope framing
    /// Entries larger than the chunk cap, each shipped alone.
    std::uint64_t oversized_sections = 0;
    /// High-water mark of the exporter's resident chunk buffer — the
    /// constant-memory claim, measured.
    std::size_t peak_buffer_bytes = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// The sequence number the next sealed envelope will carry.
  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return sequence_;
  }

 private:
  /// Makes room in the open chunk for an item of `item_bytes` that needs a
  /// segment header when none is open: seals the chunk first when the
  /// item would push it past the cap, then writes the chunk header and
  /// the segment header (based at `base`) the item lands behind.  Returns
  /// false, writing nothing, when it sealed: the item must be re-sized
  /// against the fresh segment.
  bool make_room(std::size_t item_bytes, net::Timestamp base);
  /// Records a written item in the chunk's count and the buffer peak.
  void wrote_item();
  void close_round();
  /// Seals the open chunk into an envelope for the consumer.  A chunk
  /// sealed short of the cap (flush, finish) can hold up to half its
  /// buffer spare; `trim` drops it, since the buffer becomes a payload a
  /// store may retain.
  void seal_chunk(bool trim);
  /// Throws std::logic_error naming `call` after finish(), during a drain
  /// (a re-entrant envelope consumer) or after a rejected drain.
  void require_usable(const char* call) const;

  Config cfg_;
  EnvelopeConsumer consumer_;
  std::uint64_t sequence_;

  /// The open chunk: header, then its items (empty between chunks).
  net::ByteWriter chunk_;
  std::uint32_t item_count_ = 0;

  /// The open round: its thresholds and the open segment's base time.
  core::RoundHeader header_;
  bool round_open_ = false;    ///< entries written since the last close
  bool segment_open_ = false;  ///< the open chunk holds the round's header
  std::size_t round_next_ = 0;    ///< lowest index that continues the round
  std::size_t segment_next_ = 0;  ///< last index in the segment + 1, or 0
  std::uint64_t digest_ = core::kRoundDigestSeed;

  /// Set while on_drain encodes a path; left set when the codec rejects
  /// the drain, which leaves the exporter unusable.
  bool in_path_ = false;
  bool finished_ = false;

  Stats stats_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_WIRE_EXPORTER_HPP
