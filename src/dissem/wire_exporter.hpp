// The processor module's receipt egress: a core::ReceiptSink that encodes
// every drained path as receipt_batch wire batches and seals them into
// sequenced, authenticated envelopes (§2.3 dissemination, §7.1 bandwidth
// arithmetic).
//
// Streaming posture: the exporter buffers ONE chunk and nothing else, so a
// 100k-path drain exports in memory bounded by the chunk size — constant
// in the path count.  Each section is encoded straight into the open
// chunk: the codec computes a batch's size before writing it, so the size
// trigger fires before any byte is written.  Sealing back-patches the
// chunk header's section count and moves the buffer into the envelope,
// whose MAC is computed in place.  Chunks roll on two triggers:
//
//   * size — a section that would push the chunk payload past
//     max_chunk_bytes seals the current chunk first (a single section
//     larger than the cap still ships, as an oversized chunk, and is
//     counted in stats().oversized_sections);
//   * epoch — receipt_batch times are 3-byte microsecond offsets from a
//     per-batch epoch (~16.7 s of span).  Sample receipts are split at
//     sampling-round boundaries and aggregate runs at receipt boundaries
//     whenever the next record would not fit its batch's epoch range, so
//     arbitrarily long drains encode without widening the paper's record
//     format.  (A single round or aggregate spanning more than the epoch
//     range cannot be represented at all; the batch codec throws
//     std::invalid_argument before writing the batch, which the exporter
//     propagates — the processor must drain at least once per epoch
//     range, the paper's 1 s reporting period being far inside it.)
//
// Chunk payload layout (one Envelope payload per chunk):
//
//   u8  0x31 chunk tag
//   u32 section count
//   per section:
//     u8  kind            0x32 sample batch | 0x33 aggregate batch
//     u64 path key        (the batch's path, repeated so the importer can
//                          resolve the PathId table entry BEFORE decoding)
//     u32 batch length    (bytes of the receipt_batch encoding following)
//     <receipt_batch encoding, exactly batch-length bytes>
//
// Every path contributes its sample batch section(s) first (always at
// least one, even when empty — an idle path's thresholds still ship),
// then its aggregate batch section(s); a path's sections are contiguous
// in the stream but may straddle a chunk boundary.
#ifndef VPM_DISSEM_WIRE_EXPORTER_HPP
#define VPM_DISSEM_WIRE_EXPORTER_HPP

#include <cstdint>
#include <functional>
#include <span>

#include "core/receipt_sink.hpp"
#include "dissem/envelope.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {

/// Wire framing constants shared with WireImporter (and the hostile-input
/// suite).
inline constexpr std::uint8_t kChunkTag = 0x31;
inline constexpr std::uint8_t kSampleSectionKind = 0x32;
inline constexpr std::uint8_t kAggregateSectionKind = 0x33;
/// Round delimiter: an empty section (key 0, length 0) marking the end of
/// one reporting round, so the importer can recognise the next drain's
/// paths as a NEW round even when the first path key repeats immediately
/// (single-path producers; sample-only rounds, which are otherwise
/// indistinguishable from an epoch split of one round).
inline constexpr std::uint8_t kRoundMarkKind = 0x34;
/// Chunk header (tag + section count) and per-section header
/// (kind + path key + batch length) bytes.
inline constexpr std::size_t kChunkHeaderBytes = 1 + 4;
inline constexpr std::size_t kSectionHeaderBytes = 1 + 8 + 4;
/// Envelope framing around a chunk payload (tag + producer + sequence +
/// length + MAC), for the B/packet accounting.
inline constexpr std::size_t kEnvelopeOverheadBytes = 1 + 4 + 8 + 4 + 8;

class WireExporter final : public core::ReceiptSink {
 public:
  struct Config {
    DomainId producer = 0;
    DomainKey key = 0;
    /// Target chunk payload bound (header + sections).  Bounds the
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
  /// ShardedCollector::drain(sink) / Pipeline::report(sink).  Encodes the
  /// path's sections into the open chunk.  A drain the batch codec
  /// rejects throws std::invalid_argument with part of the path already
  /// buffered; the exporter then refuses every further call (on_drain,
  /// end_round, flush, finish) with std::logic_error, so the partial path
  /// is never sealed.  Throws std::logic_error after finish().
  void on_drain(std::size_t path_index, core::PathDrain drain) override;

  /// Delimit a reporting round: appends a round-mark section after the
  /// current drain's sections.  Call between consecutive drains streamed
  /// through one exporter.  Idempotent until more receipts arrive; a
  /// no-op before anything was exported.  Without a mark the importer
  /// still detects a new round when a path key repeats at a sample
  /// section (any multi-path drain, or a single-path round that shipped
  /// aggregates) — the mark is REQUIRED only for single-path sample-only
  /// rounds, which are otherwise indistinguishable from an epoch split.
  void end_round();

  /// Seal and emit the current partial chunk NOW, without ending the
  /// stream.  Periodic producers call end_round() + flush() after each
  /// drain so the round ships as soon as it closes instead of waiting for
  /// the size cap — the store's cursor consumers then see whole rounds
  /// per fetch.  No-op when nothing is buffered; throws std::logic_error
  /// after a rejected drain or after finish().
  void flush();

  /// Seal and emit the final partial chunk (after a closing round mark).
  /// Call once after the last drain; idempotent.  (Not run from the
  /// destructor: sealing invokes the consumer, which must not happen
  /// implicitly during unwinding.)  Periodic reporting: either stream
  /// several consecutive drains through one exporter with end_round()
  /// between them and finish() once, or use one exporter per period with
  /// first_sequence = the previous exporter's next_sequence().
  void finish();

  struct Stats {
    std::uint64_t paths = 0;
    std::uint64_t sample_records = 0;
    std::uint64_t aggregate_receipts = 0;
    std::uint64_t sample_batches = 0;     ///< sample sections written
    std::uint64_t aggregate_batches = 0;  ///< aggregate sections written
    std::uint64_t epoch_splits = 0;  ///< extra batches forced by epoch span
    std::uint64_t chunks = 0;        ///< envelopes sealed
    std::uint64_t payload_bytes = 0;   ///< chunk payload bytes shipped
    std::uint64_t envelope_bytes = 0;  ///< payloads + envelope framing
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
  /// Seals first when the section would overflow the chunk, writes the
  /// chunk header (if the chunk is new) and the section header, and
  /// returns the chunk for the `batch_bytes` of batch encoding.
  net::ByteWriter& open_section(std::uint8_t kind, std::uint64_t path_key,
                                std::size_t batch_bytes);
  /// Counts the section once its batch is written; throws
  /// std::logic_error if the batch's size differs from what was opened.
  void close_section(std::uint8_t kind);
  /// Seals the open chunk into an envelope for the consumer.  A chunk
  /// sealed short of the cap (flush, finish) can hold up to half its
  /// buffer spare; `trim` drops it, since the buffer becomes a payload a
  /// store may retain.
  void seal_chunk(bool trim);
  void export_samples(const core::SampleReceipt& samples, std::uint64_t key);
  void write_sample_batch(const core::SampleReceipt& samples,
                          std::span<const core::SampleRecord> records,
                          std::uint64_t key);
  void write_aggregate_batch(std::span<const core::AggregateReceipt> run,
                             std::uint64_t key);
  /// Throws std::logic_error naming `call` after finish(), during a drain
  /// (a re-entrant envelope consumer) or after a rejected drain.
  void require_usable(const char* call) const;

  Config cfg_;
  EnvelopeConsumer consumer_;
  std::uint64_t sequence_;

  /// The open chunk: header, then its sections (empty between chunks).
  net::ByteWriter chunk_;
  std::uint32_t section_count_ = 0;
  std::size_t section_end_ = 0;  ///< chunk size once the open batch is in

  /// Set while on_drain encodes a path; left set when the codec rejects
  /// the drain, which leaves the exporter unusable.
  bool in_path_ = false;
  bool finished_ = false;
  /// True while the last emitted section is a round mark (or nothing was
  /// emitted yet): end_round() is then a no-op.
  bool at_round_boundary_ = true;

  Stats stats_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_WIRE_EXPORTER_HPP
