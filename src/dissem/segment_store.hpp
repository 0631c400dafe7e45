// Disk-backed retention for the dissemination service (ISSUE 9): the
// "administrative web-site" of §5 survives a process restart.
//
// Layout: one directory per store, one append-only SEGMENT FILE chain per
// producer.  A segment file is
//
//     +--------+---------+----------+   +-- record ------------------+
//     | magic  | version | producer |   | u32 len | envelope | crc32 |
//     | "VSEG" |  u8 =1  |   u32    |   |         (len bytes)        |
//     +--------+---------+----------+   +----------------------------+
//     |<------- 9-byte header ----->|   repeated until EOF
//
// where `envelope` is the dissem wire encoding (tag 0x21, already
// self-describing) and the CRC covers exactly the envelope bytes.  Records
// append in ARRIVAL order — a reordered transport means sequence ranges of
// neighbouring segments may overlap; every read goes through the in-memory
// per-producer index (sequence -> file/offset) rebuilt at open.
//
// Durability rules:
//   * Recovery-on-open scans each file and TRUNCATES at the first torn or
//     corrupt record (a crashed append leaves a short or CRC-failing
//     tail); everything before the tear is served.  A file shorter than
//     its header is a torn create and is unlinked.  scan_segment() is the
//     one parser — strict mode (hostile input: typed WireError, never an
//     over-read) and recovery mode share every bounds check.
//   * The GC floor is the DELETION UNIT: erase_through(floor) unlinks a
//     segment file only when floor >= its highest sequence.  Sub-floor
//     records inside retained segments stay on disk but are invisible
//     (every read starts after a cursor >= floor).
//   * Writes are flushed per record (process-crash consistency; the
//     reproduction does not fsync — power-loss ordering is out of scope).
//
// SegmentStorage wraps a SegmentStore plus a CURSOR LOG (cursors.log,
// same length+CRC framing) into the EnvelopeStorage interface: consumer
// registrations, subscriptions, and acknowledgements append to the log
// (compacted to a snapshot every cursor_snapshot_every records) and are
// replayed by recover(), so a restarted store resumes every consumer at
// its acked cursor.
#ifndef VPM_DISSEM_SEGMENT_STORE_HPP
#define VPM_DISSEM_SEGMENT_STORE_HPP

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/function_ref.hpp"
#include "dissem/envelope.hpp"
#include "dissem/storage.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {

// --- segment file byte format (exposed for the hostile-input suite) -----

inline constexpr std::uint32_t kSegmentMagic = 0x47455356u;  // "VSEG" LE
inline constexpr std::uint8_t kSegmentVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 4 + 1 + 4;
/// Upper bound on one record's envelope encoding: the envelope codec caps
/// payloads at 16 MiB and adds <= 25 framing bytes.  A length field above
/// this is structurally absurd and rejected BEFORE any allocation or read.
inline constexpr std::uint32_t kMaxSegmentRecordBytes =
    16u * 1024u * 1024u + 32u;

/// CRC-32 (IEEE reflected, poly 0xEDB88320) over `data`.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data);

void write_segment_header(DomainId producer, net::ByteWriter& out);
void append_segment_record(const Envelope& envelope, net::ByteWriter& out);

struct SegmentRecordRef {
  std::uint64_t sequence = 0;
  std::size_t payload_offset = 0;  ///< absolute offset of payload bytes
  std::size_t payload_size = 0;
  std::size_t record_end = 0;  ///< offset one past this record's CRC
};

struct SegmentScan {
  DomainId producer = 0;
  std::vector<SegmentRecordRef> records;
  /// Bytes of well-formed prefix; == data.size() for a clean file.
  std::size_t valid_bytes = 0;
  bool torn = false;  ///< recovery mode only: trailing damage discarded
};

/// Parse a segment file image.
///
/// strict (recover == false): any damage throws net::WireError — TRANSIENT
/// for clean truncation (the bytes are a prefix of a valid file), FATAL
/// for structural damage (bad magic/version, absurd length, CRC or
/// envelope mismatch).  Never reads past data.size().
///
/// recovery (recover == true): header damage still throws (the file is
/// not a segment), but record-level damage STOPS the scan: valid_bytes
/// marks the keep-prefix for truncation, torn is set.
[[nodiscard]] SegmentScan scan_segment(std::span<const std::byte> data,
                                       bool recover);

// --- the store ----------------------------------------------------------

struct SegmentStoreConfig {
  std::filesystem::path directory;  ///< created if absent
  /// Seal the active segment and roll to a new file once it reaches this
  /// many bytes.  Small segments GC promptly (the floor frees whole
  /// files); large segments amortize per-file overhead.
  std::size_t max_segment_bytes = 64 * 1024;
  /// Compact the cursor log to a snapshot every this many appended
  /// records (SegmentStorage only).
  std::size_t cursor_snapshot_every = 4096;
};

/// Per-producer segment-file chains with an in-memory sequence index.
/// Not internally synchronized: its ReceiptStore uses it from one thread
/// at a time.
class SegmentStore {
 public:
  /// Opens (creating the directory if needed) and recovers: torn tails
  /// truncated, torn creates and empty segments unlinked, index rebuilt.
  explicit SegmentStore(SegmentStoreConfig cfg);

  void append(const Envelope& envelope);
  [[nodiscard]] bool contains(DomainId producer,
                              std::uint64_t sequence) const;
  /// (sequence, payload) strictly after `cursor`, ascending; re-finds the
  /// successor by sequence after each visit (the visitor may ack and
  /// trigger erase_through mid-walk).  The span points into a reused
  /// scratch buffer: valid only for the duration of the visit, visits
  /// must not nest.
  void visit_after(
      DomainId producer, std::uint64_t cursor,
      core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)>
          visit) const;
  [[nodiscard]] std::size_t count_after(DomainId producer,
                                        std::uint64_t cursor) const;
  /// Unlink every segment whose highest sequence is <= floor.
  void erase_through(DomainId producer, std::uint64_t floor);

  /// (producer, highest indexed sequence) per producer with any records.
  [[nodiscard]] std::vector<std::pair<DomainId, std::uint64_t>> heads()
      const;
  [[nodiscard]] StorageStats stats() const;
  [[nodiscard]] StorageStats producer_stats(DomainId producer) const;
  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return cfg_.directory;
  }

 private:
  struct RecordLoc {
    std::uint64_t file_id = 0;
    std::size_t payload_offset = 0;
    std::size_t payload_size = 0;
  };
  struct Segment {
    std::filesystem::path path;
    std::vector<std::uint64_t> sequences;  ///< append order
    std::uint64_t max_sequence = 0;
    std::size_t bytes = 0;  ///< file size (header + records)
    std::size_t payload_bytes = 0;
    std::unique_ptr<std::ofstream> writer;  ///< active segment only
  };
  struct Chain {
    std::map<std::uint64_t, Segment> segments;  ///< file_id -> segment
    std::map<std::uint64_t, RecordLoc> index;   ///< sequence -> location
    std::uint64_t next_file_id = 0;
    std::uint64_t active_file_id = 0;
    bool has_active = false;
    std::size_t payload_bytes = 0;
    std::size_t erased = 0;
    std::size_t unlinked = 0;
    // One cached read handle per chain: fetch walks are sequential, so
    // consecutive reads overwhelmingly hit the same file.
    mutable std::ifstream reader;
    mutable std::uint64_t reader_file_id = 0;
    mutable bool reader_open = false;
  };

  Segment& active_segment(Chain& chain, DomainId producer);
  void seal_active(Chain& chain);
  void unlink_segment(Chain& chain, std::uint64_t file_id);
  void read_payload(const Chain& chain, const RecordLoc& loc) const;
  void recover_directory();

  SegmentStoreConfig cfg_;
  std::map<DomainId, Chain> chains_;
  std::size_t total_unlinked_ = 0;
  mutable std::vector<std::byte> scratch_;  ///< visit_after read buffer
};

/// EnvelopeStorage over SegmentStore + a durable cursor log — plug into
/// ReceiptStore for a store that survives restarts.
class SegmentStorage final : public EnvelopeStorage {
 public:
  explicit SegmentStorage(SegmentStoreConfig cfg);
  ~SegmentStorage() override;

  RecoveredState recover() override;
  void put(Envelope envelope) override;
  [[nodiscard]] bool contains(DomainId producer,
                              std::uint64_t sequence) const override;
  void visit_after(
      DomainId producer, std::uint64_t cursor,
      core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)>
          visit) const override;
  [[nodiscard]] std::size_t count_after(DomainId producer,
                                        std::uint64_t cursor) const override;
  void erase_through(DomainId producer, std::uint64_t floor) override;
  void persist_registration(const std::string& name,
                            bool all_producers) override;
  void persist_subscription(const std::string& name,
                            DomainId producer) override;
  void persist_ack(const std::string& name, DomainId producer,
                   std::uint64_t sequence) override;
  [[nodiscard]] StorageStats stats() const override;
  [[nodiscard]] StorageStats producer_stats(DomainId producer)
      const override;

  [[nodiscard]] const SegmentStore& segments() const noexcept {
    return store_;
  }

 private:
  void append_cursor_record(std::uint8_t kind, const std::string& name,
                            DomainId producer, std::uint64_t sequence);
  void compact_cursor_log();
  void recover_cursor_log();

  SegmentStore store_;
  std::size_t snapshot_every_ = 4096;
  std::filesystem::path log_path_;
  std::ofstream log_;
  std::size_t log_bytes_ = 0;
  std::size_t log_records_since_compact_ = 0;
  /// Mirror of durable consumer state, for snapshots and recover().
  std::map<std::string, ConsumerRecord> consumers_;
};

[[nodiscard]] std::unique_ptr<EnvelopeStorage> make_segment_storage(
    SegmentStoreConfig cfg);

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_SEGMENT_STORE_HPP
