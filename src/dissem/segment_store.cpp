#include "dissem/segment_store.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace vpm::dissem {
namespace {

/// Fixed envelope-encoding prefix before the payload bytes: tag u8 +
/// producer u32 + sequence u64 + payload-length u32 (envelope.cpp).
constexpr std::size_t kEnvelopePrefixBytes = 1 + 4 + 8 + 4;

constexpr std::uint32_t kCursorMagic = 0x52554356u;  // "VCUR" LE
constexpr std::uint8_t kCursorVersion = 1;
constexpr std::size_t kCursorHeaderBytes = 4 + 1;
/// Names are u16-length-prefixed; anything above this bound is damage.
constexpr std::uint32_t kMaxCursorRecordBytes = 64u * 1024u + 32u;

constexpr std::uint8_t kCursorRegister = 1;
constexpr std::uint8_t kCursorSubscribe = 2;
constexpr std::uint8_t kCursorAck = 3;

[[nodiscard]] std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

[[nodiscard]] std::string segment_file_name(DomainId producer,
                                            std::uint64_t file_id) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "p%08x-%016" PRIx64 ".seg", producer,
                file_id);
  return buf;
}

[[nodiscard]] bool parse_segment_file_name(const std::string& name,
                                           DomainId& producer,
                                           std::uint64_t& file_id) {
  unsigned int p = 0;
  std::uint64_t id = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "p%8x-%16" SCNx64 ".se%c", &p, &id, &tail) !=
          3 ||
      tail != 'g') {
    return false;
  }
  producer = static_cast<DomainId>(p);
  file_id = id;
  return true;
}

[[nodiscard]] std::vector<std::byte> read_file_bytes(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("SegmentStore: cannot open " + path.string());
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    throw std::runtime_error("SegmentStore: short read of " + path.string());
  }
  return data;
}

void write_stream(std::ofstream& out, std::span<const std::byte> bytes,
                  const char* what) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error(std::string("SegmentStore: write failed: ") +
                             what);
  }
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = table[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void write_segment_header(DomainId producer, net::ByteWriter& out) {
  out.u32(kSegmentMagic);
  out.u8(kSegmentVersion);
  out.u32(producer);
}

void append_segment_record(const Envelope& envelope, net::ByteWriter& out) {
  // The envelope encodes straight into the record; its length field is
  // patched in once the encoding's size is known.
  const std::size_t start = out.size();
  out.u32(0);
  encode(envelope, out);
  const std::span<const std::byte> body = out.view().subspan(start + 4);
  out.patch_u32(start, static_cast<std::uint32_t>(body.size()));
  out.u32(crc32(body));
}

SegmentScan scan_segment(std::span<const std::byte> data, bool recover) {
  SegmentScan scan;
  net::ByteReader header(data);
  // Header damage is unrecoverable in both modes: a file without a valid
  // header is not a segment (torn CREATES are handled by the store, which
  // unlinks sub-header-size files before parsing).
  header.expect_at_least(kSegmentHeaderBytes);  // throws transient
  if (header.u32() != kSegmentMagic) {
    throw net::WireError("segment: bad magic");
  }
  if (header.u8() != kSegmentVersion) {
    throw net::WireError("segment: unsupported version");
  }
  scan.producer = header.u32();
  std::size_t offset = kSegmentHeaderBytes;
  scan.valid_bytes = offset;

  const auto damaged = [&](const char* what, bool structural) {
    if (recover) {
      scan.torn = true;
      return true;  // stop the scan; valid_bytes marks the keep-prefix
    }
    throw net::WireError(std::string("segment record: ") + what,
                         structural ? net::WireError::Severity::kFatal
                                    : net::WireError::Severity::kTransient);
  };

  while (offset < data.size()) {
    const std::size_t remaining = data.size() - offset;
    if (remaining < 4) {
      damaged("torn length field", /*structural=*/false);
      break;
    }
    net::ByteReader len_reader(data.subspan(offset, 4));
    const std::uint32_t len = len_reader.u32();
    // Bound the length BEFORE trusting it: an absurd value must not turn
    // into an allocation or a read past the buffer.
    if (len == 0 || len > kMaxSegmentRecordBytes) {
      damaged("absurd record length", /*structural=*/true);
      break;
    }
    if (remaining < 4 + static_cast<std::size_t>(len) + 4) {
      damaged("torn record body", /*structural=*/false);
      break;
    }
    const auto body = data.subspan(offset + 4, len);
    net::ByteReader crc_reader(data.subspan(offset + 4 + len, 4));
    if (crc_reader.u32() != crc32(body)) {
      damaged("checksum mismatch", /*structural=*/true);
      break;
    }
    Envelope envelope;
    try {
      net::ByteReader body_reader(body);
      envelope = decode_envelope(body_reader);
      if (!body_reader.done()) {
        throw net::WireError("segment record: trailing bytes in envelope");
      }
    } catch (const net::WireError&) {
      // The CRC matched, so the bytes we WROTE were malformed — that is
      // structural damage whatever the inner severity said.
      if (damaged("malformed envelope", /*structural=*/true)) break;
    }
    if (envelope.producer != scan.producer) {
      damaged("producer mismatch", /*structural=*/true);
      break;
    }
    SegmentRecordRef ref;
    ref.sequence = envelope.sequence;
    ref.payload_offset = offset + 4 + kEnvelopePrefixBytes;
    ref.payload_size = envelope.payload.size();
    ref.record_end = offset + 4 + len + 4;
    scan.records.push_back(ref);
    offset = ref.record_end;
    scan.valid_bytes = offset;
  }
  return scan;
}

// --- SegmentStore -------------------------------------------------------

SegmentStore::SegmentStore(SegmentStoreConfig cfg) : cfg_(std::move(cfg)) {
  std::filesystem::create_directories(cfg_.directory);
  recover_directory();
}

void SegmentStore::recover_directory() {
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg_.directory)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".seg") {
      continue;
    }
    DomainId producer = 0;
    std::uint64_t file_id = 0;
    if (!parse_segment_file_name(entry.path().filename().string(), producer,
                                 file_id)) {
      throw std::runtime_error("SegmentStore: foreign file in store: " +
                               entry.path().string());
    }
    const auto data = read_file_bytes(entry.path());
    if (data.size() < kSegmentHeaderBytes) {
      // Torn CREATE: the crash hit before the header finished; the file
      // cannot hold a record, so there is nothing to preserve.
      std::filesystem::remove(entry.path());
      continue;
    }
    const SegmentScan scan = scan_segment(data, /*recover=*/true);
    if (scan.producer != producer) {
      throw std::runtime_error("SegmentStore: producer mismatch in " +
                               entry.path().string());
    }
    if (scan.records.empty()) {
      std::filesystem::remove(entry.path());  // header-only: no data
      continue;
    }
    if (scan.torn) {
      std::filesystem::resize_file(entry.path(), scan.valid_bytes);
    }
    Chain& chain = chains_[producer];
    Segment seg;
    seg.path = entry.path();
    seg.bytes = scan.valid_bytes;
    for (const SegmentRecordRef& rec : scan.records) {
      if (!chain.index
               .emplace(rec.sequence, RecordLoc{file_id, rec.payload_offset,
                                                rec.payload_size})
               .second) {
        throw std::runtime_error(
            "SegmentStore: duplicate sequence across segments in " +
            entry.path().string());
      }
      seg.sequences.push_back(rec.sequence);
      seg.max_sequence = std::max(seg.max_sequence, rec.sequence);
      seg.payload_bytes += rec.payload_size;
    }
    chain.payload_bytes += seg.payload_bytes;
    chain.next_file_id = std::max(chain.next_file_id, file_id + 1);
    chain.segments.emplace(file_id, std::move(seg));
  }
}

SegmentStore::Segment& SegmentStore::active_segment(Chain& chain,
                                                    DomainId producer) {
  if (chain.has_active) {
    Segment& seg = chain.segments.at(chain.active_file_id);
    if (seg.bytes < cfg_.max_segment_bytes) return seg;
    seal_active(chain);
  }
  const std::uint64_t file_id = chain.next_file_id++;
  Segment seg;
  seg.path = cfg_.directory / segment_file_name(producer, file_id);
  seg.writer = std::make_unique<std::ofstream>(
      seg.path, std::ios::binary | std::ios::trunc);
  if (!*seg.writer) {
    throw std::runtime_error("SegmentStore: cannot create " +
                             seg.path.string());
  }
  net::ByteWriter header;
  write_segment_header(producer, header);
  write_stream(*seg.writer, header.view(), "segment header");
  seg.bytes = header.size();
  chain.active_file_id = file_id;
  chain.has_active = true;
  return chain.segments.emplace(file_id, std::move(seg)).first->second;
}

void SegmentStore::seal_active(Chain& chain) {
  if (!chain.has_active) return;
  Segment& seg = chain.segments.at(chain.active_file_id);
  if (seg.writer) {
    seg.writer->flush();
    seg.writer.reset();
  }
  chain.has_active = false;
}

void SegmentStore::append(const Envelope& envelope) {
  Chain& chain = chains_[envelope.producer];
  Segment& seg = active_segment(chain, envelope.producer);
  net::ByteWriter record;
  append_segment_record(envelope, record);
  write_stream(*seg.writer, record.view(), "segment record");
  chain.index.emplace(
      envelope.sequence,
      RecordLoc{chain.active_file_id,
                seg.bytes + 4 + kEnvelopePrefixBytes,
                envelope.payload.size()});
  seg.sequences.push_back(envelope.sequence);
  seg.max_sequence = std::max(seg.max_sequence, envelope.sequence);
  seg.bytes += record.size();
  seg.payload_bytes += envelope.payload.size();
  chain.payload_bytes += envelope.payload.size();
}

bool SegmentStore::contains(DomainId producer,
                            std::uint64_t sequence) const {
  const auto it = chains_.find(producer);
  return it != chains_.end() && it->second.index.contains(sequence);
}

void SegmentStore::read_payload(const Chain& chain,
                                const RecordLoc& loc) const {
  if (!chain.reader_open || chain.reader_file_id != loc.file_id) {
    if (chain.reader_open) chain.reader.close();
    chain.reader_open = false;
    const auto seg_it = chain.segments.find(loc.file_id);
    if (seg_it == chain.segments.end()) {
      throw std::runtime_error("SegmentStore: dangling record location");
    }
    chain.reader.clear();
    chain.reader.open(seg_it->second.path, std::ios::binary);
    if (!chain.reader) {
      throw std::runtime_error("SegmentStore: cannot open " +
                               seg_it->second.path.string());
    }
    chain.reader_open = true;
    chain.reader_file_id = loc.file_id;
  }
  chain.reader.clear();
  chain.reader.seekg(static_cast<std::streamoff>(loc.payload_offset));
  scratch_.resize(loc.payload_size);
  chain.reader.read(reinterpret_cast<char*>(scratch_.data()),
                    static_cast<std::streamsize>(loc.payload_size));
  if (static_cast<std::size_t>(chain.reader.gcount()) != loc.payload_size) {
    throw std::runtime_error("SegmentStore: short payload read");
  }
}

void SegmentStore::visit_after(
    DomainId producer, std::uint64_t cursor,
    core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)> visit)
    const {
  const auto chain_it = chains_.find(producer);
  if (chain_it == chains_.end()) return;
  const Chain& chain = chain_it->second;
  // Same mutation-tolerant walk as the memory backend: re-find the
  // successor BY SEQUENCE after every visit, because the visitor may ack
  // mid-walk and the triggered erase_through() unlinks whole segments —
  // including, legitimately, the one holding the record just served (the
  // payload lives in scratch_ by then, not in the file).
  auto it = chain.index.upper_bound(cursor);
  while (it != chain.index.end()) {
    const std::uint64_t seq = it->first;
    const RecordLoc loc = it->second;  // copy: the node may be erased
    read_payload(chain, loc);
    visit(seq, std::span<const std::byte>(scratch_.data(),
                                          loc.payload_size));
    it = chain.index.upper_bound(seq);
  }
}

std::size_t SegmentStore::count_after(DomainId producer,
                                      std::uint64_t cursor) const {
  const auto it = chains_.find(producer);
  if (it == chains_.end()) return 0;
  return static_cast<std::size_t>(std::distance(
      it->second.index.upper_bound(cursor), it->second.index.end()));
}

void SegmentStore::unlink_segment(Chain& chain, std::uint64_t file_id) {
  Segment& seg = chain.segments.at(file_id);
  if (chain.has_active && chain.active_file_id == file_id) {
    seal_active(chain);
  }
  if (chain.reader_open && chain.reader_file_id == file_id) {
    chain.reader.close();
    chain.reader_open = false;
  }
  for (const std::uint64_t seq : seg.sequences) {
    chain.index.erase(seq);
  }
  chain.erased += seg.sequences.size();
  chain.payload_bytes -= seg.payload_bytes;
  std::filesystem::remove(seg.path);
  chain.segments.erase(file_id);
  ++chain.unlinked;
  ++total_unlinked_;
}

void SegmentStore::erase_through(DomainId producer, std::uint64_t floor) {
  const auto chain_it = chains_.find(producer);
  if (chain_it == chains_.end()) return;
  Chain& chain = chain_it->second;
  // Whole segments are the deletion unit: a file goes only when the floor
  // passed its LAST sequence.  Sub-floor records in surviving segments
  // stay on disk but can never be served again (reads start after a
  // cursor >= floor).
  std::vector<std::uint64_t> doomed;
  for (const auto& [file_id, seg] : chain.segments) {
    if (!seg.sequences.empty() && seg.max_sequence <= floor) {
      doomed.push_back(file_id);
    }
  }
  for (const std::uint64_t file_id : doomed) {
    unlink_segment(chain, file_id);
  }
}

std::vector<std::pair<DomainId, std::uint64_t>> SegmentStore::heads() const {
  std::vector<std::pair<DomainId, std::uint64_t>> out;
  for (const auto& [producer, chain] : chains_) {
    if (!chain.index.empty()) {
      out.emplace_back(producer, chain.index.rbegin()->first);
    }
  }
  return out;
}

StorageStats SegmentStore::stats() const {
  StorageStats out;
  out.segments_unlinked = total_unlinked_;
  for (const auto& [producer, chain] : chains_) {
    out.envelopes += chain.index.size();
    out.payload_bytes += chain.payload_bytes;
    out.erased += chain.erased;
    out.segments_live += chain.segments.size();
    for (const auto& [file_id, seg] : chain.segments) {
      out.bytes_on_disk += seg.bytes;
    }
  }
  return out;
}

StorageStats SegmentStore::producer_stats(DomainId producer) const {
  StorageStats out;
  const auto it = chains_.find(producer);
  if (it == chains_.end()) return out;
  const Chain& chain = it->second;
  out.envelopes = chain.index.size();
  out.payload_bytes = chain.payload_bytes;
  out.erased = chain.erased;
  out.segments_live = chain.segments.size();
  out.segments_unlinked = chain.unlinked;
  for (const auto& [file_id, seg] : chain.segments) {
    out.bytes_on_disk += seg.bytes;
  }
  return out;
}

// --- SegmentStorage (cursor log + EnvelopeStorage glue) -----------------

SegmentStorage::SegmentStorage(SegmentStoreConfig cfg)
    : store_(cfg), snapshot_every_(cfg.cursor_snapshot_every) {}

SegmentStorage::~SegmentStorage() = default;

RecoveredState SegmentStorage::recover() {
  recover_cursor_log();
  RecoveredState state;
  state.producer_heads = store_.heads();
  state.consumers.reserve(consumers_.size());
  for (const auto& [name, record] : consumers_) {
    state.consumers.push_back(record);
  }
  return state;
}

void SegmentStorage::recover_cursor_log() {
  log_path_ = store_.directory() / "cursors.log";
  std::vector<std::byte> data;
  if (std::filesystem::exists(log_path_)) {
    data = read_file_bytes(log_path_);
  }
  std::size_t valid = 0;
  if (data.size() >= kCursorHeaderBytes) {
    net::ByteReader header(data);
    if (header.u32() != kCursorMagic || header.u8() != kCursorVersion) {
      throw net::WireError("cursor log: bad header");
    }
    const std::span<const std::byte> view(data);
    std::size_t offset = kCursorHeaderBytes;
    valid = offset;
    while (offset < data.size()) {
      const std::size_t remaining = data.size() - offset;
      if (remaining < 4) break;  // torn tail
      net::ByteReader len_reader(view.subspan(offset, 4));
      const std::uint32_t len = len_reader.u32();
      if (len == 0 || len > kMaxCursorRecordBytes) break;
      if (remaining < 4 + static_cast<std::size_t>(len) + 4) break;
      const auto body = view.subspan(offset + 4, len);
      net::ByteReader crc_reader(view.subspan(offset + 4 + len, 4));
      if (crc_reader.u32() != crc32(body)) break;
      net::ByteReader r(body);
      const std::uint8_t kind = r.u8();
      const std::uint16_t name_len = r.u16();
      if (r.remaining() != static_cast<std::size_t>(name_len) + 4 + 8) {
        break;  // malformed body: treat as the torn tail
      }
      std::string name(name_len, '\0');
      for (std::uint16_t i = 0; i < name_len; ++i) {
        name[i] = static_cast<char>(r.u8());
      }
      const DomainId producer = r.u32();
      const std::uint64_t sequence = r.u64();
      ConsumerRecord& rec = consumers_[name];
      rec.name = name;
      switch (kind) {
        case kCursorRegister:
          rec.all_producers = true;
          break;
        case kCursorSubscribe:
          if (std::find(rec.subscribed.begin(), rec.subscribed.end(),
                        producer) == rec.subscribed.end()) {
            rec.subscribed.push_back(producer);
          }
          break;
        case kCursorAck: {
          auto it = std::find_if(
              rec.acked.begin(), rec.acked.end(),
              [producer](const auto& p) { return p.first == producer; });
          if (it == rec.acked.end()) {
            rec.acked.emplace_back(producer, sequence);
          } else {
            it->second = std::max(it->second, sequence);
          }
          break;
        }
        default:
          throw net::WireError("cursor log: unknown record kind");
      }
      offset += 4 + len + 4;
      valid = offset;
    }
  }
  if (valid == 0) {
    // Absent, empty, or torn-create log: start fresh.
    log_.open(log_path_, std::ios::binary | std::ios::trunc);
    net::ByteWriter header;
    header.u32(kCursorMagic);
    header.u8(kCursorVersion);
    write_stream(log_, header.view(), "cursor log header");
    log_bytes_ = header.size();
    return;
  }
  if (valid < data.size()) {
    std::filesystem::resize_file(log_path_, valid);  // torn tail
  }
  log_.open(log_path_, std::ios::binary | std::ios::app);
  if (!log_) {
    throw std::runtime_error("SegmentStorage: cannot open cursor log");
  }
  log_bytes_ = valid;
}

void SegmentStorage::append_cursor_record(std::uint8_t kind,
                                          const std::string& name,
                                          DomainId producer,
                                          std::uint64_t sequence) {
  net::ByteWriter body;
  body.u8(kind);
  body.u16(static_cast<std::uint16_t>(name.size()));
  for (const char c : name) body.u8(static_cast<std::uint8_t>(c));
  body.u32(producer);
  body.u64(sequence);
  net::ByteWriter record;
  record.u32(static_cast<std::uint32_t>(body.size()));
  record.bytes(body.view());
  record.u32(crc32(body.view()));
  write_stream(log_, record.view(), "cursor record");
  log_bytes_ += record.size();
  if (++log_records_since_compact_ >= snapshot_every_) {
    compact_cursor_log();
  }
}

void SegmentStorage::compact_cursor_log() {
  net::ByteWriter image;
  image.u32(kCursorMagic);
  image.u8(kCursorVersion);
  const auto add = [&image](std::uint8_t kind, const std::string& name,
                            DomainId producer, std::uint64_t sequence) {
    net::ByteWriter body;
    body.u8(kind);
    body.u16(static_cast<std::uint16_t>(name.size()));
    for (const char c : name) body.u8(static_cast<std::uint8_t>(c));
    body.u32(producer);
    body.u64(sequence);
    image.u32(static_cast<std::uint32_t>(body.size()));
    image.bytes(body.view());
    image.u32(crc32(body.view()));
  };
  for (const auto& [name, rec] : consumers_) {
    if (rec.all_producers) add(kCursorRegister, name, 0, 0);
    for (const DomainId producer : rec.subscribed) {
      add(kCursorSubscribe, name, producer, 0);
    }
    for (const auto& [producer, sequence] : rec.acked) {
      add(kCursorAck, name, producer, sequence);
    }
  }
  log_.close();
  const std::filesystem::path tmp = log_path_.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    write_stream(out, image.view(), "cursor snapshot");
  }
  std::filesystem::rename(tmp, log_path_);
  log_.open(log_path_, std::ios::binary | std::ios::app);
  if (!log_) {
    throw std::runtime_error("SegmentStorage: cannot reopen cursor log");
  }
  log_bytes_ = image.size();
  log_records_since_compact_ = 0;
}

void SegmentStorage::put(Envelope envelope) { store_.append(envelope); }

bool SegmentStorage::contains(DomainId producer,
                              std::uint64_t sequence) const {
  return store_.contains(producer, sequence);
}

void SegmentStorage::visit_after(
    DomainId producer, std::uint64_t cursor,
    core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)> visit)
    const {
  store_.visit_after(producer, cursor, visit);
}

std::size_t SegmentStorage::count_after(DomainId producer,
                                        std::uint64_t cursor) const {
  return store_.count_after(producer, cursor);
}

void SegmentStorage::erase_through(DomainId producer, std::uint64_t floor) {
  store_.erase_through(producer, floor);
}

void SegmentStorage::persist_registration(const std::string& name,
                                          bool all_producers) {
  ConsumerRecord& rec = consumers_[name];
  rec.name = name;
  rec.all_producers = rec.all_producers || all_producers;
  append_cursor_record(kCursorRegister, name, 0, 0);
}

void SegmentStorage::persist_subscription(const std::string& name,
                                          DomainId producer) {
  ConsumerRecord& rec = consumers_[name];
  rec.name = name;
  if (std::find(rec.subscribed.begin(), rec.subscribed.end(), producer) ==
      rec.subscribed.end()) {
    rec.subscribed.push_back(producer);
  }
  append_cursor_record(kCursorSubscribe, name, producer, 0);
}

void SegmentStorage::persist_ack(const std::string& name, DomainId producer,
                                 std::uint64_t sequence) {
  ConsumerRecord& rec = consumers_[name];
  rec.name = name;
  auto it = std::find_if(
      rec.acked.begin(), rec.acked.end(),
      [producer](const auto& p) { return p.first == producer; });
  if (it == rec.acked.end()) {
    rec.acked.emplace_back(producer, sequence);
  } else {
    it->second = std::max(it->second, sequence);
  }
  append_cursor_record(kCursorAck, name, producer, sequence);
}

StorageStats SegmentStorage::stats() const {
  StorageStats out = store_.stats();
  out.bytes_on_disk += log_bytes_;
  return out;
}

StorageStats SegmentStorage::producer_stats(DomainId producer) const {
  return store_.producer_stats(producer);
}

std::unique_ptr<EnvelopeStorage> make_segment_storage(SegmentStoreConfig cfg) {
  return std::make_unique<SegmentStorage>(std::move(cfg));
}

}  // namespace vpm::dissem
