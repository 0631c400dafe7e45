#include "dissem/wire_exporter.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace vpm::dissem {
namespace {

/// Where the chunk header's item count sits: after the u8 tag.
constexpr std::size_t kChunkCountOffset = 1;
/// Indices past this would overflow an entry's head varint.
constexpr std::size_t kMaxPathIndex = std::size_t{1} << 62;

/// The base time for a segment `d` opens: its first receipt time, so the
/// entry's epoch codes as a zero delta.
net::Timestamp base_for(const core::PathDrain& d, net::Timestamp previous) {
  if (!d.samples.samples.empty()) return d.samples.samples.front().time;
  if (!d.aggregates.empty()) return d.aggregates.front().opened_at;
  return previous;
}

}  // namespace

WireExporter::WireExporter(Config cfg, EnvelopeConsumer consumer)
    : cfg_(cfg), consumer_(std::move(consumer)), sequence_(cfg.first_sequence) {
  if (!consumer_) {
    throw std::invalid_argument("WireExporter: null envelope consumer");
  }
  if (cfg_.max_chunk_bytes == 0) {
    throw std::invalid_argument("WireExporter: zero max_chunk_bytes");
  }
  if (cfg_.first_sequence == 0) {
    // Sequence 0 is below every store cursor's starting floor: such an
    // envelope could never be served to or acked by a cursor consumer.
    throw std::invalid_argument("WireExporter: first_sequence must be >= 1");
  }
}

void WireExporter::require_usable(const char* call) const {
  if (finished_) {
    throw std::logic_error(std::string("WireExporter: ") + call +
                           " after finish()");
  }
  if (in_path_) {
    throw std::logic_error(std::string("WireExporter: ") + call +
                           " during a drain or after a rejected drain");
  }
}

void WireExporter::on_drain(std::size_t path_index, core::PathDrain drain) {
  require_usable("on_drain()");
  // Cleared only once the entry is written: a rejected drain would leave
  // its round without the path, so the flag stays set and refuses every
  // later call.
  in_path_ = true;
  if (round_open_ && path_index < round_next_) close_round();
  if (path_index >= kMaxPathIndex) {
    throw core::WireLimitError("WireExporter: path index past 2^62");
  }
  if (!round_open_) {
    header_.sample_threshold = drain.samples.sample_threshold;
    header_.marker_threshold = drain.samples.marker_threshold;
    digest_ = core::kRoundDigestSeed;
  }
  // Sized against the open segment, or the one the entry would open; a
  // seal in between opens a fresh segment, so size it again.
  core::SizedEntry entry;
  core::RoundHeader segment = header_;
  do {
    const std::size_t next = segment_open_ ? segment_next_ : 0;
    if (!segment_open_) segment.base = base_for(drain, header_.base);
    entry = core::size_entry(path_index + 1 - next, drain, segment);
  } while (!make_room(entry.bytes(), segment.base));
  if (kChunkHeaderBytes + core::kRoundHeaderBytes + entry.bytes() >
      cfg_.max_chunk_bytes) {
    ++stats_.oversized_sections;
  }
  core::encode_entry(entry, drain, header_, chunk_);
  wrote_item();

  digest_ = core::fold_round_digest(digest_, path_index,
                                    core::path_identity(drain.samples.path));
  round_open_ = true;
  round_next_ = segment_next_ = path_index + 1;
  ++stats_.paths;
  stats_.sample_records += drain.samples.samples.size();
  stats_.aggregate_receipts += drain.aggregates.size();
  stats_.epoch_splits += entry.epoch_splits;
  in_path_ = false;
}

bool WireExporter::make_room(std::size_t item_bytes, net::Timestamp base) {
  const std::size_t framing =
      (chunk_.size() == 0 ? kChunkHeaderBytes : 0) +
      (segment_open_ ? 0 : core::kRoundHeaderBytes);
  if (item_count_ > 0 &&
      chunk_.size() + framing + item_bytes > cfg_.max_chunk_bytes) {
    seal_chunk(/*trim=*/false);
    return false;
  }
  // Grow by doubling, but not past the cap: the buffer becomes the
  // envelope's payload, so a chunk the cap seals keeps less than one
  // item of spare capacity for a store to retain.
  const std::size_t need = chunk_.size() + framing + item_bytes;
  if (need > chunk_.capacity()) {
    chunk_.reserve(std::max(
        need, std::min(2 * chunk_.capacity(), cfg_.max_chunk_bytes)));
  }
  if (chunk_.size() == 0) {
    chunk_.u8(kChunkTag);
    chunk_.u32(0);  // item count, patched when the chunk seals
  }
  if (!segment_open_) {
    header_.base = base;
    core::encode_round_header(header_, chunk_);
    segment_open_ = true;
    segment_next_ = 0;
    ++stats_.sample_batches;
  }
  return true;
}

void WireExporter::wrote_item() {
  ++item_count_;
  stats_.peak_buffer_bytes =
      std::max(stats_.peak_buffer_bytes, chunk_.size());
}

void WireExporter::close_round() {
  while (!make_room(core::kRoundCloseBytes, header_.base)) {
  }
  core::encode_round_close(digest_, chunk_);
  wrote_item();
  ++stats_.aggregate_batches;
  round_open_ = false;
  segment_open_ = false;
}

void WireExporter::end_round() {
  require_usable("end_round()");
  if (round_open_) close_round();
}

void WireExporter::seal_chunk(bool trim) {
  if (item_count_ == 0) return;
  chunk_.patch_u32(kChunkCountOffset, item_count_);
  if (trim) chunk_.shrink_to_fit();
  const std::size_t payload_size = chunk_.size();
  Envelope env =
      seal(cfg_.producer, sequence_++, std::move(chunk_).take(), cfg_.key);
  ++stats_.chunks;
  stats_.payload_bytes += payload_size;
  stats_.envelope_bytes += payload_size + kEnvelopeOverheadBytes;
  item_count_ = 0;
  segment_open_ = false;
  consumer_(std::move(env));
}

void WireExporter::flush() {
  require_usable("flush()");
  seal_chunk(/*trim=*/true);
}

void WireExporter::finish() {
  if (finished_) return;
  require_usable("finish()");
  // Close the stream's last round, so a successor exporter continuing
  // this envelope sequence (first_sequence = next_sequence()) starts a
  // new round whatever paths it ships.
  end_round();
  seal_chunk(/*trim=*/true);
  finished_ = true;
}

}  // namespace vpm::dissem
