#include "dissem/wire_exporter.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/receipt_batch.hpp"

namespace vpm::dissem {
namespace {

/// The 3-byte microsecond offset range of one receipt_batch epoch.
constexpr std::int64_t kMaxEpochSpanNs = 0xFFFFFFll * 1000;

bool fits_epoch(net::Timestamp t, net::Timestamp epoch) noexcept {
  const std::int64_t ns = (t - epoch).nanoseconds();
  return ns >= 0 && ns <= kMaxEpochSpanNs;
}

/// Where the chunk header's section count sits: after the u8 tag.
constexpr std::size_t kChunkCountOffset = 1;

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

void WireExporter::on_drain(std::size_t, core::PathDrain drain) {
  require_usable("on_drain()");
  // Cleared only once the whole path is buffered: if the codec throws,
  // the flag stays set and keeps the half-encoded path from being sealed.
  in_path_ = true;
  ++stats_.paths;
  const std::uint64_t key = drain.samples.path.path_key();
  export_samples(drain.samples, key);

  // Aggregate runs are spans of the drain's own vector, split wherever
  // the next receipt would not fit the run's epoch range.  They name the
  // samples' path, whose key is reused; a drain whose aggregates name
  // another path ships them under that path's key.
  const std::span<const core::AggregateReceipt> aggs(drain.aggregates);
  stats_.aggregate_receipts += aggs.size();
  if (!aggs.empty()) {
    const std::uint64_t agg_key = aggs.front().path == drain.samples.path
                                      ? key
                                      : aggs.front().path.path_key();
    std::size_t begin = 0;
    for (std::size_t i = 1; i < aggs.size(); ++i) {
      const net::Timestamp epoch = aggs[begin].opened_at;
      if (!fits_epoch(aggs[i].opened_at, epoch) ||
          !fits_epoch(aggs[i].closed_at, epoch)) {
        write_aggregate_batch(aggs.subspan(begin, i - begin), agg_key);
        ++stats_.epoch_splits;
        begin = i;
      }
    }
    write_aggregate_batch(aggs.subspan(begin), agg_key);
  }
  in_path_ = false;
}

void WireExporter::export_samples(const core::SampleReceipt& samples,
                                  std::uint64_t key) {
  stats_.sample_records += samples.samples.size();
  // Split at sampling-round boundaries so every sub-batch both ends with
  // its marker (the positional marker encoding) and spans at most one
  // epoch range.  `begin` is the first record of the current sub-batch,
  // `round_start` the first record of the current (possibly open) round.
  const std::span<const core::SampleRecord> recs(samples.samples);
  std::size_t begin = 0;
  std::size_t round_start = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!fits_epoch(recs[i].time, recs[begin].time)) {
      if (round_start == begin) {
        throw std::invalid_argument(
            "WireExporter: one sampling round spans more than the batch "
            "epoch range; drain more often");
      }
      write_sample_batch(samples, recs.subspan(begin, round_start - begin),
                         key);
      ++stats_.epoch_splits;
      begin = round_start;
      if (!fits_epoch(recs[i].time, recs[begin].time)) {
        throw std::invalid_argument(
            "WireExporter: one sampling round spans more than the batch "
            "epoch range; drain more often");
      }
    }
    if (recs[i].is_marker) round_start = i + 1;
  }
  // The trailing sub-batch — always emitted, even when the whole receipt
  // is empty (an idle path still discloses its thresholds, and the
  // importer reconstructs the exact drain).  The codec rejects a trailing
  // partial round, exactly as it would for a direct encode.
  write_sample_batch(samples, recs.subspan(begin), key);
}

void WireExporter::write_sample_batch(
    const core::SampleReceipt& samples,
    std::span<const core::SampleRecord> records, std::uint64_t key) {
  net::ByteWriter& out = open_section(kSampleSectionKind, key,
                                      core::sample_batch_size(records));
  core::encode_sample_batch(samples, records, key, out);
  close_section(kSampleSectionKind);
  ++stats_.sample_batches;
}

void WireExporter::write_aggregate_batch(
    std::span<const core::AggregateReceipt> run, std::uint64_t key) {
  net::ByteWriter& out = open_section(kAggregateSectionKind, key,
                                      core::aggregate_batch_size(run));
  core::encode_aggregate_batch(run, key, out);
  close_section(kAggregateSectionKind);
  ++stats_.aggregate_batches;
}

void WireExporter::end_round() {
  require_usable("end_round()");
  if (at_round_boundary_) return;
  (void)open_section(kRoundMarkKind, 0, 0);
  close_section(kRoundMarkKind);
  at_round_boundary_ = true;
}

net::ByteWriter& WireExporter::open_section(std::uint8_t kind,
                                            std::uint64_t path_key,
                                            std::size_t batch_bytes) {
  const std::size_t section_bytes = kSectionHeaderBytes + batch_bytes;
  if (section_count_ > 0 &&
      chunk_.size() + section_bytes > cfg_.max_chunk_bytes) {
    seal_chunk(/*trim=*/false);
  }
  if (kChunkHeaderBytes + section_bytes > cfg_.max_chunk_bytes) {
    ++stats_.oversized_sections;
  }
  // Grow by doubling, but not past the cap: the buffer becomes the
  // envelope's payload, so a chunk the cap seals keeps less than one
  // section of spare capacity for a store to retain.
  const std::size_t need = (chunk_.size() == 0 ? kChunkHeaderBytes
                                               : chunk_.size()) +
                           section_bytes;
  if (need > chunk_.capacity()) {
    chunk_.reserve(std::max(
        need, std::min(2 * chunk_.capacity(), cfg_.max_chunk_bytes)));
  }
  if (chunk_.size() == 0) {
    chunk_.u8(kChunkTag);
    chunk_.u32(0);  // section count, patched when the chunk seals
  }
  chunk_.u8(kind);
  chunk_.u64(path_key);
  chunk_.u32(static_cast<std::uint32_t>(batch_bytes));
  section_end_ = chunk_.size() + batch_bytes;
  return chunk_;
}

void WireExporter::close_section(std::uint8_t kind) {
  if (chunk_.size() != section_end_) {
    throw std::logic_error(
        "WireExporter: a batch encoded to other than its computed size");
  }
  ++section_count_;
  if (kind != kRoundMarkKind) at_round_boundary_ = false;
  stats_.peak_buffer_bytes =
      std::max(stats_.peak_buffer_bytes, chunk_.size());
}

void WireExporter::seal_chunk(bool trim) {
  if (section_count_ == 0) return;
  chunk_.patch_u32(kChunkCountOffset, section_count_);
  if (trim) chunk_.shrink_to_fit();
  const std::size_t payload_size = chunk_.size();
  Envelope env =
      seal(cfg_.producer, sequence_++, std::move(chunk_).take(), cfg_.key);
  ++stats_.chunks;
  stats_.payload_bytes += payload_size;
  stats_.envelope_bytes += payload_size + kEnvelopeOverheadBytes;
  section_count_ = 0;
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
  // recognisable new round whatever paths it ships.
  end_round();
  seal_chunk(/*trim=*/true);
  finished_ = true;
}

}  // namespace vpm::dissem
