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
  export_samples(drain.samples);

  // Aggregate runs are spans of the drain's own vector, split wherever
  // the next receipt would not fit the run's epoch range.
  const std::span<const core::AggregateReceipt> aggs(drain.aggregates);
  stats_.aggregate_receipts += aggs.size();
  std::size_t begin = 0;
  for (std::size_t i = 1; i < aggs.size(); ++i) {
    const net::Timestamp epoch = aggs[begin].opened_at;
    if (!fits_epoch(aggs[i].opened_at, epoch) ||
        !fits_epoch(aggs[i].closed_at, epoch)) {
      append_aggregate_batch(aggs.subspan(begin, i - begin));
      ++stats_.epoch_splits;
      begin = i;
    }
  }
  if (!aggs.empty()) append_aggregate_batch(aggs.subspan(begin));
  in_path_ = false;
}

void WireExporter::export_samples(const core::SampleReceipt& samples) {
  stats_.sample_records += samples.samples.size();
  const std::uint64_t key = samples.path.path_key();
  // Split at sampling-round boundaries so every sub-batch both ends with
  // its marker (the positional marker encoding) and spans at most one
  // epoch range.  `begin` is the first record of the current sub-batch,
  // `round_start` the first record of the current (possibly open) round.
  const std::vector<core::SampleRecord>& recs = samples.samples;
  core::SampleReceipt part;
  part.path = samples.path;
  part.sample_threshold = samples.sample_threshold;
  part.marker_threshold = samples.marker_threshold;

  std::size_t begin = 0;
  std::size_t round_start = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!fits_epoch(recs[i].time, recs[begin].time)) {
      if (round_start == begin) {
        throw std::invalid_argument(
            "WireExporter: one sampling round spans more than the batch "
            "epoch range; drain more often");
      }
      part.samples.assign(recs.begin() + static_cast<std::ptrdiff_t>(begin),
                          recs.begin() +
                              static_cast<std::ptrdiff_t>(round_start));
      net::ByteWriter batch;
      core::encode_sample_batch(part, batch);
      append_section(kSampleSectionKind, key, batch);
      ++stats_.sample_batches;
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
  // importer reconstructs the exact drain).  encode_sample_batch rejects
  // a trailing partial round, exactly as it would for a direct encode.
  // No split (the common reporting cadence): encode the receipt as-is
  // instead of copying every record into the scratch sub-receipt.
  net::ByteWriter batch;
  if (begin == 0) {
    core::encode_sample_batch(samples, batch);
  } else {
    part.samples.assign(recs.begin() + static_cast<std::ptrdiff_t>(begin),
                        recs.end());
    core::encode_sample_batch(part, batch);
  }
  append_section(kSampleSectionKind, key, batch);
  ++stats_.sample_batches;
}

void WireExporter::append_aggregate_batch(
    std::span<const core::AggregateReceipt> run) {
  net::ByteWriter batch;
  core::encode_aggregate_batch(run, batch);
  append_section(kAggregateSectionKind, run.front().path.path_key(), batch);
  ++stats_.aggregate_batches;
}

void WireExporter::end_round() {
  require_usable("end_round()");
  if (at_round_boundary_) return;
  append_section(kRoundMarkKind, 0, net::ByteWriter{});
  at_round_boundary_ = true;
}

void WireExporter::append_section(std::uint8_t kind, std::uint64_t path_key,
                                  const net::ByteWriter& batch) {
  const std::size_t section_bytes = kSectionHeaderBytes + batch.size();
  if (section_count_ > 0 &&
      kChunkHeaderBytes + sections_.size() + section_bytes >
          cfg_.max_chunk_bytes) {
    seal_chunk();
  }
  if (kChunkHeaderBytes + section_bytes > cfg_.max_chunk_bytes) {
    ++stats_.oversized_sections;
  }
  sections_.u8(kind);
  sections_.u64(path_key);
  sections_.u32(static_cast<std::uint32_t>(batch.size()));
  sections_.bytes(batch.view());
  ++section_count_;
  if (kind != kRoundMarkKind) at_round_boundary_ = false;
  stats_.peak_buffer_bytes = std::max(stats_.peak_buffer_bytes,
                                      kChunkHeaderBytes + sections_.size());
}

void WireExporter::seal_chunk() {
  if (section_count_ == 0) return;
  net::ByteWriter payload;
  payload.u8(kChunkTag);
  payload.u32(section_count_);
  payload.bytes(sections_.view());
  const std::size_t payload_size = payload.size();
  Envelope env = seal(cfg_.producer, sequence_++, std::move(payload).take(),
                      cfg_.key);
  ++stats_.chunks;
  stats_.payload_bytes += payload_size;
  stats_.envelope_bytes += payload_size + kEnvelopeOverheadBytes;
  sections_ = net::ByteWriter{};
  section_count_ = 0;
  consumer_(std::move(env));
}

void WireExporter::flush() {
  require_usable("flush()");
  seal_chunk();
}

void WireExporter::finish() {
  if (finished_) return;
  require_usable("finish()");
  // Close the stream's last round, so a successor exporter continuing
  // this envelope sequence (first_sequence = next_sequence()) starts a
  // recognisable new round whatever paths it ships.
  end_round();
  seal_chunk();
  finished_ = true;
}

}  // namespace vpm::dissem
