#include "dissem/wire_importer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dissem/wire_exporter.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {

WireImporter::WireImporter(std::vector<net::PathId> paths)
    : paths_(std::move(paths)) {
  identities_.reserve(paths_.size());
  for (const net::PathId& id : paths_) {
    identities_.push_back(core::path_identity(id));
  }
}

WireImporter::Session::Session(const WireImporter& importer,
                               core::ReceiptSink& sink)
    : importer_(&importer), sink_(&sink) {}

void WireImporter::Session::finish() {
  if (finished_) return;
  if (poisoned_) {
    throw std::logic_error(
        "WireImporter::Session: finish after a decode error poisoned the "
        "session");
  }
  finished_ = true;
}

void WireImporter::Session::end_round() {
  in_round_ = false;
  round_next_ = 0;
  digest_ = core::kRoundDigestSeed;
}

void WireImporter::Session::resync() {
  if (finished_) {
    throw std::logic_error("WireImporter::Session: resync after finish");
  }
  if (poisoned_ && decoding_ != kNoEntry) {
    note_skipped(importer_->paths_[decoding_].path_key());
  }
  decoding_ = kNoEntry;
  end_round();
  poisoned_ = false;
  skipping_ = true;
}

std::vector<std::uint64_t> WireImporter::Session::take_skipped_keys() {
  compact_skipped();
  std::vector<std::uint64_t> out;
  out.swap(skipped_keys_);
  skipped_compacted_ = 0;
  return out;
}

void WireImporter::Session::note_skipped(std::uint64_t key) {
  // Appending keeps a skip walk linear in its entries.  Compacting
  // whenever the list has doubled keeps it O(distinct keys) when a stream
  // repeats one key, at amortised O(log n) per note.
  skipped_keys_.push_back(key);
  if (skipped_keys_.size() > 2 * skipped_compacted_) compact_skipped();
}

void WireImporter::Session::compact_skipped() {
  // The prefix up to the last compaction is already sorted and unique.
  const auto fresh = skipped_keys_.begin() +
                     static_cast<std::ptrdiff_t>(skipped_compacted_);
  std::sort(fresh, skipped_keys_.end());
  std::inplace_merge(skipped_keys_.begin(), fresh, skipped_keys_.end());
  skipped_keys_.erase(std::unique(skipped_keys_.begin(), skipped_keys_.end()),
                      skipped_keys_.end());
  skipped_compacted_ = skipped_keys_.size();
}

void WireImporter::Session::prescan(std::span<const std::byte> payload) {
  net::ByteReader in(payload);
  (void)in.u8();  // chunk tag: value checked in the decode pass
  const std::uint32_t items = in.u32();
  bool need_header = true;
  for (std::uint32_t i = 0; i < items; ++i) {
    if (need_header) in.skip(core::kRoundHeaderBytes);
    need_header = core::read_item(in).close;
  }
  // Trailing bytes are NOT a truncation: the decode pass rejects them as
  // fatal.  Prescan only proves every declared byte is present.
}

void WireImporter::Session::feed(std::span<const std::byte> payload) {
  if (finished_) {
    throw std::logic_error("WireImporter::Session: feed after finish");
  }
  if (poisoned_) {
    throw std::logic_error(
        "WireImporter::Session: feed after a decode error poisoned the "
        "session (resync() to recover at the next round close)");
  }
  // Transient tier: prove the payload byte-complete before touching any
  // state.  A truncated fetch fails HERE with a transient WireError and
  // the session stays exactly as it was — retry with the full payload.
  prescan(payload);
  // Fatal tier: the payload is complete, so any decode error below is a
  // content error retrying cannot fix.  Poison-until-proven-good: a
  // WireError can fire mid-chunk with the chunk's earlier entries already
  // emitted; a caller that catches it must resync().
  poisoned_ = true;
  try {
    decode_chunk(payload);
  } catch (const net::WireError& e) {
    throw net::WireError(e.what(), net::WireError::Severity::kFatal);
  }
  poisoned_ = false;
}

std::size_t WireImporter::Session::index_of(std::uint64_t step) const {
  // step >= 1 names index segment_next_ + step - 1.
  if (step > importer_->paths_.size() - segment_next_) {
    throw net::WireError("entry names a path index past the path table");
  }
  return segment_next_ + static_cast<std::size_t>(step) - 1;
}

void WireImporter::Session::decode_chunk(std::span<const std::byte> payload) {
  net::ByteReader in(payload);
  if (in.u8() != kChunkTag) {
    throw net::WireError("expected receipt chunk tag");
  }
  const std::uint32_t items = in.u32();
  bool need_header = true;
  for (std::uint32_t i = 0; i < items; ++i) {
    if (need_header) {
      // Every segment re-bases its index steps; a round continuing from
      // the previous chunk keeps its last index and running digest.
      header_ = core::decode_round_header(in);
      segment_next_ = 0;
      need_header = false;
    }
    const core::Item item = core::read_item(in);
    if (item.close) {
      if (!skipping_) {
        if (!in_round_) throw net::WireError("round close with no entries");
        if (item.digest != digest_) {
          throw net::WireError(
              "round digest mismatch: the consumer's path table differs "
              "from the producer's");
        }
      }
      end_round();
      skipping_ = false;  // resync target found: rounds realign here
      need_header = true;
      continue;
    }
    const std::size_t index = index_of(item.step);
    segment_next_ = index + 1;
    if (skipping_) {
      // Resync walk: entries are self-framing, so skip their bodies
      // without decoding them — but record whose receipts are discarded.
      note_skipped(importer_->paths_[index].path_key());
      continue;
    }
    if (index < round_next_) {
      throw net::WireError("path indices do not ascend within a round");
    }
    decoding_ = index;
    core::PathDrain drain =
        core::decode_entry(item, importer_->paths_[index], header_);
    decoding_ = kNoEntry;
    digest_ =
        core::fold_round_digest(digest_, index, importer_->identities_[index]);
    in_round_ = true;
    round_next_ = index + 1;
    sink_->on_drain(index, std::move(drain));
  }
  if (!in.done()) {
    throw net::WireError("trailing bytes after the chunk's items");
  }
}

void WireImporter::import_into(const ReceiptStore& store, DomainId producer,
                               core::ReceiptSink& sink) const {
  Session session(*this, sink);
  store.for_each_payload(producer, [&](std::span<const std::byte> payload) {
    session.feed(payload);
  });
  session.finish();
}

std::vector<core::IndexedPathDrain> WireImporter::import(
    const ReceiptStore& store, DomainId producer) const {
  core::VectorSink sink;
  import_into(store, producer, sink);
  return std::move(sink).take();
}

core::HopReceipts WireImporter::import_hop(const ReceiptStore& store,
                                           DomainId producer,
                                           net::HopId hop) const {
  std::vector<core::IndexedPathDrain> stream = import(store, producer);
  if (stream.empty()) {
    throw std::invalid_argument(
        "WireImporter::import_hop: producer shipped no receipts");
  }
  // Periodic reporting yields one drain per round; they concatenate to
  // the one-shot drain (the collector's documented drain-order
  // invariant), which is what the verifier consumes.
  core::HopReceipts out{
      .hop = hop,
      .samples = std::move(stream.front().drain.samples),
      .aggregates = std::move(stream.front().drain.aggregates)};
  for (std::size_t i = 1; i < stream.size(); ++i) {
    core::IndexedPathDrain& d = stream[i];
    if (d.path != stream.front().path) {
      throw std::invalid_argument(
          "WireImporter::import_hop expects a single-path producer");
    }
    out.samples.samples.insert(
        out.samples.samples.end(),
        std::make_move_iterator(d.drain.samples.samples.begin()),
        std::make_move_iterator(d.drain.samples.samples.end()));
    out.aggregates.insert(
        out.aggregates.end(),
        std::make_move_iterator(d.drain.aggregates.begin()),
        std::make_move_iterator(d.drain.aggregates.end()));
  }
  return out;
}

}  // namespace vpm::dissem
