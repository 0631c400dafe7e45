#include "dissem/wire_importer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/receipt_batch.hpp"
#include "dissem/wire_exporter.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {

WireImporter::WireImporter(std::vector<net::PathId> paths)
    : paths_(std::move(paths)) {
  index_of_.reserve(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (!index_of_.emplace(paths_[i].path_key(), i).second) {
      throw std::invalid_argument("WireImporter: duplicate path key");
    }
  }
}

WireImporter::Session::Session(const WireImporter& importer,
                               core::ReceiptSink& sink)
    : importer_(&importer),
      sink_(&sink),
      seen_(importer.paths_.size(), false) {}

void WireImporter::Session::close_path() {
  if (!cur_.active) return;
  // The one place a path leaves the session: whole, once all its
  // sections decoded.
  sink_->on_drain(cur_.index, std::move(cur_.drain));
  cur_ = Assembly{};
}

void WireImporter::Session::finish() {
  if (finished_) return;
  if (poisoned_) {
    // The assembly is half mutated by a decode error: closing it would
    // hand the sink a fabricated partial round.
    throw std::logic_error(
        "WireImporter::Session: finish after a decode error poisoned the "
        "session");
  }
  close_path();
  finished_ = true;
}

void WireImporter::Session::resync() {
  if (finished_) {
    throw std::logic_error("WireImporter::Session: resync after finish");
  }
  if (cur_.active) note_skipped(cur_.key);
  cur_ = Assembly{};
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
  // Appending keeps a skip walk linear in its sections.  Compacting
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
  const std::uint32_t sections = in.u32();
  for (std::uint32_t s = 0; s < sections; ++s) {
    (void)in.u8();
    (void)in.u64();
    in.skip(in.u32());
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
        "session (resync() to recover at the next round mark)");
  }
  // Transient tier: prove the payload byte-complete before touching any
  // state.  A truncated fetch fails HERE with a transient WireError and
  // the session stays exactly as it was — retry with the full payload.
  prescan(payload);
  // Fatal tier: the payload is complete, so any decode error below is a
  // content error retrying cannot fix.  Poison-until-proven-good: a
  // WireError can fire mid-chunk with the assembly half mutated and the
  // chunk's earlier paths already emitted; a caller that catches it must
  // resync().
  poisoned_ = true;
  try {
    decode_chunk(payload);
  } catch (const net::WireError& e) {
    throw net::WireError(e.what(), net::WireError::Severity::kFatal);
  }
  poisoned_ = false;
}

void WireImporter::Session::decode_chunk(std::span<const std::byte> payload) {
  net::ByteReader in(payload);
  if (in.u8() != kChunkTag) {
    throw net::WireError("expected receipt chunk tag");
  }
  const std::uint32_t sections = in.u32();
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint8_t kind = in.u8();
    if (kind != kSampleSectionKind && kind != kAggregateSectionKind &&
        kind != kRoundMarkKind) {
      throw net::WireError("unknown chunk section kind");
    }
    const std::uint64_t key = in.u64();
    const std::uint32_t length = in.u32();
    // The batch decodes through its own reader, so it can neither read
    // nor reserve past its section.
    net::ByteReader section(in.bytes(length));

    if (kind == kRoundMarkKind) {
      if (key != 0 || length != 0) {
        throw net::WireError("malformed round-mark section");
      }
      close_path();
      seen_.assign(seen_.size(), false);
      skipping_ = false;  // resync target found: rounds realign here
      continue;
    }

    if (skipping_) {
      // Resync walk: sections are self-framing, so skip content without
      // decoding it — but record whose receipts are being discarded.
      note_skipped(key);
      continue;
    }

    // A path's sections are contiguous within a round; a sample section
    // for the CURRENT path after its aggregates started can only be the
    // producer's next round (single-path periodic reporting without an
    // explicit round mark).
    if (!cur_.active || key != cur_.key ||
        (kind == kSampleSectionKind && cur_.in_aggregates)) {
      close_path();
      const auto it = importer_->index_of_.find(key);
      if (it == importer_->index_of_.end()) {
        throw net::WireError("chunk references unknown path key");
      }
      if (kind != kSampleSectionKind) {
        throw net::WireError(
            "path section stream must start with its sample batch");
      }
      if (seen_[it->second]) {
        // A fresh sample section for an already-imported path is the
        // producer's next reporting round (periodic drains through one
        // sequence of envelopes): every path starts over.  Within a
        // round a path's sections stay contiguous — an aggregate
        // section for a non-current path is rejected above.
        seen_.assign(seen_.size(), false);
      }
      seen_[it->second] = true;
      cur_.active = true;
      cur_.index = it->second;
      cur_.key = key;
    }
    const net::PathId& id = importer_->paths_[cur_.index];

    core::PathDrain& drain = cur_.drain;
    if (kind == kSampleSectionKind) {
      core::SampleReceipt part = core::decode_sample_batch(section, id, key);
      if (!cur_.have_samples) {
        drain.samples = std::move(part);
        cur_.have_samples = true;
      } else {
        if (part.sample_threshold != drain.samples.sample_threshold ||
            part.marker_threshold != drain.samples.marker_threshold) {
          throw net::WireError(
              "split sample batches disagree on thresholds");
        }
        // The decoder validates time order within one batch; the seam
        // between split batches must stay monotone too, or the
        // reassembled stream smuggles in exactly the inversion the
        // per-batch check rejects.
        if (!part.samples.empty() && !drain.samples.samples.empty() &&
            part.samples.front().time < drain.samples.samples.back().time) {
          throw net::WireError("split sample batches not in time order");
        }
        drain.samples.samples.insert(
            drain.samples.samples.end(),
            std::make_move_iterator(part.samples.begin()),
            std::make_move_iterator(part.samples.end()));
      }
    } else {
      cur_.in_aggregates = true;
      std::vector<core::AggregateReceipt> batch =
          core::decode_aggregate_batch(section, id, key);
      // Same seam rule across split aggregate batches: open times must
      // not step backwards between sections.
      if (!batch.empty() && !drain.aggregates.empty() &&
          batch.front().opened_at < drain.aggregates.back().opened_at) {
        throw net::WireError("split aggregate batches not in open order");
      }
      if (drain.aggregates.empty()) {
        drain.aggregates = std::move(batch);
      } else {
        drain.aggregates.insert(drain.aggregates.end(),
                                std::make_move_iterator(batch.begin()),
                                std::make_move_iterator(batch.end()));
      }
    }
    if (!section.done()) {
      throw net::WireError("section length does not match its batch");
    }
  }
  if (!in.done()) {
    throw net::WireError("trailing bytes after the chunk's sections");
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
