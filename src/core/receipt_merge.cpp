#include "core/receipt_merge.hpp"

#include <limits>
#include <stdexcept>

namespace vpm::core {

std::vector<IndexedPathDrain> merge_path_drains(
    std::vector<std::vector<IndexedPathDrain>> shards) {
  std::size_t total = 0;
  for (const auto& s : shards) {
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (s[i - 1].path >= s[i].path) {
        throw std::invalid_argument(
            "merge_path_drains: shard stream not ascending by path index");
      }
    }
    total += s.size();
  }

  std::vector<IndexedPathDrain> out;
  out.reserve(total);
  std::vector<std::size_t> cursor(shards.size(), 0);
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  while (out.size() < total) {
    std::size_t best = kNone;
    std::size_t best_path = kNone;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] == shards[s].size()) continue;
      const std::size_t p = shards[s][cursor[s]].path;
      if (best == kNone || p < best_path) {
        best = s;
        best_path = p;
      } else if (p == best_path) {
        throw std::invalid_argument(
            "merge_path_drains: path index claimed by two shards");
      }
    }
    out.push_back(std::move(shards[best][cursor[best]]));
    ++cursor[best];
  }
  return out;
}

StreamingDrainMerge::StreamingDrainMerge(std::vector<DrainSource> sources)
    : sources_(std::move(sources)), heads_(sources_.size()) {}

void StreamingDrainMerge::prime() {
  if (primed_) return;
  primed_ = true;
  for (std::size_t s = 0; s < sources_.size(); ++s) refill(s);
}

StreamingDrainMerge StreamingDrainMerge::over(
    std::vector<std::vector<IndexedPathDrain>> shards) {
  std::vector<DrainSource> sources;
  sources.reserve(shards.size());
  for (std::vector<IndexedPathDrain>& shard : shards) {
    // Each source owns its stream and walks it by cursor; the vector is
    // kept alive by the closure.
    sources.push_back(
        [stream = std::move(shard),
         cursor = std::size_t{0}]() mutable -> std::optional<IndexedPathDrain> {
          if (cursor == stream.size()) return std::nullopt;
          return std::move(stream[cursor++]);
        });
  }
  return StreamingDrainMerge(std::move(sources));
}

void StreamingDrainMerge::refill(std::size_t s) {
  heads_[s].value = sources_[s]();
  if (!heads_[s].value.has_value()) return;
  if (heads_[s].seen_any && heads_[s].value->path <= heads_[s].last_path) {
    throw std::invalid_argument(
        "StreamingDrainMerge: shard stream not ascending by path index");
  }
  heads_[s].seen_any = true;
  heads_[s].last_path = heads_[s].value->path;
}

bool StreamingDrainMerge::done() {
  prime();
  for (const Head& h : heads_) {
    if (h.value.has_value()) return false;
  }
  return true;
}

std::optional<IndexedPathDrain> StreamingDrainMerge::next() {
  prime();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t best = kNone;
  std::size_t best_path = kNone;
  for (std::size_t s = 0; s < heads_.size(); ++s) {
    if (!heads_[s].value.has_value()) continue;
    const std::size_t p = heads_[s].value->path;
    if (best == kNone || p < best_path) {
      best = s;
      best_path = p;
    } else if (p == best_path) {
      throw std::invalid_argument(
          "StreamingDrainMerge: path index claimed by two shards");
    }
  }
  if (best == kNone) return std::nullopt;
  std::optional<IndexedPathDrain> out = std::move(heads_[best].value);
  refill(best);
  return out;
}

void encode_stream(std::span<const IndexedPathDrain> stream,
                   net::ByteWriter& out) {
  for (const IndexedPathDrain& d : stream) {
    encode(d.drain.samples, out);
    for (const AggregateReceipt& r : d.drain.aggregates) encode(r, out);
  }
}

}  // namespace vpm::core
