// Control-plane receipt-stream merging.
//
// A sharded collector partitions paths across workers, so receipts arrive
// as per-shard streams.  Downstream consumers (alignment, the verifier,
// the dissemination encoder) want ONE stream in a deterministic global
// order, regardless of how many shards produced it: path order, each
// path's drain keyed by its global path index.  Merging per-shard drains
// by index reproduces exactly what a single-threaded MonitoringCache drain
// over the same path table yields; this is the order the sharded-vs-single
// equivalence suite compares byte-for-byte.
#ifndef VPM_CORE_RECEIPT_MERGE_HPP
#define VPM_CORE_RECEIPT_MERGE_HPP

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/receipt.hpp"

namespace vpm::core {

/// One path's drain tagged with its global path index (the index the
/// single-threaded collector would use; shard-local indices never leak).
struct IndexedPathDrain {
  std::size_t path = 0;
  PathDrain drain;

  friend bool operator==(const IndexedPathDrain&,
                         const IndexedPathDrain&) = default;
};

/// Merge per-shard drain streams into one stream ascending by global path
/// index.  Each input stream must itself be ascending by path index (a
/// shard drains its paths in order).  Throws std::invalid_argument if a
/// stream is out of order or two streams claim the same path index (a
/// path must live on exactly one shard).
[[nodiscard]] std::vector<IndexedPathDrain> merge_path_drains(
    std::vector<std::vector<IndexedPathDrain>> shards);

/// Pull source for one shard's drain stream: yields drains ascending by
/// global path index, std::nullopt at end-of-stream.  A source is pulled
/// lazily — one drain at a time, as the merge consumes it.
using DrainSource = std::function<std::optional<IndexedPathDrain>()>;

/// Iterator-style k-way merge of per-shard drain streams — the streaming
/// counterpart of merge_path_drains.  Holds at most ONE drain per source
/// (constant memory in the stream length), so the processor module can
/// ship dissemination batches while shards are still draining instead of
/// materializing every shard's full drain first.
///
/// Same contract as merge_path_drains, enforced lazily: each source must
/// be strictly ascending by path index (std::invalid_argument on the
/// offending pull otherwise) and no two sources may claim the same path
/// index (std::invalid_argument when the tie reaches the merge front).
class StreamingDrainMerge {
 public:
  /// Stores the sources without pulling from them: constructing the merge
  /// consumes nothing, so an abandoned merge leaves every source's state
  /// untouched.  The frontier (one drain per source) is pulled on the
  /// first next()/done() call.
  explicit StreamingDrainMerge(std::vector<DrainSource> sources);

  /// Adapt materialized per-shard streams (the merge takes ownership).
  [[nodiscard]] static StreamingDrainMerge over(
      std::vector<std::vector<IndexedPathDrain>> shards);

  /// The next drain in ascending global-path-index order, or std::nullopt
  /// once every source is exhausted.
  [[nodiscard]] std::optional<IndexedPathDrain> next();

  /// True once every source is exhausted (next() would return nullopt).
  [[nodiscard]] bool done();

 private:
  void prime();
  void refill(std::size_t s);

  struct Head {
    std::optional<IndexedPathDrain> value;
    std::size_t last_path = 0;  ///< valid once `seen_any`
    bool seen_any = false;
  };
  std::vector<DrainSource> sources_;
  std::vector<Head> heads_;
  bool primed_ = false;
};

/// Wire-encode a merged drain stream: per path, the sample receipt then
/// each aggregate receipt, in stream order.  Byte-comparing two encodings
/// is the equivalence suite's identity check.
void encode_stream(std::span<const IndexedPathDrain> stream,
                   net::ByteWriter& out);

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_MERGE_HPP
