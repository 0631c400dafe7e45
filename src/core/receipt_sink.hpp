// Streaming receipt-egress API: the consumer side of a control-plane
// drain.
//
// The paper's processor module ships receipts to other domains as
// authenticated wire batches (§2.3, §7.1); materializing a 100k-path drain
// as std::vector<PathDrain> first would cost hundreds of MB the hardware
// does not have.  A ReceiptSink is the one egress seam: every drain
// producer (MonitoringCache, ShardedCollector, pipeline elements,
// WireImporter) hands a sink one whole path drain at a time, so a
// consumer that encodes-and-forgets (the wire exporter) runs in constant
// memory regardless of path count.  A sharded collector emits its paths by
// walking its global path table, so the stream order never depends on the
// shard count.
//
// Contract: one on_drain(index, drain) per drained path, in ascending
// global-path-index order.  Sinks may depend on the order: the wire
// exporter names each path by its index and closes a reporting round at
// the first index that does not ascend.  The drain holds the path's sample
// receipt
// (always present, possibly with an empty record list — an idle path still
// discloses its thresholds) and its closed aggregates in drain
// (opened_at) order.  Drains arrive by value: the producer has already
// detached them from its internal state (drains are destructive), so the
// sink may keep them without copying.  The vector-returning drains of both
// collectors are thin adapters over VectorSink and return the same
// std::vector<IndexedPathDrain>.
#ifndef VPM_CORE_RECEIPT_SINK_HPP
#define VPM_CORE_RECEIPT_SINK_HPP

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/receipt.hpp"

namespace vpm::core {

class ReceiptSink {
 public:
  virtual ~ReceiptSink() = default;

  /// One path's whole drain.  `path_index` is the producer's global path
  /// index (collector drains emit ascending indices; a pipeline with
  /// several collector elements restarts the index space per element, so
  /// through one wire exporter each element's restart opens a new
  /// round).
  virtual void on_drain(std::size_t path_index, PathDrain drain) = 0;
};

/// Replay a materialized drain stream into a sink.
void emit_stream(ReceiptSink& sink, std::vector<IndexedPathDrain> stream);

/// Collects a sink stream into a std::vector<IndexedPathDrain>.  Both
/// collectors' vector drains are this adapter over their sink drains, so
/// the equivalence suites that compare vectors also pin the sink drains.
class VectorSink final : public ReceiptSink {
 public:
  void on_drain(std::size_t path_index, PathDrain drain) override {
    stream_.push_back(
        IndexedPathDrain{.path = path_index, .drain = std::move(drain)});
  }

  /// The collected stream, in arrival order.
  [[nodiscard]] const std::vector<IndexedPathDrain>& stream() const noexcept {
    return stream_;
  }
  /// Surrender the stream and reset.
  [[nodiscard]] std::vector<IndexedPathDrain> take() && {
    return std::move(stream_);
  }

 private:
  std::vector<IndexedPathDrain> stream_;
};

/// Invokes a callback with each (path_index, drain) as it arrives, holding
/// no drain itself — the round-fed verifier's ingest adapter.
/// WireImporter streams a producer's periodic reporting rounds as repeated
/// per-path drains; routing each to IncrementalPathVerifier::add_round as
/// it arrives keeps import memory constant in both path count and round
/// count.
class DrainRoundSink final : public ReceiptSink {
 public:
  using Consumer = std::function<void(std::size_t, PathDrain&&)>;

  /// Throws std::invalid_argument on a null consumer.
  explicit DrainRoundSink(Consumer consumer);

  void on_drain(std::size_t path_index, PathDrain drain) override {
    consumer_(path_index, std::move(drain));
  }

 private:
  Consumer consumer_;
};

/// Discards everything (benchmark baselines, contract smoke tests).
class NullSink final : public ReceiptSink {
 public:
  void on_drain(std::size_t, PathDrain drain) override {
    ++paths_;
    sample_records_ += drain.samples.samples.size();
    aggregates_ += drain.aggregates.size();
  }

  [[nodiscard]] std::size_t paths() const noexcept { return paths_; }
  [[nodiscard]] std::size_t sample_records() const noexcept {
    return sample_records_;
  }
  [[nodiscard]] std::size_t aggregates() const noexcept { return aggregates_; }

 private:
  std::size_t paths_ = 0;
  std::size_t sample_records_ = 0;
  std::size_t aggregates_ = 0;
};

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_SINK_HPP
