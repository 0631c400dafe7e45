// Streaming receipt-egress API: the consumer side of a control-plane
// drain.
//
// The paper's processor module ships receipts to other domains as
// authenticated wire batches (§2.3, §7.1); materializing a 100k-path drain
// as std::vector<PathDrain> first would cost hundreds of MB the hardware
// does not have.  A ReceiptSink is the one egress seam: every drain
// producer (MonitoringCache, ShardedCollector, pipeline elements) streams
// receipts into a sink one path at a time, so a consumer that
// encodes-and-forgets (the wire exporter) runs in constant memory
// regardless of path count.  A sharded collector emits its paths by
// walking its global path table, so the stream order never depends on the
// shard count.
//
// Contract, per drained path, in ascending global-path-index order:
//
//   begin_path(index, id)        exactly once
//   on_samples(receipt)          exactly once, before any aggregate
//   on_aggregate(receipt)        zero or more times, in drain order
//   end_path()                   exactly once
//
// The receipts arrive by value: the producer has already detached them
// from its internal state (drains are destructive), so the sink may move
// them without copying.  The vector-returning drains of both collectors
// are thin adapters over VectorSink and return the same
// std::vector<IndexedPathDrain>.
#ifndef VPM_CORE_RECEIPT_SINK_HPP
#define VPM_CORE_RECEIPT_SINK_HPP

#include <cstddef>
#include <functional>
#include <vector>

#include "core/receipt.hpp"
#include "net/path_id.hpp"

namespace vpm::core {

class ReceiptSink {
 public:
  virtual ~ReceiptSink() = default;

  /// Start of one path's drain.  `path_index` is the producer's global
  /// path index (collector drains emit ascending indices; a pipeline with
  /// several collector elements restarts the index space per element).
  /// `id` is the PathId stamped on the path's receipts.
  virtual void begin_path(std::size_t path_index, const net::PathId& id) = 0;
  /// The path's sample receipt — exactly one per path, possibly with an
  /// empty record list (an idle path still discloses its thresholds).
  virtual void on_samples(SampleReceipt samples) = 0;
  /// One closed aggregate receipt, in drain (opened_at) order.
  virtual void on_aggregate(AggregateReceipt aggregate) = 0;
  /// End of the path's drain.
  virtual void end_path() = 0;
};

/// Emit one path drain into a sink under `path_index`, following the
/// contract above.  Both collectors emit every drained or evicted path
/// through this; tests use it to replay recorded drains through
/// production sinks.
void emit_drain(ReceiptSink& sink, std::size_t path_index, PathDrain drain);

/// Replay a materialized drain stream into a sink.
void emit_stream(ReceiptSink& sink, std::vector<IndexedPathDrain> stream);

/// Collects a sink stream into a std::vector<IndexedPathDrain>.  Both
/// collectors' vector drains are this adapter over their sink drains, so
/// the equivalence suites that compare vectors also pin the sink drains.
class VectorSink final : public ReceiptSink {
 public:
  void begin_path(std::size_t path_index, const net::PathId& id) override;
  void on_samples(SampleReceipt samples) override;
  void on_aggregate(AggregateReceipt aggregate) override;
  void end_path() override;

  /// The collected stream, in arrival order.
  [[nodiscard]] const std::vector<IndexedPathDrain>& stream() const noexcept {
    return stream_;
  }
  /// Surrender the stream and reset.  The trailing group may be half
  /// assembled (taken mid-path while the feeder abandons a broken round);
  /// clearing the open flag here is what lets the feeder's next
  /// begin_path start clean instead of tripping the pairing check.
  [[nodiscard]] std::vector<IndexedPathDrain> take() && {
    open_ = false;
    return std::move(stream_);
  }

 private:
  std::vector<IndexedPathDrain> stream_;
  bool open_ = false;
};

/// Invokes a callback with each COMPLETED (path_index, id, drain) group of
/// a sink stream, holding only one path's drain resident — the round-fed
/// verifier's ingest adapter.  WireImporter streams a producer's periodic
/// reporting rounds as repeated begin/.../end groups; routing each group
/// to IncrementalPathVerifier::add_round as it completes keeps import
/// memory constant in both path count and round count.
class DrainRoundSink final : public ReceiptSink {
 public:
  using Consumer =
      std::function<void(std::size_t, const net::PathId&, PathDrain&&)>;

  /// Throws std::invalid_argument on a null consumer.
  explicit DrainRoundSink(Consumer consumer);

  void begin_path(std::size_t path_index, const net::PathId& id) override;
  void on_samples(SampleReceipt samples) override;
  void on_aggregate(AggregateReceipt aggregate) override;
  void end_path() override;

 private:
  Consumer consumer_;
  std::size_t index_ = 0;
  net::PathId id_;
  PathDrain current_;
  bool open_ = false;
};

/// Discards everything (benchmark baselines, contract smoke tests).
class NullSink final : public ReceiptSink {
 public:
  void begin_path(std::size_t, const net::PathId&) override { ++paths_; }
  void on_samples(SampleReceipt samples) override {
    sample_records_ += samples.samples.size();
  }
  void on_aggregate(AggregateReceipt) override { ++aggregates_; }
  void end_path() override {}

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
