// SketchAggregator: the aggregation component with content sketches
// "incorporated" (§3.5).  It cuts aggregates with the exact same rule as
// the monitoring cache's Algorithm 2 kernel (same cut digests, same
// thresholds => same boundaries, so sketch receipts align with aggregate
// receipts for free) and attaches a ContentSketch per aggregate.
#ifndef VPM_SKETCH_SKETCH_AGGREGATOR_HPP
#define VPM_SKETCH_SKETCH_AGGREGATOR_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/packet.hpp"
#include "sketch/content_sketch.hpp"

namespace vpm::sketch {

/// Receipt extension: one sketch per aggregate, identified like an
/// AggregateReceipt by its first/last packet ids.
struct SketchReceipt {
  core::AggId agg;
  std::uint32_t packet_count = 0;
  ContentSketch sketch{32};
};

class SketchAggregator {
 public:
  /// `cut_threshold` must equal the paired monitoring cache's
  /// (core::cut_threshold_for of its cut_rate) so both produce identical
  /// boundaries.  Throws std::invalid_argument if buckets == 0 (via
  /// ContentSketch).
  SketchAggregator(const net::DigestEngine& engine,
                   std::uint32_t cut_threshold, std::size_t buckets)
      : engine_(engine), cut_threshold_(cut_threshold), buckets_(buckets) {
    (void)ContentSketch{buckets};  // validate eagerly
  }

  void observe(const net::Packet& p);

  [[nodiscard]] std::vector<SketchReceipt> take_closed();
  [[nodiscard]] std::optional<SketchReceipt> flush_open();

 private:
  net::DigestEngine engine_;
  std::uint32_t cut_threshold_;
  std::size_t buckets_;
  std::optional<SketchReceipt> open_;
  std::vector<SketchReceipt> closed_;
};

/// Per-aggregate modification verdicts across a domain or link: receipts
/// are paired by their opening packet id (unmatched ones are skipped —
/// the count-based join already covers those).
struct ModificationReport {
  std::size_t aggregates_checked = 0;
  std::size_t aggregates_suspected = 0;
  double total_modified_estimate = 0.0;
  std::vector<ModificationCheck> details;
  [[nodiscard]] bool clean() const noexcept {
    return aggregates_suspected == 0;
  }
};

[[nodiscard]] ModificationReport check_path_modification(
    std::span<const SketchReceipt> up, std::span<const SketchReceipt> down,
    double tolerance = 4.0);

}  // namespace vpm::sketch

#endif  // VPM_SKETCH_SKETCH_AGGREGATOR_HPP
