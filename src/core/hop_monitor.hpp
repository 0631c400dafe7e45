// The per-HOP, per-path monitoring state: Algorithm 1 + Algorithm 2 over
// one path, stamping receipts with this HOP's PathId.
//
// This is the "collector module" view of one path at one HOP (Section 7):
// the data plane calls observe() per packet; the control-plane "processor
// module" periodically drains receipts with collect_*().  Since the SoA
// refactor this is a thin facade over a 1-path core::PathStateSoA block —
// the multi-path monitoring cache (src/collector) runs the SAME kernels
// over an N-path block, so a HopMonitor is exactly "one row" of the cache.
//
// sampler()/aggregator() return value-type statistics views (the pre-SoA
// API returned references to the component objects; the statistics
// surface is unchanged).
#ifndef VPM_CORE_HOP_MONITOR_HPP
#define VPM_CORE_HOP_MONITOR_HPP

#include <vector>

#include "core/config.hpp"
#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "net/path_id.hpp"

namespace vpm::core {

struct HopMonitorConfig {
  ProtocolParams protocol;  ///< system-wide parameters
  HopTuning tuning;         ///< this HOP's local resource choice
  net::PathId path;         ///< stamped on every receipt
};

/// Read-only snapshot of one path's sampler-side statistics (mirrors the
/// DelaySampler accessor surface).
struct SamplerStatsView {
  std::size_t buffered_records = 0;
  std::size_t peak = 0;
  std::uint64_t observed = 0;
  std::uint64_t markers = 0;
  std::uint64_t swept = 0;
  std::uint32_t sigma = 0;
  std::uint32_t mu = 0;

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffered_records;
  }
  [[nodiscard]] std::size_t buffer_peak() const noexcept { return peak; }
  [[nodiscard]] std::uint64_t observed_packets() const noexcept {
    return observed;
  }
  [[nodiscard]] std::uint64_t markers_seen() const noexcept { return markers; }
  [[nodiscard]] std::uint64_t swept_records() const noexcept { return swept; }
  [[nodiscard]] std::uint32_t sample_threshold() const noexcept {
    return sigma;
  }
  [[nodiscard]] std::uint32_t marker_threshold() const noexcept { return mu; }
};

/// Read-only snapshot of one path's aggregator-side statistics (mirrors
/// the Aggregator accessor surface).
struct AggregatorStatsView {
  std::uint64_t observed = 0;
  std::uint64_t cuts = 0;
  std::uint32_t delta = 0;
  std::size_t window_peak = 0;

  [[nodiscard]] std::uint64_t observed_packets() const noexcept {
    return observed;
  }
  [[nodiscard]] std::uint64_t cuts_seen() const noexcept { return cuts; }
  [[nodiscard]] std::uint32_t cut_threshold() const noexcept { return delta; }
  [[nodiscard]] std::size_t window_buffer_peak() const noexcept {
    return window_peak;
  }
};

class HopMonitor {
 public:
  /// Throws std::invalid_argument if the tuning is infeasible (see
  /// sample_threshold_for).
  explicit HopMonitor(const HopMonitorConfig& cfg)
      : path_(cfg.path),
        engine_(cfg.protocol.make_engine()),
        state_(PathParams{
                   .marker_threshold = cfg.protocol.marker_threshold(),
                   .sample_threshold = sample_threshold_for(
                       cfg.protocol, cfg.tuning.sample_rate),
                   .cut_threshold = cut_threshold_for(cfg.tuning.cut_rate),
                   .j_window = cfg.protocol.reorder_window_j,
                   .marker_max_age = cfg.protocol.marker_max_age},
               1) {}

  /// Data-plane per-packet step (classification into this path has already
  /// happened).  Hashes the packet exactly once: the digest engine's
  /// decide() feeds both the sampler and the aggregator kernels.  Returns
  /// the number of temp-buffer records swept if the packet was a marker.
  std::size_t observe(const net::Packet& p, net::Timestamp local_time) {
    return observe(engine_.decide(p), local_time);
  }

  /// Fast path for callers that already computed the packet's decisions
  /// (the monitoring cache's batch loop).
  std::size_t observe(const net::PacketDecisions& d,
                      net::Timestamp local_time) {
    return path_observe(state_, 0, d, local_time);
  }

  /// Drain sampled measurements into a receipt.
  [[nodiscard]] SampleReceipt collect_samples() {
    return path_collect_samples(state_, 0, path_);
  }

  /// Drain closed aggregates; with `flush_open`, also closes the current
  /// aggregate (end of measurement run).
  [[nodiscard]] std::vector<AggregateReceipt> collect_aggregates(
      bool flush_open = false) {
    return path_collect_aggregates(state_, 0, path_, flush_open);
  }

  /// Control-plane drain hook: samples plus closed aggregates in one unit
  /// (what the processor module ships per reporting period).
  [[nodiscard]] PathDrain drain(bool flush_open = false) {
    return PathDrain{.samples = collect_samples(),
                     .aggregates = collect_aggregates(flush_open)};
  }

  [[nodiscard]] const net::PathId& path() const noexcept { return path_; }
  [[nodiscard]] const net::DigestEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] SamplerStatsView sampler() const noexcept {
    const PathStats& st = state_.stats[0];
    return SamplerStatsView{.buffered_records = state_.slots[0].hot.buf_size,
                            .peak = state_.path_buffer_peak(0),
                            .observed = state_.path_observed_packets(0),
                            .markers = st.markers,
                            .swept = st.swept,
                            .sigma = state_.params.sample_threshold,
                            .mu = state_.params.marker_threshold};
  }
  [[nodiscard]] AggregatorStatsView aggregator() const noexcept {
    const PathStats& st = state_.stats[0];
    return AggregatorStatsView{.observed = state_.path_observed_packets(0),
                               .cuts = st.cuts,
                               .delta = state_.params.cut_threshold,
                               .window_peak = state_.slots[0].warm.window_peak};
  }

 private:
  net::PathId path_;
  net::DigestEngine engine_;
  /// One-path SoA block (see core/path_state.hpp).
  PathStateSoA state_;
};

}  // namespace vpm::core

#endif  // VPM_CORE_HOP_MONITOR_HPP
