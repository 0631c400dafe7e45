// Tunable aggregation — Algorithm 2 (Partition) plus the Section 6.3
// AggTrans extension.
//
// A packet whose cut digest exceeds delta becomes a *cutting point*: it
// closes the current aggregate and opens a new one (and becomes the new
// aggregate's first packet).  delta is local; because every HOP compares
// the same per-packet cut value against its own threshold, cut points are
// nested across HOPs (Section 6.2's subset property), so partitions from
// different HOPs always have a computable, fine join.
//
// For reorder robustness, each closed aggregate's receipt carries the
// AggTrans window: the ids of packets observed within J of the cutting
// point, split into those the HOP assigned before the cut and after it.
// The window extends J *past* the cut, so a closed aggregate is emitted
// only once its trailing window is complete ("pending" until then).
//
// This class is a single-path facade over the SoA kernels in
// core/path_state.hpp (the per-packet step lives there, shared with
// DelaySampler / MonitoringCache).  It does NOT copy the
// digest engine: the caller's engine must outlive the aggregator.
#ifndef VPM_CORE_AGGREGATOR_HPP
#define VPM_CORE_AGGREGATOR_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"

namespace vpm::core {

class Aggregator {
 public:
  /// `cut_threshold` is delta (local tuning); `j_window` is the
  /// system-wide reorder safety threshold J.  If `j_window` is zero no
  /// AggTrans state is kept (the §6.2 "basic solution").
  Aggregator(const net::DigestEngine& engine, std::uint32_t cut_threshold,
             net::Duration j_window)
      : engine_(&engine),
        state_(PathParams{.cut_threshold = cut_threshold,
                          .j_window = j_window},
               1) {}
  /// The engine is held by reference; a temporary would dangle.
  Aggregator(net::DigestEngine&&, std::uint32_t, net::Duration) = delete;

  /// Feed one packet observation (Algorithm 2's per-packet step).
  /// Computes the packet's decision values itself — one hash pass.
  void observe(const net::Packet& p, net::Timestamp when) {
    observe(engine_->decide(p), when);
  }

  /// Fast path: decisions were already computed upstream (one hash per
  /// packet, shared with the sampler — see MonitoringCache::observe).
  void observe(const net::PacketDecisions& d, net::Timestamp when) {
    ++observed_;
    path_observe_aggregator(state_, 0, d, when);
  }

  /// Drain aggregates whose trailing AggTrans window is complete.
  [[nodiscard]] std::vector<AggregateData> take_closed() {
    return path_take_closed(state_, 0);
  }

  /// Close and return the still-open aggregate (end of a measurement run).
  /// Its AggTrans is whatever has been observed; pending aggregates are
  /// finalised first — call take_closed() afterwards to drain everything.
  [[nodiscard]] std::optional<AggregateData> flush_open() {
    return path_flush_open(state_, 0);
  }

  [[nodiscard]] std::uint64_t observed_packets() const noexcept {
    return observed_;
  }
  [[nodiscard]] std::uint64_t cuts_seen() const noexcept {
    return state_.stats[0].cuts;
  }
  [[nodiscard]] std::uint32_t cut_threshold() const noexcept {
    return state_.params.cut_threshold;
  }
  /// Peak size of the recent-window buffer (drives §7.1 memory numbers).
  [[nodiscard]] std::size_t window_buffer_peak() const noexcept {
    return state_.slots[0].warm.window_peak;
  }

 private:
  const net::DigestEngine* engine_;
  std::uint64_t observed_ = 0;
  /// One-path SoA block (see core/path_state.hpp).
  PathStateSoA state_;
};

}  // namespace vpm::core

#endif  // VPM_CORE_AGGREGATOR_HPP
