// Bias-resistant, tunable delay sampling — Algorithm 1 (DelaySample).
//
// The HOP buffers <digest, time> for every observed packet.  When a
// *marker* packet arrives (marker digest > mu), the marker's digest keys
// which buffered packets become samples: q is sampled iff
// SampleFcn(Digest(q), Digest(marker)) > sigma.  The buffer is then
// emptied and the marker itself is sampled.
//
// Properties this implementation preserves (and tests verify):
//   * Bias resistance (§5.1): whether a packet is a sample is unknowable
//     until the *next marker* arrives — after the packet was forwarded.
//   * Subset/tunability (§5.2): sigma2 < sigma1 implies HOP2's samples are
//     a superset of HOP1's, for any traffic, because both evaluate the
//     same SampleFcn value against their thresholds.
//   * Loss behaviour (§5.3): a lost marker desynchronises sampling only
//     until the next marker arrives.
//
// This class is a single-path facade over the SoA kernels in
// core/path_state.hpp (the per-packet step lives there, shared with
// Aggregator / MonitoringCache).  It does NOT copy the
// digest engine: the caller's engine must outlive the sampler (it is the
// protocol-wide engine, shared by every monitor of a deployment).
#ifndef VPM_CORE_SAMPLER_HPP
#define VPM_CORE_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"

namespace vpm::core {

class DelaySampler {
 public:
  /// `engine` must be the protocol-wide digest engine (held by reference —
  /// it must outlive the sampler); `marker_threshold` is mu (system-wide);
  /// `sample_threshold` is sigma (local tuning).
  DelaySampler(const net::DigestEngine& engine, std::uint32_t marker_threshold,
               std::uint32_t sample_threshold)
      : engine_(&engine),
        state_(PathParams{.marker_threshold = marker_threshold,
                          .sample_threshold = sample_threshold},
               1) {}
  /// The engine is held by reference; a temporary would dangle.
  DelaySampler(net::DigestEngine&&, std::uint32_t, std::uint32_t) = delete;

  /// Feed one packet observation (Algorithm 1's per-packet step).
  /// Computes the packet's decision values itself — one hash pass.
  /// Returns the number of buffered records swept (0 unless p is a
  /// marker), which drives the §7.1 marker-sweep accounting.
  std::size_t observe(const net::Packet& p, net::Timestamp when) {
    return observe(engine_->decide(p), when);
  }

  /// Fast path: decisions were already computed upstream (one hash per
  /// packet, shared with the aggregator — see MonitoringCache::observe).
  std::size_t observe(const net::PacketDecisions& d, net::Timestamp when) {
    ++observed_;
    return path_observe_sampler(state_, 0, d, when);
  }

  /// Drain the samples emitted so far (observation order).  Packets still
  /// in the temp buffer stay buffered — their fate is not yet decided.
  [[nodiscard]] std::vector<SampleRecord> take_samples() {
    return path_take_samples(state_, 0);
  }

  /// Number of packets currently awaiting a marker.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return state_.slots[0].hot.buf_size;
  }
  /// High-water mark of the temp buffer (drives the §7.1 memory numbers).
  [[nodiscard]] std::size_t buffer_peak() const noexcept {
    return state_.path_buffer_peak(0);
  }
  [[nodiscard]] std::uint64_t observed_packets() const noexcept {
    return observed_;
  }
  [[nodiscard]] std::uint64_t markers_seen() const noexcept {
    return state_.stats[0].markers;
  }
  /// Cumulative buffered records evaluated at marker sweeps (the "+1
  /// memory access per packet at marker time" in the §7.1 cost model).
  [[nodiscard]] std::uint64_t swept_records() const noexcept {
    return state_.stats[0].swept;
  }
  [[nodiscard]] std::uint32_t sample_threshold() const noexcept {
    return state_.params.sample_threshold;
  }
  [[nodiscard]] std::uint32_t marker_threshold() const noexcept {
    return state_.params.marker_threshold;
  }

 private:
  const net::DigestEngine* engine_;
  std::uint64_t observed_ = 0;
  /// One-path SoA block (see core/path_state.hpp).
  PathStateSoA state_;
};

}  // namespace vpm::core

#endif  // VPM_CORE_SAMPLER_HPP
