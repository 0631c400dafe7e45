// Packet digests and the decision values derived from them.
//
// Section 4: "The packet identifier PktID is a digest of the packet's
// headers"; Section 7: the implementation uses the "Bob" hash over each
// packet's IP and transport headers plus a small payload portion.
//
// VPM derives three per-packet decisions from digests:
//   * packet id   -- the PktID reported in receipts,
//   * marker rule -- Digest(p) > mu starts a sampling round (Algorithm 1),
//   * cut rule    -- Digest(p) > delta starts a new aggregate (Algorithm 2),
// plus SampleFcn(Digest(q), Digest(marker)) > sigma for sample selection.
//
// One hash per packet (§7.1).  The paper's feasibility argument budgets
// "three memory accesses, ONE hash function, and one timestamp computation
// per packet", so the data plane computes the Bob hash over the packet
// bytes exactly once and derives every role value from it:
//   * DigestMode::kSingle (paper-faithful): the single digest IS the
//     PktID, marker value and cut value, byte-identical to hashing per
//     role with the id seed.
//   * DigestMode::kIndependent (default): the PktID is the single digest;
//     marker and cut values are obtained by passing it through cheap
//     seeded avalanche finalizers (distinct 32-bit bijections), so marker
//     packets are not automatically cut points.  The role values are
//     deterministic functions of the PktID — every HOP still computes the
//     same value for the same packet, which is all the subset properties
//     (Sections 5.2, 6.2) need — at the cost of pairwise information-
//     theoretic independence, the same trade the paper's single-digest
//     design makes outright.
//
// decide() returns all three values from the one hash pass; the scalar
// accessors (packet_id / marker_value / cut_value) are views of the same
// definition for callers that need a single role.  The ablation bench
// compares the modes.
#ifndef VPM_NET_DIGEST_HPP
#define VPM_NET_DIGEST_HPP

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace vpm::net {

/// Which packet fields the digest covers.  Receipts carry the spec id so a
/// verifier knows two HOPs hashed the same bytes (PathID.HeaderSpec, §4).
struct HeaderSpec {
  bool addresses = true;
  bool ports = true;
  bool protocol = true;
  bool ip_id = true;
  bool payload_prefix = true;
  bool length = false;  ///< excluded by default: some links alter framing

  /// Compact identifier for the wire format.
  [[nodiscard]] std::uint8_t id() const noexcept {
    return static_cast<std::uint8_t>(
        (addresses ? 1u : 0u) | (ports ? 2u : 0u) | (protocol ? 4u : 0u) |
        (ip_id ? 8u : 0u) | (payload_prefix ? 16u : 0u) | (length ? 32u : 0u));
  }
  [[nodiscard]] static HeaderSpec from_id(std::uint8_t id) noexcept {
    return HeaderSpec{.addresses = (id & 1u) != 0,
                      .ports = (id & 2u) != 0,
                      .protocol = (id & 4u) != 0,
                      .ip_id = (id & 8u) != 0,
                      .payload_prefix = (id & 16u) != 0,
                      .length = (id & 32u) != 0};
  }
  friend bool operator==(const HeaderSpec&, const HeaderSpec&) = default;
};

enum class DigestMode : std::uint8_t {
  kSingle,       ///< paper-faithful: one digest value for id/marker/cut
  kIndependent,  ///< independently seeded hashes per role (default)
};

/// A 32-bit packet digest (the paper's 4-byte PktID).
using PacketDigest = std::uint32_t;

/// Every digest-derived decision value for one packet, computed with a
/// single hash pass over the packet bytes (the §7.1 "one hash function per
/// packet" budget).  This is what the data-plane fast path threads through
/// MonitoringCache::observe into both per-packet kernels
/// (core::path_observe).
struct PacketDecisions {
  PacketDigest id = 0;            ///< the PktID reported in receipts
  std::uint32_t marker_value = 0; ///< compared against mu (Alg. 1, line 1)
  std::uint32_t cut_value = 0;    ///< compared against delta (Alg. 2, line 1)

  friend bool operator==(const PacketDecisions&,
                         const PacketDecisions&) = default;
};

/// Computes all digest-derived values for packets.  Every HOP in a
/// deployment must construct this with identical parameters — it is part of
/// the protocol definition, not a local tuning knob.
class DigestEngine {
 public:
  explicit DigestEngine(HeaderSpec spec = HeaderSpec{},
                        DigestMode mode = DigestMode::kIndependent) noexcept
      : spec_(spec), mode_(mode), default_spec_(spec == HeaderSpec{}) {}

  [[nodiscard]] const HeaderSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] DigestMode mode() const noexcept { return mode_; }

  /// All role values from one hash pass — the data-plane entry point.
  /// In kSingle mode id == marker_value == cut_value; in kIndependent mode
  /// marker/cut are seeded avalanche mixes of the id (see header comment).
  [[nodiscard]] PacketDecisions decide(const Packet& p) const noexcept;

  /// Batch decide: out[i] = decide(pkts[idx[i]]) for i in [0, n), or
  /// decide(pkts[i]) when idx == nullptr.  For the default spec this runs
  /// the 8-wide lookup3 kernel selected by simd::active_tier() (AVX2 hosts
  /// hash eight packets in parallel); any other spec falls back to the
  /// scalar engine.  Byte-identical to calling decide() per packet — the
  /// dispatch equivalence suite pins this.  The idx form lets the
  /// monitoring cache hash only known-path packets, preserving the "one
  /// hash per *observed* packet" accounting.
  void decide_batch(const Packet* pkts, const std::uint32_t* idx,
                    std::size_t n, PacketDecisions* out) const noexcept;

  /// The PktID reported in receipts.
  [[nodiscard]] PacketDigest packet_id(const Packet& p) const noexcept;
  /// Value compared against the marker threshold mu (Algorithm 1, line 1).
  /// Equals decide(p).marker_value; costs a full hash pass — prefer
  /// decide() when more than one role value is needed.
  [[nodiscard]] std::uint32_t marker_value(const Packet& p) const noexcept;
  /// Value compared against the partition threshold delta (Alg. 2, line 1).
  /// Equals decide(p).cut_value.
  [[nodiscard]] std::uint32_t cut_value(const Packet& p) const noexcept;

  /// SampleFcn(Digest(q), Digest(marker)) from Algorithm 1, line 3.  Static:
  /// it must be the same function at every HOP for the subset property.
  [[nodiscard]] static std::uint32_t sample_value(
      PacketDigest q_id, PacketDigest marker_id) noexcept;

 private:
  [[nodiscard]] std::uint32_t hash_fields(const Packet& p,
                                          std::uint32_t seed) const noexcept;

  HeaderSpec spec_;
  DigestMode mode_;
  /// Cached `spec_ == HeaderSpec{}` so the per-packet hash dispatch is one
  /// predictable branch, not a six-member struct compare.
  bool default_spec_;
};

/// Convert a target rate in [0,1] to a `value > threshold` cutoff over the
/// uniform 32-bit digest range: P(value > threshold) == rate (up to 2^-32).
[[nodiscard]] std::uint32_t rate_to_threshold(double rate);
/// Inverse of rate_to_threshold.
[[nodiscard]] double threshold_to_rate(std::uint32_t threshold) noexcept;

}  // namespace vpm::net

#endif  // VPM_NET_DIGEST_HPP
