#include "net/digest.hpp"

#include <bit>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "net/bob_hash.hpp"
#include "net/digest_batch.hpp"
#include "net/simd_dispatch.hpp"

namespace vpm::net {

// Role seeds, role_mix and the default-spec word-streaming digest moved to
// net/digest_batch.hpp so the batch kernels (scalar and AVX2) share the one
// definition with this scalar engine.
using detail::kIdSeed;
using detail::kSampleSeed;

std::uint32_t DigestEngine::hash_fields(const Packet& p,
                                        std::uint32_t seed) const noexcept {
  // Serialize the selected fields into a fixed on-stack buffer.  Layout is
  // part of the protocol: every HOP must produce identical bytes.
  //
  // The default spec (everything but length) is the hot path: stream its
  // 23 bytes straight into the lookup3 state as assembled words, skipping
  // the stack buffer (and its store-to-load-forwarding stalls).  The word
  // values are exactly what bob_hash's little-endian loads would read from
  // the serialized layout — the pinned-digest test guards this.
  // Little-endian only: the buffer path memcpy's native bytes, so on a
  // big-endian target the assembled words would disagree with it.
  if (std::endian::native == std::endian::little && default_spec_) {
    return detail::digest23(p, seed);
  }

  std::byte buf[32];
  std::size_t n = 0;
  auto put32 = [&](std::uint32_t v) {
    std::memcpy(buf + n, &v, 4);
    n += 4;
  };
  auto put16 = [&](std::uint16_t v) {
    std::memcpy(buf + n, &v, 2);
    n += 2;
  };
  auto put64 = [&](std::uint64_t v) {
    std::memcpy(buf + n, &v, 8);
    n += 8;
  };

  const PacketHeader& h = p.header;
  if (spec_.addresses) {
    put32(h.src.value());
    put32(h.dst.value());
  }
  if (spec_.ports) {
    put16(h.src_port);
    put16(h.dst_port);
  }
  if (spec_.protocol) {
    buf[n++] = static_cast<std::byte>(h.protocol);
  }
  if (spec_.ip_id) {
    put16(h.ip_id);
  }
  if (spec_.payload_prefix) {
    put64(p.payload_prefix);
  }
  if (spec_.length) {
    put16(h.total_length);
  }
  return bob_hash({buf, n}, seed);
}

PacketDecisions DigestEngine::decide(const Packet& p) const noexcept {
  return detail::decisions_of(hash_fields(p, kIdSeed), mode_);
}

void DigestEngine::decide_batch(const Packet* pkts, const std::uint32_t* idx,
                                std::size_t n,
                                PacketDecisions* out) const noexcept {
  // The vector kernel only knows the default-spec 23-byte layout; custom
  // specs (and big-endian targets) take the scalar engine per packet.
  if (default_spec_ && std::endian::native == std::endian::little) {
    static const detail::DecideBatchFn avx2 = detail::decide_batch_avx2();
    if (avx2 != nullptr && n >= 8 &&
        simd::active_tier() == simd::Tier::kAvx2) {
      avx2(pkts, idx, n, mode_, out);
      return;
    }
    detail::decide_batch_scalar(pkts, idx, n, mode_, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = decide(pkts[idx != nullptr ? idx[i] : i]);
  }
}

PacketDigest DigestEngine::packet_id(const Packet& p) const noexcept {
  return hash_fields(p, kIdSeed);
}

std::uint32_t DigestEngine::marker_value(const Packet& p) const noexcept {
  const PacketDigest base = hash_fields(p, kIdSeed);
  if (mode_ == DigestMode::kSingle) return base;
  return detail::role_mix(base, detail::kMarkerSeed);
}

std::uint32_t DigestEngine::cut_value(const Packet& p) const noexcept {
  const PacketDigest base = hash_fields(p, kIdSeed);
  if (mode_ == DigestMode::kSingle) return base;
  return detail::role_mix(base, detail::kCutSeed);
}

std::uint32_t DigestEngine::sample_value(PacketDigest q_id,
                                         PacketDigest marker_id) noexcept {
  return bob_hash_pair(q_id, marker_id, kSampleSeed);
}

std::uint32_t rate_to_threshold(double rate) {
  // Spelled as the valid range so that NaN fails it too.
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("rate " + std::to_string(rate) +
                                " outside [0,1]");
  }
  // P(U > t) = (2^32 - 1 - t) / 2^32 for U uniform over [0, 2^32).
  const double kRange = 4294967296.0;  // 2^32
  const double cutoff = kRange * (1.0 - rate) - 1.0;
  if (cutoff <= 0.0) return 0;
  if (cutoff >= kRange - 1.0) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(cutoff);
}

double threshold_to_rate(std::uint32_t threshold) noexcept {
  const double kRange = 4294967296.0;
  return (kRange - 1.0 - static_cast<double>(threshold)) / kRange;
}

}  // namespace vpm::net
