// Bob Jenkins' lookup3 hash ("Bob" hash), implemented from the public-domain
// specification (lookup3.c, May 2006).
//
// The paper computes packet digests with the "Bob" hash because Molina,
// Niccolini and Duffield showed it behaves close to uniform on real packet
// headers [19].  VPM's marker rule (digest > mu), cut rule (digest > delta)
// and SampleFcn all rely on this uniformity, so we reproduce the exact
// algorithm rather than substituting std::hash.
#ifndef VPM_NET_BOB_HASH_HPP
#define VPM_NET_BOB_HASH_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace vpm::net {

namespace lookup3 {

// The lookup3 mixing primitives, exposed inline for callers that stream
// already-assembled words straight into the (a,b,c) state instead of going
// through a byte buffer (the digest hot path does this to avoid the
// store-then-reload of a stack buffer).  Streaming words this way is
// output-identical to bob_hash() over the equivalent little-endian bytes.

constexpr std::uint32_t rot(std::uint32_t x, unsigned k) noexcept {
  return (x << k) | (x >> (32u - k));
}

/// lookup3 mix(): reversible mixing of three 32-bit states.
constexpr void mix(std::uint32_t& a, std::uint32_t& b,
                   std::uint32_t& c) noexcept {
  a -= c;
  a ^= rot(c, 4);
  c += b;
  b -= a;
  b ^= rot(a, 6);
  a += c;
  c -= b;
  c ^= rot(b, 8);
  b += a;
  a -= c;
  a ^= rot(c, 16);
  c += b;
  b -= a;
  b ^= rot(a, 19);
  a += c;
  c -= b;
  c ^= rot(b, 4);
  b += a;
}

/// lookup3 final(): irreversible finalisation of three 32-bit states.
constexpr void final_mix(std::uint32_t& a, std::uint32_t& b,
                         std::uint32_t& c) noexcept {
  c ^= b;
  c -= rot(b, 14);
  a ^= c;
  a -= rot(c, 11);
  b ^= a;
  b -= rot(a, 25);
  c ^= b;
  c -= rot(b, 16);
  a ^= c;
  a -= rot(c, 4);
  b ^= a;
  b -= rot(a, 14);
  c ^= b;
  c -= rot(b, 24);
}

/// The hashlittle() initial state for a message of `length` bytes.
constexpr std::uint32_t init(std::size_t length, std::uint32_t seed) noexcept {
  return 0xdeadbeefu + static_cast<std::uint32_t>(length) + seed;
}

/// Read up to 4 little-endian bytes from `p` (length `n` in [1,4]) as
/// hashlittle() adds them to its state.  The full-word case takes a single
/// unaligned load on little-endian targets — output-identical to the byte
/// loop, and the dominant case on the hot path (a default-spec digest
/// issues five of these per packet).
inline std::uint32_t load_le(const std::byte* p, std::size_t n) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    if (n == 4) {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
  }
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8u * i);
  }
  return v;
}

}  // namespace lookup3

/// Hash a byte string.  `initval` seeds the hash; different seeds give
/// independent hash functions over the same input.
[[nodiscard]] std::uint32_t bob_hash(std::span<const std::byte> key,
                                     std::uint32_t initval) noexcept;

/// Hash an array of 32-bit words (lookup3's hashword); used for digest
/// pairs such as SampleFcn(digest_q, digest_marker).
[[nodiscard]] std::uint32_t bob_hash_words(std::span<const std::uint32_t> key,
                                           std::uint32_t initval) noexcept;

/// Convenience: hash two words (the SampleFcn shape from Algorithm 1).
[[nodiscard]] std::uint32_t bob_hash_pair(std::uint32_t a, std::uint32_t b,
                                          std::uint32_t initval) noexcept;

}  // namespace vpm::net

#endif  // VPM_NET_BOB_HASH_HPP
