// Authenticated receipt dissemination — realising Assumption #2.
//
// "We assume that there exists a way for a domain in path P to disseminate
// receipts to all other domains in P, such that the authenticity and
// integrity of each received receipt is guaranteed.  One way ... an
// administrative web-site accessible over HTTPS" (§2.3).
//
// This module is that layer, laptop-scale: receipts travel inside
// envelopes carrying the producing domain's id, a monotonically increasing
// sequence number (replay protection), and a keyed authenticator over the
// header and payload.  The MAC is a seeded double Bob-hash — a stand-in
// with the right *interface* (shared-key authenticity + integrity),
// standing in for TLS exactly as DESIGN.md §2 documents; it is NOT
// cryptographically strong and must not be used outside this
// reproduction.  seal() and verify() hash the 12-byte header and then the
// payload in place, both seeds in one pass: no copy of the payload, and
// the same values as hashing the concatenated bytes.
#ifndef VPM_DISSEM_ENVELOPE_HPP
#define VPM_DISSEM_ENVELOPE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace vpm::dissem {

using DomainKey = std::uint64_t;
using DomainId = std::uint32_t;

struct Envelope {
  DomainId producer = 0;
  std::uint64_t sequence = 0;  ///< strictly increasing per producer
  std::vector<std::byte> payload;
  std::uint64_t mac = 0;

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

/// Build a sealed envelope (computes the 64-bit MAC over producer,
/// sequence and payload).
[[nodiscard]] Envelope seal(DomainId producer, std::uint64_t sequence,
                            std::vector<std::byte> payload, DomainKey key);

/// True iff the MAC matches the payload under `key`.
[[nodiscard]] bool verify(const Envelope& e, DomainKey key);

void encode(const Envelope& e, net::ByteWriter& out);
/// Throws net::WireError on malformed input (bad tag, truncation,
/// absurd payload length).
[[nodiscard]] Envelope decode_envelope(net::ByteReader& in);

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_ENVELOPE_HPP
