#include "dissem/envelope.hpp"

#include <algorithm>

#include "net/bob_hash.hpp"

namespace vpm::dissem {
namespace {

constexpr std::uint8_t kEnvelopeTag = 0x21;
// Refuse payloads above 16 MiB before allocating: a receipt batch for one
// reporting period is kilobytes.
constexpr std::size_t kMaxPayload = 16u << 20;

/// The keyed authenticator: lookup3's hashlittle() over the 12 bytes of
/// (u32 producer, u64 sequence), little-endian, followed by the payload,
/// once per half of the key, the halves' hashes concatenated.  Binding
/// the header into the MAC keeps it from being swapped.  The header is
/// exactly one lookup3 block, so the payload's blocks start on a block
/// boundary and are hashed in place, for both seeds in one pass.
std::uint64_t mac_of(DomainKey key, DomainId producer, std::uint64_t sequence,
                     std::span<const std::byte> payload) {
  using net::lookup3::final_mix;
  using net::lookup3::load_le;
  using net::lookup3::mix;
  constexpr std::size_t kHeaderBytes = 4 + 8;
  const std::size_t length = kHeaderBytes + payload.size();
  std::uint32_t a1 =
      net::lookup3::init(length, static_cast<std::uint32_t>(key));
  std::uint32_t b1 = a1;
  std::uint32_t c1 = a1;
  std::uint32_t a2 = net::lookup3::init(
      length, static_cast<std::uint32_t>(key >> 32) ^ 0x9e3779b9u);
  std::uint32_t b2 = a2;
  std::uint32_t c2 = a2;
  const auto add = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    a1 += x;
    b1 += y;
    c1 += z;
    a2 += x;
    b2 += y;
    c2 += z;
  };
  add(producer, static_cast<std::uint32_t>(sequence),
      static_cast<std::uint32_t>(sequence >> 32));
  // hashlittle() mixes every 12-byte block but the last, which it
  // finalises; the last block of an empty payload is the header itself.
  const std::byte* k = payload.data();
  std::size_t len = payload.size();
  if (len > 0) {
    mix(a1, b1, c1);
    mix(a2, b2, c2);
    while (len > 12) {
      add(load_le(k, 4), load_le(k + 4, 4), load_le(k + 8, 4));
      mix(a1, b1, c1);
      mix(a2, b2, c2);
      k += 12;
      len -= 12;
    }
    std::uint32_t tail[3] = {0, 0, 0};
    for (std::size_t w = 0; w < 3 && 4 * w < len; ++w) {
      tail[w] = load_le(k + 4 * w, std::min<std::size_t>(4, len - 4 * w));
    }
    add(tail[0], tail[1], tail[2]);
  }
  final_mix(a1, b1, c1);
  final_mix(a2, b2, c2);
  return (static_cast<std::uint64_t>(c1) << 32) | c2;
}

}  // namespace

Envelope seal(DomainId producer, std::uint64_t sequence,
              std::vector<std::byte> payload, DomainKey key) {
  Envelope e;
  e.producer = producer;
  e.sequence = sequence;
  e.payload = std::move(payload);
  e.mac = mac_of(key, producer, sequence, e.payload);
  return e;
}

bool verify(const Envelope& e, DomainKey key) {
  return mac_of(key, e.producer, e.sequence, e.payload) == e.mac;
}

void encode(const Envelope& e, net::ByteWriter& out) {
  out.u8(kEnvelopeTag);
  out.u32(e.producer);
  out.u64(e.sequence);
  out.u32(static_cast<std::uint32_t>(e.payload.size()));
  out.bytes(e.payload);
  out.u64(e.mac);
}

Envelope decode_envelope(net::ByteReader& in) {
  if (in.u8() != kEnvelopeTag) {
    throw net::WireError("expected envelope tag");
  }
  Envelope e;
  e.producer = in.u32();
  e.sequence = in.u64();
  const std::uint32_t len = in.u32();
  if (len > kMaxPayload) {
    throw net::WireError("envelope payload length implausible");
  }
  in.expect_at_least(len + 8);
  const std::span<const std::byte> payload = in.bytes(len);
  e.payload.assign(payload.begin(), payload.end());
  e.mac = in.u64();
  return e;
}

}  // namespace vpm::dissem
