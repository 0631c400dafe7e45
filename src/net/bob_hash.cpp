#include "net/bob_hash.hpp"

namespace vpm::net {
namespace {

using lookup3::final_mix;
using lookup3::load_le;
using lookup3::mix;

}  // namespace

std::uint32_t bob_hash(std::span<const std::byte> key,
                       std::uint32_t initval) noexcept {
  // hashlittle() from lookup3.c, byte-at-a-time variant: identical output
  // on all architectures (the original switches on alignment only as an
  // optimisation; results agree).
  const std::size_t length = key.size();
  std::uint32_t a = lookup3::init(length, initval);
  std::uint32_t b = a;
  std::uint32_t c = a;

  const std::byte* k = key.data();
  std::size_t len = length;
  while (len > 12) {
    a += load_le(k, 4);
    b += load_le(k + 4, 4);
    c += load_le(k + 8, 4);
    mix(a, b, c);
    len -= 12;
    k += 12;
  }

  // Last block: affect all of (a,b,c).
  if (len == 0) return c;  // zero-length tail: skip final mix per lookup3
  if (len <= 4) {
    a += load_le(k, len);
  } else if (len <= 8) {
    a += load_le(k, 4);
    b += load_le(k + 4, len - 4);
  } else {
    a += load_le(k, 4);
    b += load_le(k + 4, 4);
    c += load_le(k + 8, len - 8);
  }
  final_mix(a, b, c);
  return c;
}

std::uint32_t bob_hash_words(std::span<const std::uint32_t> key,
                             std::uint32_t initval) noexcept {
  // hashword() from lookup3.c.
  std::size_t length = key.size();
  std::uint32_t a =
      0xdeadbeefu + (static_cast<std::uint32_t>(length) << 2) + initval;
  std::uint32_t b = a;
  std::uint32_t c = a;

  const std::uint32_t* k = key.data();
  while (length > 3) {
    a += k[0];
    b += k[1];
    c += k[2];
    mix(a, b, c);
    length -= 3;
    k += 3;
  }
  switch (length) {
    case 3:
      c += k[2];
      [[fallthrough]];
    case 2:
      b += k[1];
      [[fallthrough]];
    case 1:
      a += k[0];
      final_mix(a, b, c);
      break;
    case 0:
      break;
  }
  return c;
}

std::uint32_t bob_hash_pair(std::uint32_t a, std::uint32_t b,
                            std::uint32_t initval) noexcept {
  const std::uint32_t words[2] = {a, b};
  return bob_hash_words(words, initval);
}

}  // namespace vpm::net
