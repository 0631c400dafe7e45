// Unit tests for the net substrate: Bob hash, prefixes, digests, PathId,
// and the wire primitives.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "net/bob_hash.hpp"
#include "net/digest.hpp"
#include "net/packet.hpp"
#include "net/path_id.hpp"
#include "net/prefix.hpp"
#include "net/wire.hpp"

namespace vpm::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

// ---------------------------------------------------------------- BobHash

TEST(BobHash, DeterministicAcrossCalls) {
  const auto data = bytes_of("four score and seven years ago");
  EXPECT_EQ(bob_hash(data, 0), bob_hash(data, 0));
  EXPECT_EQ(bob_hash(data, 17), bob_hash(data, 17));
}

TEST(BobHash, SeedChangesOutput) {
  const auto data = bytes_of("four score and seven years ago");
  EXPECT_NE(bob_hash(data, 0), bob_hash(data, 1));
}

TEST(BobHash, EmptyInputHasStableValue) {
  const std::vector<std::byte> empty;
  EXPECT_EQ(bob_hash(empty, 0), bob_hash(empty, 0));
  EXPECT_NE(bob_hash(empty, 0), bob_hash(empty, 99));
}

TEST(BobHash, AllLengthsUpTo64AreDistinctish) {
  // Consecutive-length prefixes of the same buffer should not collide —
  // a weak but effective smoke test of the tail handling.
  std::vector<std::byte> buf(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 37 + 1);
  }
  std::set<std::uint32_t> seen;
  for (std::size_t len = 0; len <= 64; ++len) {
    seen.insert(bob_hash({buf.data(), len}, 0));
  }
  EXPECT_EQ(seen.size(), 65u);
}

TEST(BobHash, AvalancheSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  std::mt19937_64 rng(7);
  double total_flipped = 0.0;
  int trials = 0;
  for (int t = 0; t < 200; ++t) {
    std::array<std::byte, 12> data{};
    for (auto& b : data) b = static_cast<std::byte>(rng() & 0xFF);
    const std::uint32_t base = bob_hash(data, 0);
    const std::size_t byte_i = rng() % data.size();
    const unsigned bit = static_cast<unsigned>(rng() % 8);
    data[byte_i] ^= static_cast<std::byte>(1u << bit);
    const std::uint32_t flipped = bob_hash(data, 0);
    total_flipped += __builtin_popcount(base ^ flipped);
    ++trials;
  }
  const double mean_flipped = total_flipped / trials;
  EXPECT_GT(mean_flipped, 12.0);
  EXPECT_LT(mean_flipped, 20.0);
}

TEST(BobHash, WordVariantMatchesItself) {
  const std::array<std::uint32_t, 3> words = {1u, 2u, 3u};
  EXPECT_EQ(bob_hash_words(words, 5), bob_hash_words(words, 5));
  EXPECT_NE(bob_hash_words(words, 5), bob_hash_words(words, 6));
}

TEST(BobHash, PairHelperEquivalentToWords) {
  const std::array<std::uint32_t, 2> words = {0xAABBCCDDu, 0x11223344u};
  EXPECT_EQ(bob_hash_pair(words[0], words[1], 9),
            bob_hash_words(words, 9));
}

TEST(BobHash, UniformityOverRandomKeys) {
  // Chi-squared over 64 bins for 64k random 16-byte keys; expect a value
  // around 63, certainly below 120.
  std::mt19937_64 rng(11);
  constexpr std::size_t kBins = 64;
  std::array<std::size_t, kBins> counts{};
  constexpr std::size_t kN = 65536;
  for (std::size_t i = 0; i < kN; ++i) {
    std::array<std::byte, 16> key{};
    for (auto& b : key) b = static_cast<std::byte>(rng() & 0xFF);
    counts[bob_hash(key, 0) >> 26] += 1;  // top 6 bits
  }
  const double expected = static_cast<double>(kN) / kBins;
  double chi2 = 0.0;
  for (const std::size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 120.0);
}

// ----------------------------------------------------------------- Prefix

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("192.168.7.41");
  EXPECT_EQ(a.to_string(), "192.168.7.41");
  EXPECT_EQ(a, Ipv4Address(192, 168, 7, 41));
}

TEST(Ipv4Address, RejectsMalformedInput) {
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.256"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse(""), std::invalid_argument);
}

TEST(Prefix, ContainsAddressesInsideOnly) {
  const auto p = Prefix::parse("10.20.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Address(10, 20, 0, 0)));
  EXPECT_TRUE(p.contains(Ipv4Address(10, 20, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4Address(10, 21, 0, 0)));
  EXPECT_FALSE(p.contains(Ipv4Address(11, 20, 0, 0)));
}

TEST(Prefix, ContainsNestedPrefixes) {
  const auto outer = Prefix::parse("10.0.0.0/8");
  const auto inner = Prefix::parse("10.20.0.0/16");
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
}

TEST(Prefix, ZeroLengthMatchesEverything) {
  const auto all = Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(all.contains(Ipv4Address(0, 0, 0, 1)));
}

TEST(Prefix, RejectsHostBitsAndBadLength) {
  EXPECT_THROW(Prefix(Ipv4Address(10, 0, 0, 1), 16), std::invalid_argument);
  EXPECT_THROW(Prefix(Ipv4Address(10, 0, 0, 0), 33), std::invalid_argument);
  EXPECT_THROW(Prefix::parse("10.0.0.0"), std::invalid_argument);
  EXPECT_THROW(Prefix::parse("10.0.0.0/40"), std::invalid_argument);
}

TEST(PrefixPair, OrderingAndHashUsable) {
  const PrefixPair a{Prefix::parse("10.0.0.0/16"), Prefix::parse("20.0.0.0/16")};
  const PrefixPair b{Prefix::parse("10.0.0.0/16"), Prefix::parse("20.1.0.0/16")};
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<PrefixPair>{}(a), std::hash<PrefixPair>{}(b));
}

// ----------------------------------------------------------------- Digest

Packet test_packet(std::uint32_t salt = 0) {
  Packet p;
  p.header.src = Ipv4Address(10, 1, 2, 3);
  p.header.dst = Ipv4Address(172, 16, 9, 8);
  p.header.src_port = 4242;
  p.header.dst_port = 80;
  p.header.ip_id = static_cast<std::uint16_t>(100 + salt);
  p.header.total_length = 400;
  p.header.protocol = IpProto::kTcp;
  p.payload_prefix = 0xDEADBEEFCAFEF00Dull + salt;
  return p;
}

TEST(DigestEngine, DeterministicPerPacket) {
  const DigestEngine engine;
  const Packet p = test_packet();
  EXPECT_EQ(engine.packet_id(p), engine.packet_id(p));
  EXPECT_EQ(engine.marker_value(p), engine.marker_value(p));
  EXPECT_EQ(engine.cut_value(p), engine.cut_value(p));
}

TEST(DigestEngine, IndependentModeDecorrelatesRoles) {
  const DigestEngine engine{HeaderSpec{}, DigestMode::kIndependent};
  const Packet p = test_packet();
  EXPECT_NE(engine.packet_id(p), engine.marker_value(p));
  EXPECT_NE(engine.packet_id(p), engine.cut_value(p));
}

TEST(DigestEngine, SingleModeUsesOneValue) {
  const DigestEngine engine{HeaderSpec{}, DigestMode::kSingle};
  const Packet p = test_packet();
  EXPECT_EQ(engine.packet_id(p), engine.marker_value(p));
  EXPECT_EQ(engine.packet_id(p), engine.cut_value(p));
}

TEST(DigestEngine, HeaderSpecControlsInputs) {
  HeaderSpec no_ports;
  no_ports.ports = false;
  const DigestEngine with{HeaderSpec{}};
  const DigestEngine without{no_ports};
  Packet a = test_packet();
  Packet b = test_packet();
  b.header.src_port = 9999;
  EXPECT_NE(with.packet_id(a), with.packet_id(b));
  EXPECT_EQ(without.packet_id(a), without.packet_id(b));
}

TEST(DigestEngine, HeaderSpecIdRoundTrips) {
  HeaderSpec spec;
  spec.ports = false;
  spec.length = true;
  const HeaderSpec back = HeaderSpec::from_id(spec.id());
  EXPECT_EQ(back, spec);
}

TEST(DigestEngine, SampleValueSymmetricInputsDiffer) {
  EXPECT_NE(DigestEngine::sample_value(1, 2), DigestEngine::sample_value(2, 1));
  EXPECT_EQ(DigestEngine::sample_value(7, 9), DigestEngine::sample_value(7, 9));
}

TEST(RateThreshold, RoundTripsAcrossRange) {
  for (const double rate : {0.0, 1e-5, 1e-3, 0.01, 0.1, 0.5, 0.9, 1.0}) {
    const std::uint32_t t = rate_to_threshold(rate);
    EXPECT_NEAR(threshold_to_rate(t), rate, 1e-6) << "rate " << rate;
  }
}

TEST(RateThreshold, RejectsOutOfRange) {
  EXPECT_THROW((void)rate_to_threshold(-0.1), std::invalid_argument);
  EXPECT_THROW((void)rate_to_threshold(1.1), std::invalid_argument);
}

TEST(RateThreshold, EmpiricalRateMatchesOnUniformValues) {
  std::mt19937_64 rng(3);
  const std::uint32_t t = rate_to_threshold(0.05);
  std::size_t hits = 0;
  constexpr std::size_t kN = 200'000;
  for (std::size_t i = 0; i < kN; ++i) {
    if (static_cast<std::uint32_t>(rng()) > t) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.05, 0.005);
}

// ----------------------------------------------------------------- PathId

TEST(PathId, PathKeyIgnoresReporterFields) {
  PathId a;
  a.prefixes = PrefixPair{Prefix::parse("10.0.0.0/16"),
                          Prefix::parse("20.0.0.0/16")};
  PathId b = a;
  b.previous_hop = 4;
  b.next_hop = 6;
  b.max_diff = milliseconds(3);
  EXPECT_EQ(a.path_key(), b.path_key());
}

TEST(PathId, PathKeyDistinguishesPaths) {
  PathId a;
  a.prefixes = PrefixPair{Prefix::parse("10.0.0.0/16"),
                          Prefix::parse("20.0.0.0/16")};
  PathId b = a;
  b.prefixes.destination = Prefix::parse("20.1.0.0/16");
  EXPECT_NE(a.path_key(), b.path_key());
}

// ------------------------------------------------------------------- Wire

TEST(Wire, RoundTripsAllWidths) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u24(0x123456);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u24(), 0x123456u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Wire, U24MasksHighBits) {
  ByteWriter w;
  w.u24(0xFF123456);
  ByteReader r(w.view());
  EXPECT_EQ(r.u24(), 0x123456u);
}

// Round trips cannot catch a writer and reader that change together, so
// the exact little-endian bytes of every width are pinned here.
TEST(Wire, WriterBytesArePinned) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u24(0xFF123456);  // the high byte is masked off
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  const std::array<std::byte, 2> raw{std::byte{0x5A}, std::byte{0xA5}};
  w.bytes(raw);
  const std::vector<std::uint8_t> expected = {
      0xAB,                                            // u8
      0xEF, 0xBE,                                      // u16
      0x56, 0x34, 0x12,                                // u24
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -42
      0x5A, 0xA5};                                     // bytes
  std::vector<std::uint8_t> got;
  for (const std::byte b : w.view()) {
    got.push_back(std::to_integer<std::uint8_t>(b));
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(w.size(), expected.size());

  // LEB128 varints at every width edge, and zigzag's sign edges.
  const std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      varints = {
          {0, {0x00}},
          {127, {0x7F}},
          {128, {0x80, 0x01}},
          {16383, {0xFF, 0x7F}},
          {16384, {0x80, 0x80, 0x01}},
          {0xFFFFFFFFull, {0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
          {~0ull,
           {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
      };
  for (const auto& [value, bytes] : varints) {
    ByteWriter v;
    v.varint(value);
    std::vector<std::uint8_t> out;
    for (const std::byte b : v.view()) {
      out.push_back(std::to_integer<std::uint8_t>(b));
    }
    EXPECT_EQ(out, bytes) << value;
    EXPECT_EQ(varint_size(value), bytes.size()) << value;
    ByteReader r(v.view());
    EXPECT_EQ(r.varint(), value);
    EXPECT_TRUE(r.done());
  }
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::pair<std::int64_t, std::uint64_t>> zigzags = {
      {0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {kMax, ~1ull}, {kMin, ~0ull}};
  for (const auto& [value, mapped] : zigzags) {
    EXPECT_EQ(zigzag(value), mapped) << value;
    EXPECT_EQ(unzigzag(mapped), value) << value;
  }
}

TEST(Wire, HostileVarintsThrow) {
  const auto read = [](std::vector<std::uint8_t> raw) {
    std::vector<std::byte> bytes;
    for (const std::uint8_t b : raw) bytes.push_back(std::byte{b});
    ByteReader r(bytes);
    (void)r.varint();
  };
  // Eleven bytes: ten continuation bytes before the last.
  try {
    read({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00});
    ADD_FAILURE() << "an 11-byte varint decoded";
  } catch (const WireError& e) {
    EXPECT_FALSE(e.transient());
  }
  // Ten bytes whose last carries bits past the 64th.
  try {
    read({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02});
    ADD_FAILURE() << "a 65-bit varint decoded";
  } catch (const WireError& e) {
    EXPECT_FALSE(e.transient());
  }
  // Input that ends inside the varint is a truncation, not corruption.
  for (const std::vector<std::uint8_t>& cut :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{0x80},
        std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF}}) {
    try {
      read(cut);
      ADD_FAILURE() << "an unterminated varint decoded";
    } catch (const WireError& e) {
      EXPECT_TRUE(e.transient());
    }
  }
}

TEST(Wire, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.view());
  EXPECT_THROW((void)r.u32(), WireError);
}

TEST(Wire, ExpectAtLeastGuards) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.view());
  EXPECT_NO_THROW(r.expect_at_least(4));
  EXPECT_THROW(r.expect_at_least(5), WireError);
}

}  // namespace
}  // namespace vpm::net
