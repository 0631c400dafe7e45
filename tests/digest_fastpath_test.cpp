// Edge coverage for the digest-derived decision machinery: the
// rate<->threshold conversions at their extremes, the kSingle-mode
// invariant, and pinned digest values guarding the protocol definition
// (every HOP must compute bit-identical digests — a silent change to
// hash_fields/bob_hash would break cross-HOP receipt comparison).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "net/digest.hpp"
#include "net/packet.hpp"

namespace vpm::net {
namespace {

Packet test_packet() {
  Packet p;
  p.header.src = Ipv4Address(10, 1, 2, 3);
  p.header.dst = Ipv4Address(100, 4, 5, 6);
  p.header.src_port = 4242;
  p.header.dst_port = 80;
  p.header.ip_id = 777;
  p.header.total_length = 400;
  p.header.protocol = IpProto::kTcp;
  p.payload_prefix = 0x0123456789abcdefull;
  return p;
}

TEST(RateThreshold, EdgeRates) {
  // rate 0: nothing may exceed the threshold.
  EXPECT_EQ(rate_to_threshold(0.0), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(threshold_to_rate(rate_to_threshold(0.0)), 0.0);

  // rate 1: everything except value 0 exceeds the threshold — the closest
  // representable cutoff under the strict `value > threshold` rule.
  EXPECT_EQ(rate_to_threshold(1.0), 0u);

  // The smallest nonzero representable rate: exactly one digest value
  // (UINT32_MAX) passes.
  const double tiny = 1.0 / 4294967296.0;  // 2^-32
  EXPECT_EQ(rate_to_threshold(tiny), 0xFFFFFFFEu);
  EXPECT_DOUBLE_EQ(threshold_to_rate(0xFFFFFFFEu), tiny);

  // Out-of-range rates are rejected, and so is NaN.
  EXPECT_THROW((void)rate_to_threshold(-0.01), std::invalid_argument);
  EXPECT_THROW((void)rate_to_threshold(1.01), std::invalid_argument);
  EXPECT_THROW(
      (void)rate_to_threshold(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(RateThreshold, EdgeThresholdsRoundTrip) {
  // threshold 0: all values but 0 pass.
  EXPECT_DOUBLE_EQ(threshold_to_rate(0), (4294967296.0 - 1.0) / 4294967296.0);
  // threshold UINT32_MAX: nothing passes.
  EXPECT_DOUBLE_EQ(threshold_to_rate(0xFFFFFFFFu), 0.0);

  // Round-trip through representable rates is exact at the edges and
  // within one digest quantum everywhere else.
  for (const std::uint32_t t :
       {0u, 1u, 1u << 16, 1u << 31, 0xFFFFFFFEu, 0xFFFFFFFFu}) {
    const double rate = threshold_to_rate(t);
    const std::uint32_t back = rate_to_threshold(rate);
    EXPECT_NEAR(static_cast<double>(back), static_cast<double>(t), 1.0) << t;
  }
}

TEST(DigestEngine, SingleModeInvariant) {
  const DigestEngine engine{HeaderSpec{}, DigestMode::kSingle};
  const Packet p = test_packet();
  const PacketDecisions d = engine.decide(p);
  // kSingle: one digest value serves every role (paper-faithful).
  EXPECT_EQ(d.id, d.marker_value);
  EXPECT_EQ(d.id, d.cut_value);
  EXPECT_EQ(engine.packet_id(p), engine.marker_value(p));
  EXPECT_EQ(engine.packet_id(p), engine.cut_value(p));
  EXPECT_EQ(d.id, engine.packet_id(p));
}

TEST(DigestEngine, IndependentModeDecorrelatesDecisions) {
  const DigestEngine engine{HeaderSpec{}, DigestMode::kIndependent};
  const PacketDecisions d = engine.decide(test_packet());
  EXPECT_NE(d.id, d.marker_value);
  EXPECT_NE(d.id, d.cut_value);
  EXPECT_NE(d.marker_value, d.cut_value);
}

TEST(DigestEngine, PinnedProtocolDigests) {
  // Golden values, computed from the seed implementation.  The PktID is
  // part of the protocol: if these change, receipts from old and new HOPs
  // no longer match and every deployment must upgrade in lockstep.
  const DigestEngine engine{HeaderSpec{}, DigestMode::kSingle};
  const Packet p = test_packet();
  EXPECT_EQ(engine.packet_id(p), 0x96e88046u);

  Packet q = p;
  q.payload_prefix ^= 1;  // one payload bit flips the digest
  EXPECT_NE(engine.packet_id(q), engine.packet_id(p));
}

}  // namespace
}  // namespace vpm::net
