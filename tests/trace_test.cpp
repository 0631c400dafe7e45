// Tests for the synthetic-trace substrate (the CAIDA stand-in): rates,
// size mix, flow structure, Zipf popularity, digest entropy.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <unordered_set>

#include "net/digest.hpp"
#include "trace/flow_generator.hpp"
#include "trace/synthetic_trace.hpp"
#include "trace/trace_stats.hpp"

namespace vpm::trace {
namespace {

TEST(ZipfSampler, Validation) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -1.0), std::invalid_argument);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  ZipfSampler z(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(z.probability(i), 0.25, 1e-12);
  }
}

TEST(ZipfSampler, SkewFavoursLowIndices) {
  ZipfSampler z(100, 1.2);
  EXPECT_GT(z.probability(0), 10 * z.probability(50));
  std::mt19937_64 rng(1);
  std::size_t first_hits = 0;
  constexpr std::size_t kN = 100'000;
  for (std::size_t i = 0; i < kN; ++i) {
    if (z.sample(rng) == 0) ++first_hits;
  }
  EXPECT_NEAR(static_cast<double>(first_hits) / kN, z.probability(0), 0.01);
}

TEST(FlowGenerator, HostsStayInsidePrefixes) {
  const net::PrefixPair pair = default_prefix_pair();
  FlowGenerator gen(pair, 64, 1.0, 7);
  for (int i = 0; i < 1000; ++i) {
    const net::PacketHeader h = gen.next_header(400);
    EXPECT_TRUE(pair.source.contains(h.src));
    EXPECT_TRUE(pair.destination.contains(h.dst));
    EXPECT_EQ(h.total_length, 400);
  }
}

TEST(FlowGenerator, IpIdAdvancesPerFlow) {
  // With a single flow, consecutive packets must have consecutive IP-IDs.
  FlowGenerator gen(default_prefix_pair(), 1, 1.0, 7);
  const auto h1 = gen.next_header(100);
  const auto h2 = gen.next_header(100);
  EXPECT_EQ(static_cast<std::uint16_t>(h1.ip_id + 1), h2.ip_id);
}

TEST(FlowGenerator, RejectsZeroFlows) {
  EXPECT_THROW(FlowGenerator(default_prefix_pair(), 0, 1.0, 7),
               std::invalid_argument);
}

TEST(SyntheticTrace, RateAndDurationRoughlyHonoured) {
  TraceConfig cfg;
  cfg.prefixes = default_prefix_pair();
  cfg.packets_per_second = 50'000;
  cfg.duration = net::seconds(2);
  cfg.seed = 3;
  const auto trace = generate_trace(cfg);
  const net::DigestEngine engine;
  const TraceSummary s = summarize(trace, engine);
  EXPECT_NEAR(s.packets_per_second, 50'000, 5'000);
  EXPECT_NEAR(s.duration_s, 2.0, 0.1);
  // Tri-modal default mix has mean ~440 B, near the paper's 400 B figure.
  EXPECT_NEAR(s.mean_size_bytes, 440.0, 40.0);
}

TEST(SyntheticTrace, TimestampsMonotonicallyIncrease) {
  const auto trace = generate_trace([] {
    TraceConfig cfg;
    cfg.prefixes = default_prefix_pair();
    cfg.packets_per_second = 10'000;
    cfg.duration = net::seconds(1);
    return cfg;
  }());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].origin_time, trace[i - 1].origin_time);
    EXPECT_EQ(trace[i].sequence, trace[i - 1].sequence + 1);
  }
}

TEST(SyntheticTrace, DigestsAreNearlyCollisionFree) {
  TraceConfig cfg;
  cfg.prefixes = default_prefix_pair();
  cfg.packets_per_second = 50'000;
  cfg.duration = net::seconds(2);
  const auto trace = generate_trace(cfg);
  const net::DigestEngine engine;
  const TraceSummary s = summarize(trace, engine);
  // 100k packets over a 32-bit digest: expect ~1 collision per 2^32/1e10.
  EXPECT_GT(s.digest_distinct_fraction, 0.999);
}

TEST(SyntheticTrace, DigestsAreUniform) {
  // The property the paper relies on for the Bob hash [19]: digests of
  // real-looking traffic spread uniformly, so thresholds hit their rates.
  TraceConfig cfg;
  cfg.prefixes = default_prefix_pair();
  cfg.packets_per_second = 50'000;
  cfg.duration = net::seconds(2);
  const auto trace = generate_trace(cfg);
  const net::DigestEngine engine;
  const double chi2 = digest_chi_squared(trace, engine, 64);
  // chi2(63) has mean 63, stddev ~11.2; 150 is > 7 sigma.
  EXPECT_LT(chi2, 150.0);
}

TEST(SyntheticTrace, DeterministicPerSeed) {
  TraceConfig cfg;
  cfg.prefixes = default_prefix_pair();
  cfg.packets_per_second = 10'000;
  cfg.duration = net::seconds(1);
  cfg.seed = 9;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].header.src, b[i].header.src);
    EXPECT_EQ(a[i].payload_prefix, b[i].payload_prefix);
    EXPECT_EQ(a[i].origin_time, b[i].origin_time);
  }
  cfg.seed = 10;
  const auto c = generate_trace(cfg);
  EXPECT_NE(a.front().payload_prefix, c.front().payload_prefix);
}

TEST(SyntheticTrace, ValidatesConfig) {
  TraceConfig cfg;
  cfg.prefixes = default_prefix_pair();
  cfg.packets_per_second = 0;
  EXPECT_THROW(generate_trace(cfg), std::invalid_argument);
  cfg.packets_per_second = 1000;
  cfg.duration = net::Duration{0};
  EXPECT_THROW(generate_trace(cfg), std::invalid_argument);
  cfg.duration = net::seconds(1);
  cfg.sizes.clear();
  EXPECT_THROW(generate_trace(cfg), std::invalid_argument);
  cfg = TraceConfig{};
  cfg.prefixes = default_prefix_pair();
  cfg.burst_multiplier = 6.0;
  cfg.burst_fraction = 0.2;  // 6 * 0.2 >= 1: off-state rate would be negative
  EXPECT_THROW(generate_trace(cfg), std::invalid_argument);
}

TEST(SyntheticTrace, BurstinessRaisesShortScaleVariance) {
  TraceConfig smooth;
  smooth.prefixes = default_prefix_pair();
  smooth.packets_per_second = 20'000;
  smooth.duration = net::seconds(5);
  smooth.burst_multiplier = 1.0;
  smooth.burst_fraction = 0.5;
  TraceConfig bursty = smooth;
  bursty.burst_multiplier = 3.0;
  bursty.burst_fraction = 0.2;

  auto counts_per_10ms = [](const std::vector<net::Packet>& t) {
    std::vector<double> counts;
    std::size_t i = 0;
    for (double start = 0.0; start < 4.9; start += 0.01) {
      std::size_t c = 0;
      while (i < t.size() && t[i].origin_time.seconds() < start + 0.01) {
        ++c;
        ++i;
      }
      counts.push_back(static_cast<double>(c));
    }
    return counts;
  };
  auto variance = [](const std::vector<double>& xs) {
    double mean = 0;
    for (double x : xs) mean += x;
    mean /= static_cast<double>(xs.size());
    double v = 0;
    for (double x : xs) v += (x - mean) * (x - mean);
    return v / static_cast<double>(xs.size());
  };
  const double v_smooth = variance(counts_per_10ms(generate_trace(smooth)));
  const double v_bursty = variance(counts_per_10ms(generate_trace(bursty)));
  EXPECT_GT(v_bursty, 2.0 * v_smooth);
}

TEST(MultiPathTrace, CoversRequestedPaths) {
  MultiPathConfig cfg;
  cfg.path_count = 50;
  cfg.total_packets_per_second = 100'000;
  cfg.duration = net::seconds(1);
  cfg.zipf_s = 0.8;
  const MultiPathTrace t = generate_multi_path(cfg);
  EXPECT_EQ(t.paths.size(), 50u);
  EXPECT_EQ(t.packets.size(), t.path_of.size());
  EXPECT_NEAR(static_cast<double>(t.packets.size()), 100'000, 10'000);

  std::unordered_set<std::uint32_t> seen(t.path_of.begin(), t.path_of.end());
  EXPECT_GT(seen.size(), 40u);  // nearly all paths active

  // Every packet's header must match its claimed path's prefixes.
  for (std::size_t i = 0; i < t.packets.size(); i += 97) {
    const net::PrefixPair& pair = t.paths[t.path_of[i]];
    EXPECT_TRUE(pair.source.contains(t.packets[i].header.src));
    EXPECT_TRUE(pair.destination.contains(t.packets[i].header.dst));
  }
}

TEST(MultiPathTrace, PathPrefixesAreDistinct) {
  MultiPathConfig cfg;
  cfg.path_count = 300;
  cfg.total_packets_per_second = 1000;
  cfg.duration = net::milliseconds(100);
  const MultiPathTrace t = generate_multi_path(cfg);
  std::unordered_set<std::uint64_t> keys;
  for (const net::PrefixPair& p : t.paths) {
    keys.insert((static_cast<std::uint64_t>(p.source.network().value()) << 32) |
                p.destination.network().value());
  }
  EXPECT_EQ(keys.size(), t.paths.size());
}

TEST(MultiPathTrace, Validation) {
  MultiPathConfig cfg;
  cfg.path_count = 0;
  EXPECT_THROW(generate_multi_path(cfg), std::invalid_argument);
  cfg.path_count = 1;
  cfg.total_packets_per_second = -1;
  EXPECT_THROW(generate_multi_path(cfg), std::invalid_argument);
  // NaN passes a `<= 0` guard, and a NaN or infinite rate draws NaN or
  // zero inter-arrival gaps: the arrival loop would never end.
  cfg.total_packets_per_second = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(generate_multi_path(cfg), std::invalid_argument);
  cfg.total_packets_per_second = std::numeric_limits<double>::infinity();
  EXPECT_THROW(generate_multi_path(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace vpm::trace
