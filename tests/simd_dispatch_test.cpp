// SIMD dispatch-shim equivalence: the scalar and AVX2 tiers must agree
// at every observable layer.
//
// The dispatch contract (net/simd_dispatch.hpp) is that one binary serves
// every host — cpuid picks the tier, VPM_SIMD or force_tier() overrides it
// — and that the tier NEVER changes a receipt.  This suite pins that
// contract bottom-up:
//
//   * decide_batch across both tiers, every chunk remainder 0-7, both the
//     identity and idx forms, both digest modes;
//   * the classifier's hash_slots_batch / classify_batch phase A kernel;
//   * whole MonitoringCache receipt streams on a ~200k-packet multi-path
//     trace (paths straddle the internal chunk boundaries), compared
//     receipt for receipt (`==`) in both digest modes.
//
// On hosts without AVX2 (or builds without the -mavx2 TU) force_tier
// clamps to scalar, so every comparison degenerates to scalar-vs-scalar:
// the suite still runs and passes, it just stops being a cross-tier
// check.  CI's x86-64-v3 leg is where both tiers are genuinely exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "helpers.hpp"
#include "net/digest.hpp"
#include "net/sample_batch.hpp"
#include "net/simd_dispatch.hpp"
#include "net/window_batch.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

using net::DigestEngine;
using net::DigestMode;
using net::Packet;
using net::PacketDecisions;
namespace simd = net::simd;

/// Restores cpuid/VPM_SIMD selection when a test scope ends, so a failing
/// assertion can't leak a forced tier into later tests.
struct TierGuard {
  TierGuard() = default;
  explicit TierGuard(simd::Tier t) { simd::force_tier(t); }
  ~TierGuard() { simd::clear_forced_tier(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
};

bool cross_tier_host() {
  return simd::detected_tier() == simd::Tier::kAvx2;
}

core::ProtocolParams protocol_for(DigestMode mode) {
  core::ProtocolParams p;
  p.marker_rate = 1e-3;
  p.digest_mode = mode;
  p.reorder_window_j = net::milliseconds(10);
  return p;
}

// ------------------------------------------------------------------------
// Selection mechanics.

TEST(SimdDispatch, TierSelectionContract) {
  // detected is one of the two tiers, and AVX2 detection implies the AVX2
  // translation unit made it into this binary.
  const simd::Tier det = simd::detected_tier();
  ASSERT_TRUE(det == simd::Tier::kScalar || det == simd::Tier::kAvx2);
  if (det == simd::Tier::kAvx2) {
    EXPECT_TRUE(simd::avx2_compiled());
  }

  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");

  // Forcing scalar always takes effect; forcing AVX2 clamps to detected
  // (never selects instructions the host can't run).
  {
    TierGuard g(simd::Tier::kScalar);
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
  {
    TierGuard g(simd::Tier::kAvx2);
    EXPECT_EQ(simd::active_tier(), det);
  }
  // Guard destructors dropped the override; active is back to the
  // VPM_SIMD/cpuid choice, which never exceeds detected.
  EXPECT_LE(static_cast<int>(simd::active_tier()), static_cast<int>(det));
}

// ------------------------------------------------------------------------
// decide_batch: every remainder, both forms, both modes.

class DecideBatchTiers : public ::testing::TestWithParam<DigestMode> {};

TEST_P(DecideBatchTiers, AllRemaindersBothForms) {
  const DigestEngine engine = protocol_for(GetParam()).make_engine();
  const auto trace = trace::generate_trace(test::small_trace_config(17));
  ASSERT_GE(trace.size(), 64u);

  // Sizes 0..23 cover every chunk remainder mod 8 at least twice, plus
  // the empty batch.
  for (std::size_t n = 0; n <= 23; ++n) {
    std::vector<PacketDecisions> scalar_out(n + 1);
    std::vector<PacketDecisions> simd_out(n + 1);
    // Poison the one-past slot to catch out-of-bounds writes.
    scalar_out[n] = simd_out[n] =
        PacketDecisions{.id = 0xDEADBEEFu, .marker_value = 1, .cut_value = 2};

    // Identity form (idx == nullptr).
    {
      TierGuard g(simd::Tier::kScalar);
      engine.decide_batch(trace.data(), nullptr, n, scalar_out.data());
    }
    {
      TierGuard g(simd::Tier::kAvx2);
      engine.decide_batch(trace.data(), nullptr, n, simd_out.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_out[i], simd_out[i]) << "identity n=" << n << " i=" << i;
      ASSERT_EQ(scalar_out[i], engine.decide(trace[i]))
          << "identity vs decide() n=" << n << " i=" << i;
    }
    ASSERT_EQ(scalar_out[n], simd_out[n]) << "overwrote out[n], n=" << n;
    ASSERT_EQ(scalar_out[n].id, 0xDEADBEEFu) << "overwrote out[n], n=" << n;

    // idx form: a strided, non-monotonic gather.
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::uint32_t>((i * 7 + 3) % trace.size());
    }
    {
      TierGuard g(simd::Tier::kScalar);
      engine.decide_batch(trace.data(), idx.data(), n, scalar_out.data());
    }
    {
      TierGuard g(simd::Tier::kAvx2);
      engine.decide_batch(trace.data(), idx.data(), n, simd_out.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scalar_out[i], simd_out[i]) << "idx n=" << n << " i=" << i;
      ASSERT_EQ(scalar_out[i], engine.decide(trace[idx[i]]))
          << "idx vs decide() n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DecideBatchTiers,
                         ::testing::Values(DigestMode::kSingle,
                                           DigestMode::kIndependent));

// ------------------------------------------------------------------------
// Classifier phase A (the multiply-hash kernel behind the shim).

TEST(SimdDispatch, ClassifierTiersMatch) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 100;
  mcfg.total_packets_per_second = 50'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 23;
  const auto multi = trace::generate_multi_path(mcfg);
  const collector::PathClassifier cls(multi.paths);

  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{8}, std::size_t{13}, std::size_t{64},
                        multi.packets.size()}) {
    ASSERT_LE(n, multi.packets.size());
    std::vector<std::uint64_t> keys_a(n), keys_b(n);
    std::vector<std::uint32_t> slots_a(n), slots_b(n);
    std::vector<std::uint32_t> out_a(n), out_b(n);
    {
      TierGuard g(simd::Tier::kScalar);
      cls.hash_slots_batch(multi.packets.data(), n, keys_a.data(),
                           slots_a.data());
      cls.classify_batch(multi.packets.data(), n, out_a.data());
    }
    {
      TierGuard g(simd::Tier::kAvx2);
      cls.hash_slots_batch(multi.packets.data(), n, keys_b.data(),
                           slots_b.data());
      cls.classify_batch(multi.packets.data(), n, out_b.data());
    }
    ASSERT_EQ(keys_a, keys_b) << "n=" << n;
    ASSERT_EQ(slots_a, slots_b) << "n=" << n;
    ASSERT_EQ(out_a, out_b) << "n=" << n;
    // And the batch result agrees with the scalar one-at-a-time probe.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t one = cls.classify(multi.packets[i].header);
      const std::uint32_t want = one == collector::PathClassifier::npos
                                     ? collector::PathClassifier::kNoPath
                                     : static_cast<std::uint32_t>(one);
      ASSERT_EQ(out_a[i], want) << "n=" << n << " i=" << i;
    }
  }
}

// ------------------------------------------------------------------------
// Protocol kernels (marker sweep-select, J-window scans): scalar vs AVX2
// over every remainder 0..23 plus multi-group sizes, with poison
// sentinels pinning the "never writes out[n] / past the last mask word"
// contract.  On scalar-only hosts the AVX2 entry points are null and the
// loops degenerate to scalar-vs-reference.

std::vector<core::TimedDigest> synthetic_records(std::size_t n,
                                                 std::uint64_t seed,
                                                 std::int64_t cutoff_ns) {
  std::vector<core::TimedDigest> recs(n);
  std::uint64_t x = seed * 2 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    recs[i].id = static_cast<net::PacketDigest>(x);
    // Times cluster around the cutoff (including exact hits, the >= edge)
    // with occasional far outliers.
    const std::int64_t delta = static_cast<std::int64_t>((x >> 32) % 9) - 4;
    recs[i].time = net::Timestamp{
        (x >> 40) % 7 == 0 ? cutoff_ns + delta * 1'000'000 : cutoff_ns + delta};
  }
  return recs;
}

const std::byte* bytes_of(const core::TimedDigest* p) {
  return reinterpret_cast<const std::byte*>(p);
}

TEST(SimdDispatch, SweepSelectKernelTiersMatch) {
  const net::detail::SweepSelectFn avx2 = net::detail::sweep_select_avx2();
  if (cross_tier_host()) {
    ASSERT_NE(avx2, nullptr);
  }
  constexpr std::size_t kStride = sizeof(core::TimedDigest);
  constexpr std::uint32_t kPoison = 0xDEADBEEFu;

  std::vector<std::size_t> sizes(24);
  std::iota(sizes.begin(), sizes.end(), 0);
  sizes.push_back(64);
  sizes.push_back(1000);

  for (const std::size_t n : sizes) {
    const auto recs = synthetic_records(n, n + 1, 0);
    for (const std::uint32_t marker : {0u, 0x1234ABCDu}) {
      for (const std::uint32_t thr : {0u, 1u << 30, 0xFFFFFFFFu}) {
        std::vector<std::uint32_t> ref;
        for (std::size_t i = 0; i < n; ++i) {
          if (DigestEngine::sample_value(recs[i].id, marker) > thr) {
            ref.push_back(static_cast<std::uint32_t>(i));
          }
        }

        std::vector<std::uint32_t> got(n + 1, kPoison);
        const std::size_t m = net::detail::sweep_select_scalar(
            bytes_of(recs.data()), kStride, n, marker, thr, got.data());
        ASSERT_EQ(m, ref.size()) << "scalar n=" << n << " thr=" << thr;
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), got.begin()))
            << "scalar n=" << n << " thr=" << thr;
        ASSERT_EQ(got[n], kPoison) << "scalar wrote out[n], n=" << n;

        if (avx2 == nullptr || !cross_tier_host()) continue;
        std::vector<std::uint32_t> vec(n + 1, kPoison);
        const std::size_t mv = avx2(bytes_of(recs.data()), kStride, n, marker,
                                    thr, vec.data());
        ASSERT_EQ(mv, ref.size()) << "avx2 n=" << n << " thr=" << thr;
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), vec.begin()))
            << "avx2 n=" << n << " thr=" << thr;
        ASSERT_EQ(vec[n], kPoison) << "avx2 wrote out[n], n=" << n;
      }
    }
  }
}

TEST(SimdDispatch, WindowCollectKernelTiersMatch) {
  const net::detail::WindowCollectFn avx2 = net::detail::window_collect_avx2();
  if (cross_tier_host()) {
    ASSERT_NE(avx2, nullptr);
  }
  constexpr std::size_t kStride = sizeof(core::TimedDigest);
  constexpr std::size_t kTimeOff = offsetof(core::TimedDigest, time);
  constexpr std::uint32_t kPoison = 0xDEADBEEFu;
  const std::int64_t cutoff = 987'654'321'000;

  std::vector<std::size_t> sizes(24);
  std::iota(sizes.begin(), sizes.end(), 0);
  sizes.push_back(64);
  sizes.push_back(1000);

  for (const std::size_t n : sizes) {
    const auto recs = synthetic_records(n, 31 * n + 7, cutoff);
    std::vector<std::uint32_t> ref;
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].time.nanoseconds() >= cutoff) ref.push_back(recs[i].id);
    }

    std::vector<std::uint32_t> got(n + 1, kPoison);
    const std::size_t m = net::detail::window_collect_scalar(
        bytes_of(recs.data()), kStride, kTimeOff, n, cutoff, got.data());
    ASSERT_EQ(m, ref.size()) << "scalar n=" << n;
    ASSERT_TRUE(std::equal(ref.begin(), ref.end(), got.begin()))
        << "scalar n=" << n;
    ASSERT_EQ(got[n], kPoison) << "scalar wrote out[n], n=" << n;

    if (avx2 == nullptr || !cross_tier_host()) continue;
    std::vector<std::uint32_t> vec(n + 1, kPoison);
    const std::size_t mv = avx2(bytes_of(recs.data()), kStride, kTimeOff, n,
                                cutoff, vec.data());
    ASSERT_EQ(mv, ref.size()) << "avx2 n=" << n;
    ASSERT_TRUE(std::equal(ref.begin(), ref.end(), vec.begin()))
        << "avx2 n=" << n;
    ASSERT_EQ(vec[n], kPoison) << "avx2 wrote out[n], n=" << n;
  }
}

TEST(SimdDispatch, TimeGeMaskKernelTiersMatch) {
  const net::detail::TimeGeMaskFn avx2 = net::detail::time_ge_mask_avx2();
  if (cross_tier_host()) {
    ASSERT_NE(avx2, nullptr);
  }
  constexpr std::size_t kStride = sizeof(core::TimedDigest);
  constexpr std::size_t kTimeOff = offsetof(core::TimedDigest, time);
  constexpr std::uint64_t kPoison = 0xFEEDFACECAFEBEEFull;
  const std::int64_t cutoff = -123'456'789;  // negative cutoffs are legal

  std::vector<std::size_t> sizes(24);
  std::iota(sizes.begin(), sizes.end(), 0);
  sizes.push_back(64);
  sizes.push_back(77);
  sizes.push_back(1000);

  for (const std::size_t n : sizes) {
    const auto recs = synthetic_records(n, 17 * n + 3, cutoff);
    const std::size_t words = (n + 63) / 64;

    std::vector<std::uint64_t> want(words, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (recs[i].time.nanoseconds() >= cutoff) {
        want[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }

    // One poison word past the contract's (n + 63) / 64 zero-filled words:
    // the kernels must leave it untouched.
    std::vector<std::uint64_t> got(words + 1, kPoison);
    net::detail::time_ge_mask_scalar(bytes_of(recs.data()), kStride, kTimeOff,
                                     n, cutoff, got.data());
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(got[w], want[w]) << "scalar n=" << n << " word=" << w;
    }
    ASSERT_EQ(got[words], kPoison) << "scalar wrote past mask, n=" << n;

    if (avx2 == nullptr || !cross_tier_host()) continue;
    std::vector<std::uint64_t> vec(words + 1, kPoison);
    avx2(bytes_of(recs.data()), kStride, kTimeOff, n, cutoff, vec.data());
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(vec[w], want[w]) << "avx2 n=" << n << " word=" << w;
    }
    ASSERT_EQ(vec[words], kPoison) << "avx2 wrote past mask, n=" << n;
  }
}

// ------------------------------------------------------------------------
// Whole-cache receipt streams across tiers, ~200k packets, both modes.

class CacheTierEquivalence : public ::testing::TestWithParam<DigestMode> {};

TEST_P(CacheTierEquivalence, ReceiptsByteIdenticalAcrossTiers) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 64;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 41;
  const auto multi = trace::generate_multi_path(mcfg);
  ASSERT_GT(multi.packets.size(), 190'000u);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol_for(GetParam());
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};

  collector::MonitoringCache scalar_cache(ccfg, multi.paths);
  collector::MonitoringCache simd_cache(ccfg, multi.paths);

  // Feed in uneven batch slices so multi-path runs straddle both the
  // batch edges and the internal 8-packet chunk boundaries.
  const std::size_t cuts[] = {1, 7, 8, 9, 63, 1000, 4097};
  auto feed = [&](collector::MonitoringCache& cache) {
    std::size_t at = 0, pick = 0;
    while (at < multi.packets.size()) {
      const std::size_t want = cuts[pick++ % std::size(cuts)];
      const std::size_t n = std::min(want, multi.packets.size() - at);
      cache.observe_batch(
          std::span<const Packet>(multi.packets.data() + at, n));
      at += n;
    }
  };
  {
    TierGuard g(simd::Tier::kScalar);
    feed(scalar_cache);
  }
  {
    TierGuard g(simd::Tier::kAvx2);
    feed(simd_cache);
  }

  EXPECT_EQ(scalar_cache.unknown_path_packets(),
            simd_cache.unknown_path_packets());
  EXPECT_EQ(scalar_cache.ops().hash_computations,
            simd_cache.ops().hash_computations);

  bool any_samples = false;
  for (std::size_t path = 0; path < multi.paths.size(); ++path) {
    const core::SampleReceipt s = scalar_cache.collect_samples(path);
    any_samples = any_samples || !s.samples.empty();
    ASSERT_EQ(s, simd_cache.collect_samples(path))
        << "path " << path;
    ASSERT_EQ(scalar_cache.collect_aggregates(path, true),
              simd_cache.collect_aggregates(path, true))
        << "path " << path;
  }
  EXPECT_TRUE(any_samples);

  if (!cross_tier_host()) {
    GTEST_LOG_(INFO) << "host detected tier is scalar; comparison was "
                        "scalar-vs-scalar";
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CacheTierEquivalence,
                         ::testing::Values(DigestMode::kSingle,
                                           DigestMode::kIndependent));

// ------------------------------------------------------------------------
// Time-keyed marker bound x vectorized sweep: with marker_max_age set well
// below the trace span, most sweeps are forced (age-triggered) rather than
// digest-triggered, and the swept slices stop at the bound instead of the
// ~1/marker_rate expectation.  Receipts must stay equal across tiers on
// that path too, and the per-tier sweep-kernel counters must attribute
// the work to the tier that ran it.

class ForcedMarkerTierEquivalence
    : public ::testing::TestWithParam<DigestMode> {};

TEST_P(ForcedMarkerTierEquivalence, ReceiptsByteIdenticalAcrossTiers) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 64;
  mcfg.total_packets_per_second = 200'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 59;
  const auto multi = trace::generate_multi_path(mcfg);
  ASSERT_GT(multi.packets.size(), 190'000u);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = protocol_for(GetParam());
  // Per-path inter-arrival is ~320us (200kpps over 64 paths), so a 20ms
  // bound forces a sweep roughly every 62 buffered records — far more
  // often than the 1e-3 marker rate's ~1000-record expectation.
  ccfg.protocol.marker_max_age = net::milliseconds(20);
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};

  collector::MonitoringCache scalar_cache(ccfg, multi.paths);
  collector::MonitoringCache simd_cache(ccfg, multi.paths);

  const std::size_t cuts[] = {3, 8, 11, 64, 513, 4096};
  auto feed = [&](collector::MonitoringCache& cache) {
    std::size_t at = 0, pick = 0;
    while (at < multi.packets.size()) {
      const std::size_t want = cuts[pick++ % std::size(cuts)];
      const std::size_t n = std::min(want, multi.packets.size() - at);
      cache.observe_batch(
          std::span<const Packet>(multi.packets.data() + at, n));
      at += n;
    }
  };
  {
    TierGuard g(simd::Tier::kScalar);
    feed(scalar_cache);
  }
  {
    TierGuard g(simd::Tier::kAvx2);
    feed(simd_cache);
  }

  // The bound actually fired: markers outnumber the digest-triggered
  // expectation (~200 naturally at 1e-3 over 200k packets) by a wide
  // margin, and every sweep ran through the tier that was forced.
  std::uint64_t markers = 0;
  for (std::size_t path = 0; path < multi.paths.size(); ++path) {
    markers += scalar_cache.path_stats(path).markers;
  }
  EXPECT_GT(markers, 1000u);
  EXPECT_GT(scalar_cache.ops().sweep_kernel_scalar, 0u);
  EXPECT_EQ(scalar_cache.ops().sweep_kernel_avx2, 0u);
  if (cross_tier_host()) {
    EXPECT_GT(simd_cache.ops().sweep_kernel_avx2, 0u);
    EXPECT_EQ(simd_cache.ops().sweep_kernel_scalar, 0u);
  }

  bool any_samples = false;
  for (std::size_t path = 0; path < multi.paths.size(); ++path) {
    const core::SampleReceipt s = scalar_cache.collect_samples(path);
    any_samples = any_samples || !s.samples.empty();
    ASSERT_EQ(s, simd_cache.collect_samples(path))
        << "path " << path;
    ASSERT_EQ(scalar_cache.collect_aggregates(path, true),
              simd_cache.collect_aggregates(path, true))
        << "path " << path;
  }
  EXPECT_TRUE(any_samples);
}

INSTANTIATE_TEST_SUITE_P(Modes, ForcedMarkerTierEquivalence,
                         ::testing::Values(DigestMode::kSingle,
                                           DigestMode::kIndependent));

}  // namespace
}  // namespace vpm
