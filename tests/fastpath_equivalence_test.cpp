// Old-vs-new equivalence for the single-hash data-plane fast path.
//
// The refactor (one DigestEngine::decide() pass feeding sampler and
// aggregator, arena/ring storage, batch dispatch) must not change a single
// receipt: bias resistance (§5.1) and the subset properties (§5.2, §6.2)
// are properties of WHICH packets get sampled/cut, so the proof
// obligation is equal (`==`) SampleReceipt/AggregateReceipt streams.
// The reference implementations below replicate the pre-refactor observe
// LOOPS (per-role scalar digest calls, deque-backed reorder window,
// grow-as-needed buffers) verbatim; the suite runs a ~200k-packet
// synthetic trace through both and compares the receipts in both digest
// modes.
//
// Scope of the claim.  The references call the engine's scalar accessors,
// so what this file proves is that batching/arena/ring/decide() plumbing
// never changes a receipt, for whatever role derivation the engine
// defines.  In kSingle mode that derivation is unchanged from the seed
// (one digest for all roles — the pinned-digest test in
// digest_fastpath_test.cpp guards the hash itself), so kSingle receipts
// equal pre-refactor builds'.  kIndependent deliberately
// changed its marker/cut derivation (seeded mixers over the single hash
// instead of re-hashing per role), so its receipts differ from seed
// builds by design; here the mode checks pipeline equivalence, not
// derivation stability.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "core/hop_monitor.hpp"
#include "core/receipt.hpp"
#include "helpers.hpp"
#include "net/digest.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

using net::DigestEngine;
using net::Packet;
using net::Timestamp;

// ------------------------------------------------------------------------
// Pre-refactor reference implementations (seed-state observe loops).

/// Algorithm 1 exactly as the seed implemented it: one scalar digest call
/// per role per packet, grow-as-needed temp buffer.
class ReferenceSampler {
 public:
  ReferenceSampler(const DigestEngine& engine, std::uint32_t marker_threshold,
                   std::uint32_t sample_threshold)
      : engine_(engine),
        marker_threshold_(marker_threshold),
        sample_threshold_(sample_threshold) {}

  void observe(const Packet& p, Timestamp when) {
    const net::PacketDigest id = engine_.packet_id(p);
    if (engine_.marker_value(p) > marker_threshold_) {
      for (const Buffered& q : buffer_) {
        if (DigestEngine::sample_value(q.id, id) > sample_threshold_) {
          emitted_.push_back(SampleRecord{
              .pkt_id = q.id, .time = q.time, .is_marker = false});
        }
      }
      buffer_.clear();
      emitted_.push_back(
          SampleRecord{.pkt_id = id, .time = when, .is_marker = true});
      return;
    }
    buffer_.push_back(Buffered{id, when});
  }

  [[nodiscard]] std::vector<SampleRecord> take_samples() {
    std::vector<SampleRecord> out;
    out.swap(emitted_);
    return out;
  }

 private:
  struct Buffered {
    net::PacketDigest id;
    Timestamp time;
  };
  DigestEngine engine_;
  std::uint32_t marker_threshold_;
  std::uint32_t sample_threshold_;
  std::vector<Buffered> buffer_;
  std::vector<SampleRecord> emitted_;
};

/// Algorithm 2 + AggTrans exactly as the seed implemented it, including
/// the deque-backed recent window and per-cut allocations.
class ReferenceAggregator {
 public:
  ReferenceAggregator(const DigestEngine& engine, std::uint32_t cut_threshold,
                      net::Duration j_window)
      : engine_(engine), cut_threshold_(cut_threshold), j_window_(j_window) {}

  void observe(const Packet& p, Timestamp when) {
    const net::PacketDigest id = engine_.packet_id(p);
    const bool is_cut =
        open_.has_value() && engine_.cut_value(p) > cut_threshold_;

    finalize_due(when);

    if (is_cut) {
      if (j_window_ > net::Duration{0}) {
        Pending pend;
        pend.boundary = when;
        pend.data.agg = open_->agg;
        pend.data.packet_count = open_->count;
        pend.data.opened_at = open_->opened_at;
        pend.data.closed_at = open_->last_at;
        for (const Recent& r : recent_) {
          if (r.time + j_window_ >= when) {
            pend.data.trans.before.push_back(r.id);
          }
        }
        pending_.push_back(std::move(pend));
      } else {
        closed_.push_back(AggregateData{.agg = open_->agg,
                                        .packet_count = open_->count,
                                        .trans = {},
                                        .opened_at = open_->opened_at,
                                        .closed_at = open_->last_at});
      }
      open_.reset();
    }

    for (Pending& pend : pending_) {
      pend.data.trans.after.push_back(id);
    }

    if (!open_) {
      open_ = Open{.agg = AggId{.first = id, .last = id},
                   .count = 1,
                   .opened_at = when,
                   .last_at = when};
    } else {
      open_->agg.last = id;
      ++open_->count;
      open_->last_at = when;
    }

    if (j_window_ > net::Duration{0}) {
      recent_.push_back(Recent{id, when});
      while (!recent_.empty() && recent_.front().time + j_window_ < when) {
        recent_.pop_front();
      }
    }
  }

  [[nodiscard]] std::vector<AggregateData> take_closed() {
    std::vector<AggregateData> out;
    out.swap(closed_);
    return out;
  }

  [[nodiscard]] std::optional<AggregateData> flush_open() {
    for (Pending& pend : pending_) {
      closed_.push_back(std::move(pend.data));
    }
    pending_.clear();
    if (!open_) return std::nullopt;
    AggregateData d;
    d.agg = open_->agg;
    d.packet_count = open_->count;
    d.opened_at = open_->opened_at;
    d.closed_at = open_->last_at;
    open_.reset();
    return d;
  }

 private:
  struct Recent {
    net::PacketDigest id;
    Timestamp time;
  };
  struct Open {
    AggId agg;
    std::uint32_t count = 0;
    Timestamp opened_at;
    Timestamp last_at;
  };
  struct Pending {
    AggregateData data;
    Timestamp boundary;
  };

  void finalize_due(Timestamp now) {
    auto it = pending_.begin();
    while (it != pending_.end()) {
      if (it->boundary + j_window_ >= now) {
        ++it;
      } else {
        closed_.push_back(std::move(it->data));
        it = pending_.erase(it);
      }
    }
  }

  DigestEngine engine_;
  std::uint32_t cut_threshold_;
  net::Duration j_window_;
  std::optional<Open> open_;
  std::deque<Recent> recent_;
  std::vector<Pending> pending_;
  std::vector<AggregateData> closed_;
};

// ------------------------------------------------------------------------

std::vector<Packet> big_trace(std::uint64_t seed) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = 100'000;
  cfg.duration = net::seconds(2);  // ~200k packets
  cfg.seed = seed;
  return trace::generate_trace(cfg);
}

ProtocolParams protocol_for(net::DigestMode mode) {
  ProtocolParams p;
  p.marker_rate = 1e-3;
  p.digest_mode = mode;
  p.reorder_window_j = net::milliseconds(10);
  return p;
}

class FastPathEquivalence : public ::testing::TestWithParam<net::DigestMode> {
};

TEST_P(FastPathEquivalence, ReceiptStreamsAreByteIdentical) {
  const ProtocolParams params = protocol_for(GetParam());
  const DigestEngine engine = params.make_engine();
  const auto trace = big_trace(21);
  ASSERT_GT(trace.size(), 190'000u);

  const std::uint32_t mu = params.marker_threshold();
  const std::uint32_t sigma = sample_threshold_for(params, 0.01);
  const std::uint32_t delta = cut_threshold_for(1e-4);

  // New fast path: HopMonitor drives sampler+aggregator off one decide().
  HopMonitorConfig mc;
  mc.protocol = params;
  mc.tuning = HopTuning{.sample_rate = 0.01, .cut_rate = 1e-4};
  mc.path = net::PathId{
      .header_spec_id = params.header_spec.id(),
      .prefixes = trace::default_prefix_pair(),
      .previous_hop = 1,
      .next_hop = 3,
      .max_diff = net::milliseconds(5),
  };
  HopMonitor monitor(mc);

  // Pre-refactor reference, fed the same observations.
  ReferenceSampler ref_sampler(engine, mu, sigma);
  ReferenceAggregator ref_agg(engine, delta, params.reorder_window_j);

  for (const Packet& p : trace) {
    monitor.observe(p, p.origin_time);
    ref_sampler.observe(p, p.origin_time);
    ref_agg.observe(p, p.origin_time);
  }

  // --- samples: equal receipts.
  SampleReceipt fast_samples = monitor.collect_samples();
  SampleReceipt ref_samples;
  ref_samples.path = mc.path;
  ref_samples.sample_threshold = sigma;
  ref_samples.marker_threshold = mu;
  ref_samples.samples = ref_sampler.take_samples();
  ASSERT_FALSE(fast_samples.samples.empty());
  EXPECT_EQ(fast_samples, ref_samples);

  // --- aggregates: equal receipts, including the flushed
  // tail (take_closed drains finalized windows first, matching
  // HopMonitor::collect_aggregates' flush ordering).
  std::vector<AggregateReceipt> fast_aggs =
      monitor.collect_aggregates(/*flush_open=*/true);
  auto stamp = [&](const AggregateData& d) {
    return AggregateReceipt{.path = mc.path,
                            .agg = d.agg,
                            .packet_count = d.packet_count,
                            .trans = d.trans,
                            .opened_at = d.opened_at,
                            .closed_at = d.closed_at};
  };
  std::vector<AggregateReceipt> ref_aggs;
  for (const AggregateData& d : ref_agg.take_closed()) {
    ref_aggs.push_back(stamp(d));
  }
  auto last = ref_agg.flush_open();
  for (const AggregateData& d : ref_agg.take_closed()) {
    ref_aggs.push_back(stamp(d));
  }
  if (last.has_value()) ref_aggs.push_back(stamp(*last));
  ASSERT_GT(fast_aggs.size(), 10u);
  EXPECT_EQ(fast_aggs.size(), ref_aggs.size());
  EXPECT_EQ(fast_aggs, ref_aggs);
}

TEST_P(FastPathEquivalence, DecideAgreesWithScalarAccessors) {
  const ProtocolParams params = protocol_for(GetParam());
  const DigestEngine engine = params.make_engine();
  for (const Packet& p : big_trace(5)) {
    const net::PacketDecisions d = engine.decide(p);
    ASSERT_EQ(d.id, engine.packet_id(p));
    ASSERT_EQ(d.marker_value, engine.marker_value(p));
    ASSERT_EQ(d.cut_value, engine.cut_value(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FastPathEquivalence,
                         ::testing::Values(net::DigestMode::kSingle,
                                           net::DigestMode::kIndependent));

// ------------------------------------------------------------------------
// Batch dispatch must match packet-at-a-time dispatch exactly.

TEST(MonitoringCacheBatch, MatchesScalarObserve) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 64;
  mcfg.total_packets_per_second = 100'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 9;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = test::test_protocol();
  ccfg.tuning = HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};

  collector::MonitoringCache scalar(ccfg, multi.paths);
  collector::MonitoringCache batch(ccfg, multi.paths);

  for (const Packet& p : multi.packets) scalar.observe(p, p.origin_time);
  batch.observe_batch(multi.packets);

  EXPECT_EQ(scalar.unknown_path_packets(), batch.unknown_path_packets());
  EXPECT_EQ(scalar.ops().memory_accesses, batch.ops().memory_accesses);
  EXPECT_EQ(scalar.ops().hash_computations, batch.ops().hash_computations);
  EXPECT_EQ(scalar.ops().marker_sweep_accesses,
            batch.ops().marker_sweep_accesses);

  for (std::size_t path = 0; path < multi.paths.size(); ++path) {
    EXPECT_EQ(scalar.collect_samples(path), batch.collect_samples(path))
        << "path " << path;
    EXPECT_EQ(scalar.collect_aggregates(path, true),
              batch.collect_aggregates(path, true))
        << "path " << path;
  }
}

TEST(MonitoringCacheBatch, ExplicitTimestampsOverload) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = test::test_protocol();
  ccfg.tuning = HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  collector::MonitoringCache a(ccfg, paths);
  collector::MonitoringCache b(ccfg, paths);

  auto cfg = test::small_trace_config(31);
  cfg.duration = net::milliseconds(500);
  const auto trace = trace::generate_trace(cfg);
  std::vector<Timestamp> shifted;
  shifted.reserve(trace.size());
  for (const Packet& p : trace) {
    shifted.push_back(p.origin_time + net::milliseconds(2));
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    a.observe(trace[i], shifted[i]);
  }
  b.observe_batch(trace, shifted);
  EXPECT_EQ(a.collect_samples(0), b.collect_samples(0));

  EXPECT_THROW(b.observe_batch(trace, std::span<const Timestamp>{}),
               std::invalid_argument);
}

// One hash per packet, in BOTH digest modes — the §7.1 budget the tentpole
// restores (the pre-refactor data plane recomputed the hash up to 4x).
TEST(MonitoringCacheOps, OneHashPerPacketInBothModes) {
  for (const auto mode :
       {net::DigestMode::kSingle, net::DigestMode::kIndependent}) {
    const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
    collector::MonitoringCache::Config ccfg;
    ccfg.protocol = test::test_protocol();
    ccfg.protocol.digest_mode = mode;
    ccfg.tuning = HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
    collector::MonitoringCache cache(ccfg, paths);

    auto cfg = test::small_trace_config(17);
    cfg.duration = net::milliseconds(500);
    const auto trace = trace::generate_trace(cfg);
    cache.observe_batch(trace);

    EXPECT_EQ(cache.ops().hash_computations, trace.size());
    EXPECT_EQ(cache.ops().memory_accesses, trace.size() * 3);
    EXPECT_EQ(cache.ops().timestamp_reads, trace.size());
    // Markers swept the temp buffer: every non-marker packet is buffered
    // once and swept at most once.
    EXPECT_GT(cache.ops().marker_sweep_accesses, 0u);
    EXPECT_LE(cache.ops().marker_sweep_accesses, trace.size());
  }
}

}  // namespace
}  // namespace vpm::core
