// SoA-vs-pre-refactor equivalence: the tentpole proof obligation of the
// structure-of-arrays path-state refactor.
//
// Flattening 100k heap-allocated per-path monitors into contiguous
// PathSlot records is a pure layout transform — it must not change a
// single receipt.  The reference implementations below replicate the
// PRE-SoA per-path objects verbatim (one DelaySampler + one Aggregator
// per path, each with grow-as-needed vector buffer / power-of-two ring /
// stable_partition pending list, behind a vector of unique_ptrs — the
// pointer-chasing layout the refactor removed), and the suite pins the
// identity: receipt streams from the SoA MonitoringCache and the
// ShardedCollector equal the reference's, receipt for receipt, across
// 10 seeds x both digest modes x shard counts {1, 4} x randomized
// observe_batch() slice boundaries, including a mid-stream drain.
//
// Also covered: observe() vs observe_batch() parity above the staged
// prefetch threshold (the >4k-path loop), 0/1-path edge cases, the
// PathHot size/contiguity budget, and hashes/packet == 1 in both modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/sharded_collector.hpp"
#include "core/config.hpp"
#include "core/path_state.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::collector {
namespace {

using core::AggId;
using core::AggregateData;
using core::AggregateReceipt;
using core::IndexedPathDrain;
using core::PathDrain;
using core::SampleReceipt;
using core::SampleRecord;
using net::DigestEngine;
using net::Packet;
using net::Timestamp;

// ------------------------------------------------------------------------
// Pre-SoA reference: the per-path monitor exactly as PR 1 left it (heap
// objects, per-path engine copies, per-object buffers).

class RefSampler {
 public:
  RefSampler(const DigestEngine& engine, std::uint32_t marker_threshold,
             std::uint32_t sample_threshold)
      : engine_(engine),
        marker_threshold_(marker_threshold),
        sample_threshold_(sample_threshold) {}

  std::size_t observe(const net::PacketDecisions& d, Timestamp when) {
    if (d.marker_value > marker_threshold_) {
      const std::size_t swept = buffer_.size();
      for (const Buffered& q : buffer_) {
        if (DigestEngine::sample_value(q.id, d.id) > sample_threshold_) {
          emitted_.push_back(SampleRecord{
              .pkt_id = q.id, .time = q.time, .is_marker = false});
        }
      }
      buffer_.clear();
      emitted_.push_back(
          SampleRecord{.pkt_id = d.id, .time = when, .is_marker = true});
      return swept;
    }
    buffer_.push_back(Buffered{d.id, when});
    return 0;
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
  DigestEngine engine_;  // the per-path copy the refactor removed
  std::uint32_t marker_threshold_;
  std::uint32_t sample_threshold_;
  std::vector<Buffered> buffer_;
  std::vector<SampleRecord> emitted_;
};

class RefAggregator {
 public:
  RefAggregator(const DigestEngine& engine, std::uint32_t cut_threshold,
                net::Duration j_window)
      : engine_(engine), cut_threshold_(cut_threshold), j_window_(j_window) {
    if (j_window_ > net::Duration{0}) ring_.resize(64);
  }

  void observe(const net::PacketDecisions& d, Timestamp when) {
    const net::PacketDigest id = d.id;
    const bool is_cut = open_.has_value() && d.cut_value > cut_threshold_;

    if (!pending_.empty()) finalize_due(when);

    if (is_cut) {
      if (j_window_ > net::Duration{0}) {
        Pending pend;
        pend.boundary = when;
        pend.data.agg = open_->agg;
        pend.data.packet_count = open_->count;
        pend.data.opened_at = open_->opened_at;
        pend.data.closed_at = open_->last_at;
        const std::size_t mask = ring_.size() - 1;
        for (std::size_t i = 0; i < ring_size_; ++i) {
          const Recent& r = ring_[(ring_head_ + i) & mask];
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
      if (ring_size_ == ring_.size()) ring_grow();
      ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] =
          Recent{id, when};
      ++ring_size_;
      const std::size_t mask = ring_.size() - 1;
      while (ring_size_ != 0 &&
             ring_[ring_head_ & mask].time + j_window_ < when) {
        ring_head_ = (ring_head_ + 1) & mask;
        --ring_size_;
      }
    }
  }

  [[nodiscard]] std::vector<AggregateData> take_closed() {
    std::vector<AggregateData> out;
    out.swap(closed_);
    return out;
  }

  [[nodiscard]] std::optional<AggregateData> flush_open() {
    for (Pending& pend : pending_) closed_.push_back(std::move(pend.data));
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

  void ring_grow() {
    std::vector<Recent> bigger(ring_.size() * 2);
    const std::size_t mask = ring_.size() - 1;
    for (std::size_t i = 0; i < ring_size_; ++i) {
      bigger[i] = ring_[(ring_head_ + i) & mask];
    }
    ring_.swap(bigger);
    ring_head_ = 0;
  }

  void finalize_due(Timestamp now) {
    auto still_pending = [&](const Pending& p) {
      return p.boundary + j_window_ >= now;
    };
    auto it = std::stable_partition(pending_.begin(), pending_.end(),
                                    still_pending);
    for (auto done = it; done != pending_.end(); ++done) {
      closed_.push_back(std::move(done->data));
    }
    pending_.erase(it, pending_.end());
  }

  DigestEngine engine_;  // the per-path copy the refactor removed
  std::uint32_t cut_threshold_;
  net::Duration j_window_;
  std::optional<Open> open_;
  std::vector<Recent> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<Pending> pending_;
  std::vector<AggregateData> closed_;
};

/// One heap-allocated per-path monitor, as the pre-SoA cache stored them.
struct RefPathMonitor {
  RefPathMonitor(const net::PathId& id, const DigestEngine& engine,
                 const core::PathParams& params)
      : path(id),
        sampler(engine, params.marker_threshold, params.sample_threshold),
        aggregator(engine, params.cut_threshold, params.j_window),
        sample_threshold(params.sample_threshold),
        marker_threshold(params.marker_threshold) {}

  void observe(const net::PacketDecisions& d, Timestamp when) {
    (void)sampler.observe(d, when);
    aggregator.observe(d, when);
  }

  [[nodiscard]] PathDrain drain(bool flush_open) {
    PathDrain out;
    out.samples.path = path;
    out.samples.sample_threshold = sample_threshold;
    out.samples.marker_threshold = marker_threshold;
    out.samples.samples = sampler.take_samples();
    auto stamp = [this](const AggregateData& d) {
      return AggregateReceipt{.path = path,
                              .agg = d.agg,
                              .packet_count = d.packet_count,
                              .trans = d.trans,
                              .opened_at = d.opened_at,
                              .closed_at = d.closed_at};
    };
    if (flush_open) {
      auto last = aggregator.flush_open();
      for (const AggregateData& d : aggregator.take_closed()) {
        out.aggregates.push_back(stamp(d));
      }
      if (last.has_value()) out.aggregates.push_back(stamp(*last));
    } else {
      for (const AggregateData& d : aggregator.take_closed()) {
        out.aggregates.push_back(stamp(d));
      }
    }
    return out;
  }

  net::PathId path;
  RefSampler sampler;
  RefAggregator aggregator;
  std::uint32_t sample_threshold;
  std::uint32_t marker_threshold;
};

/// The pre-SoA monitoring cache: classifier + unique_ptr-per-path.
class RefCache {
 public:
  RefCache(const MonitoringCache::Config& cfg,
           std::span<const net::PrefixPair> paths)
      : classifier_(paths), engine_(cfg.protocol.make_engine()) {
    const core::PathParams params{
        .marker_threshold = cfg.protocol.marker_threshold(),
        .sample_threshold =
            core::sample_threshold_for(cfg.protocol, cfg.tuning.sample_rate),
        .cut_threshold = core::cut_threshold_for(cfg.tuning.cut_rate),
        .j_window = cfg.protocol.reorder_window_j,
    };
    monitors_.reserve(paths.size());
    for (const net::PrefixPair& pair : paths) {
      const net::PathId id{
          .header_spec_id = cfg.protocol.header_spec.id(),
          .prefixes = pair,
          .previous_hop = cfg.previous_hop,
          .next_hop = cfg.next_hop,
          .max_diff = cfg.max_diff,
      };
      monitors_.push_back(
          std::make_unique<RefPathMonitor>(id, engine_, params));
    }
  }

  void observe(const Packet& p, Timestamp when) {
    const std::size_t path = classifier_.classify(p.header);
    if (path == PathClassifier::npos) return;
    monitors_[path]->observe(engine_.decide(p), when);
  }

  [[nodiscard]] std::vector<IndexedPathDrain> drain_all(bool flush_open) {
    std::vector<IndexedPathDrain> out;
    out.reserve(monitors_.size());
    for (std::size_t p = 0; p < monitors_.size(); ++p) {
      out.push_back(IndexedPathDrain{.path = p,
                                     .drain = monitors_[p]->drain(flush_open)});
    }
    return out;
  }

 private:
  PathClassifier classifier_;
  DigestEngine engine_;
  std::vector<std::unique_ptr<RefPathMonitor>> monitors_;
};

// ------------------------------------------------------------------------

MonitoringCache::Config cache_config(net::DigestMode mode) {
  MonitoringCache::Config cfg;
  cfg.protocol.marker_rate = 1.0 / 500.0;
  cfg.protocol.digest_mode = mode;
  cfg.protocol.reorder_window_j = net::milliseconds(10);
  cfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  cfg.previous_hop = 1;
  cfg.next_hop = 3;
  return cfg;
}

trace::MultiPathTrace trace_for(std::uint64_t seed) {
  static constexpr std::size_t kPathCounts[] = {1,  2,  3,  7,   16,
                                                33, 64, 97, 150, 256};
  trace::MultiPathConfig mcfg;
  mcfg.path_count = kPathCounts[(seed - 1) % 10];
  mcfg.total_packets_per_second = 60'000;
  mcfg.duration = net::milliseconds(300);
  mcfg.seed = seed;
  return trace::generate_multi_path(mcfg);
}

/// Feed `packets` through observe_batch in slices with seeded random
/// boundaries, draining mid-stream at `drain_at` (a packet index every
/// collector under test sees at exactly the same position).
template <typename ObserveBatch, typename Drain>
std::vector<IndexedPathDrain> run_sliced(std::span<const Packet> packets,
                                         std::size_t drain_at,
                                         std::uint64_t seed,
                                         ObserveBatch&& observe_batch,
                                         Drain&& drain) {
  std::mt19937_64 rng(seed * 977 + 11);
  std::uniform_int_distribution<std::size_t> batch_len(1, 2048);
  std::vector<IndexedPathDrain> stream;
  auto run_range = [&](std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    while (i < end) {
      const std::size_t n = std::min(batch_len(rng), end - i);
      observe_batch(packets.subspan(i, n));
      i += n;
    }
  };
  run_range(0, drain_at);
  stream = drain(false);
  run_range(drain_at, packets.size());
  for (IndexedPathDrain& d : drain(true)) stream.push_back(std::move(d));
  return stream;
}

class SoaGoldenEquivalence
    : public ::testing::TestWithParam<net::DigestMode> {};

TEST_P(SoaGoldenEquivalence, ReceiptStreamsMatchPreRefactorReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto multi = trace_for(seed);
    const MonitoringCache::Config ccfg = cache_config(GetParam());
    const std::size_t drain_at = multi.packets.size() / 3;

    // Reference: packet-at-a-time pre-SoA monitors.
    RefCache ref(ccfg, multi.paths);
    for (std::size_t i = 0; i < drain_at; ++i) {
      ref.observe(multi.packets[i], multi.packets[i].origin_time);
    }
    std::vector<IndexedPathDrain> ref_stream = ref.drain_all(false);
    for (std::size_t i = drain_at; i < multi.packets.size(); ++i) {
      ref.observe(multi.packets[i], multi.packets[i].origin_time);
    }
    for (IndexedPathDrain& d : ref.drain_all(true)) {
      ref_stream.push_back(std::move(d));
    }
    ASSERT_FALSE(ref_stream.empty());

    // SoA cache, randomized batch slicing.
    MonitoringCache cache(ccfg, multi.paths);
    const std::vector<IndexedPathDrain> cache_stream = run_sliced(
        multi.packets, drain_at, seed,
        [&](std::span<const Packet> slice) { cache.observe_batch(slice); },
        [&](bool flush) { return cache.drain_all(flush); });
    EXPECT_TRUE(cache_stream == ref_stream) << "cache, seed " << seed;
    // The single-hash budget survives the refactor.
    EXPECT_EQ(cache.ops().hash_computations,
              multi.packets.size() - cache.unknown_path_packets())
        << "hashes/packet != 1 at seed " << seed;

    // Sharded collectors, randomized batch slicing (different slice RNG
    // offsets per shard count come from the same seeded generator).
    for (const std::size_t shards : {1u, 4u}) {
      ShardedCollector::Config scfg;
      scfg.cache = ccfg;
      scfg.shard_count = shards;
      ShardedCollector sharded(scfg, multi.paths);
      const std::vector<IndexedPathDrain> sharded_stream = run_sliced(
          multi.packets, drain_at, seed + shards,
          [&](std::span<const Packet> slice) {
            sharded.observe_batch(slice);
          },
          [&](bool flush) { return sharded.drain(flush); });
      EXPECT_TRUE(sharded_stream == ref_stream)
          << "sharded x" << shards << ", seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, SoaGoldenEquivalence,
                         ::testing::Values(net::DigestMode::kSingle,
                                           net::DigestMode::kIndependent));

// ------------------------------------------------------------------------
// observe() vs observe_batch() parity ABOVE the staged-prefetch threshold
// (the >4k-path chunked loop is a different code path than the small-table
// loop the rest of the suite exercises).

TEST(SoaBatchParity, StagedLoopMatchesScalarAboveThreshold) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 5000;  // > kStagedThreshold
  mcfg.total_packets_per_second = 120'000;
  mcfg.duration = net::milliseconds(300);
  mcfg.seed = 77;
  const auto multi = trace::generate_multi_path(mcfg);

  const MonitoringCache::Config ccfg =
      cache_config(net::DigestMode::kIndependent);
  MonitoringCache scalar(ccfg, multi.paths);
  MonitoringCache batched(ccfg, multi.paths);

  for (const Packet& p : multi.packets) scalar.observe(p, p.origin_time);
  batched.observe_batch(multi.packets);

  EXPECT_EQ(scalar.ops().hash_computations, batched.ops().hash_computations);
  EXPECT_EQ(scalar.ops().marker_sweep_accesses,
            batched.ops().marker_sweep_accesses);
  for (std::size_t p = 0; p < multi.paths.size(); ++p) {
    ASSERT_EQ(scalar.drain_path(p, true), batched.drain_path(p, true))
        << "path " << p;
  }
}

// ------------------------------------------------------------------------
// Edge cases and the layout budget itself.

TEST(SoaEdgeCases, ZeroPathsThrows) {
  EXPECT_THROW(
      MonitoringCache(cache_config(net::DigestMode::kIndependent),
                      std::vector<net::PrefixPair>{}),
      std::invalid_argument);
  ShardedCollector::Config scfg;
  scfg.cache = cache_config(net::DigestMode::kIndependent);
  scfg.shard_count = 2;
  EXPECT_THROW(ShardedCollector(scfg, std::vector<net::PrefixPair>{}),
               std::invalid_argument);
}

TEST(SoaEdgeCases, SinglePathMatchesReference) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  trace::TraceConfig tcfg;
  tcfg.prefixes = paths[0];
  tcfg.packets_per_second = 20'000;
  tcfg.duration = net::milliseconds(400);
  tcfg.seed = 5;
  const auto trace = trace::generate_trace(tcfg);

  const MonitoringCache::Config ccfg =
      cache_config(net::DigestMode::kSingle);
  RefCache ref(ccfg, paths);
  MonitoringCache cache(ccfg, paths);
  for (const Packet& p : trace) {
    ref.observe(p, p.origin_time);
    cache.observe(p, p.origin_time);
  }
  const auto ref_stream = ref.drain_all(true);
  ASSERT_EQ(ref_stream.size(), 1u);
  EXPECT_EQ(cache.drain_path(0, true), ref_stream[0].drain);

  // A 1-path cache that saw no traffic drains cleanly too.
  MonitoringCache idle(ccfg, paths);
  const PathDrain empty = idle.drain_path(0, true);
  EXPECT_TRUE(empty.samples.samples.empty());
  EXPECT_TRUE(empty.aggregates.empty());
}

TEST(SoaLayout, HotRecordFitsTheBudgetAndIsContiguous) {
  // The acceptance bound: hot per-path state is one contiguous record of
  // at most 32 bytes (also enforced at compile time in path_state.hpp).
  EXPECT_LE(sizeof(core::PathHot), 32u);
  EXPECT_EQ(sizeof(core::PathSlot), 64u);  // hot + warm share one line
  EXPECT_TRUE(std::is_trivially_copyable_v<core::PathHot>);

  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  MonitoringCache cache(cache_config(net::DigestMode::kIndependent), paths);
  EXPECT_EQ(cache.modeled_cache_bytes(),
            cache.path_count() * sizeof(core::PathHot));
  // The SoA block is one slot array: consecutive paths are adjacent.
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 8;
  mcfg.total_packets_per_second = 10'000;
  mcfg.duration = net::milliseconds(10);
  const auto multi = trace::generate_multi_path(mcfg);
  MonitoringCache wide(cache_config(net::DigestMode::kIndependent),
                       multi.paths);
  const auto& slots = wide.state().slots;
  for (std::size_t p = 1; p < slots.size(); ++p) {
    EXPECT_EQ(reinterpret_cast<const std::byte*>(&slots[p]) -
                  reinterpret_cast<const std::byte*>(&slots[p - 1]),
              static_cast<std::ptrdiff_t>(sizeof(core::PathSlot)));
  }
}

}  // namespace
}  // namespace vpm::collector
