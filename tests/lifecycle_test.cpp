// Epoch lifecycle at the collector layer: TTL eviction drains receipts
// through the normal sink path, arena compaction is receipt-invisible, the
// config is validated, and the sharded collector's lifecycle pass emits
// eviction drains in ascending global path order — with receipts for
// never-evicted paths byte-identical to a lifecycle-free cache.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/sharded_collector.hpp"
#include "core/path_state.hpp"
#include "core/receipt_sink.hpp"
#include "helpers.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

collector::MonitoringCache::Config cache_config() {
  collector::MonitoringCache::Config cfg;
  cfg.protocol = test::test_protocol();
  cfg.protocol.marker_rate = 1.0 / 100.0;
  cfg.tuning = core::HopTuning{.sample_rate = 0.05, .cut_rate = 1e-3};
  return cfg;
}

/// A multi-path workload plus shifted-time copies for later phases.
struct Workload {
  trace::MultiPathTrace multi;
  std::vector<net::Packet> phase(net::Duration shift,
                                 std::size_t only_paths_below) const {
    std::vector<net::Packet> out;
    for (std::size_t i = 0; i < multi.packets.size(); ++i) {
      if (multi.path_of[i] >= only_paths_below) continue;
      net::Packet p = multi.packets[i];
      p.origin_time += shift;
      out.push_back(p);
    }
    return out;
  }
};

Workload make_workload(std::uint64_t seed, std::size_t paths = 8) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths;
  mcfg.total_packets_per_second = 40'000.0;
  mcfg.duration = net::milliseconds(200);
  mcfg.seed = seed;
  return Workload{trace::generate_multi_path(mcfg)};
}

TEST(Lifecycle, ConfigValidation) {
  const Workload w = make_workload(1);
  auto cfg = cache_config();

  cfg.lifecycle = collector::LifecycleConfig{.evict_idle = true,
                                             .idle_ttl = net::Duration{0}};
  EXPECT_THROW(collector::MonitoringCache(cfg, w.multi.paths),
               std::invalid_argument)
      << "zero TTL with eviction enabled must be rejected";

  cfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true, .idle_ttl = net::milliseconds(-5)};
  EXPECT_THROW(collector::MonitoringCache(cfg, w.multi.paths),
               std::invalid_argument)
      << "negative TTL must be rejected";

  cfg.lifecycle = collector::LifecycleConfig{
      .compact_garbage_fraction = 1.5};
  EXPECT_THROW(collector::MonitoringCache(cfg, w.multi.paths),
               std::invalid_argument)
      << "a garbage watermark above capacity could never fire";

  cfg.lifecycle = collector::LifecycleConfig{
      .compact_garbage_fraction = -0.1};
  EXPECT_THROW(collector::MonitoringCache(cfg, w.multi.paths),
               std::invalid_argument);

  cfg.lifecycle = collector::LifecycleConfig{
      .compact_garbage_fraction = std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(collector::MonitoringCache(cfg, w.multi.paths),
               std::invalid_argument);

  // Disabled eviction with a zero TTL is the valid default.
  cfg.lifecycle = collector::LifecycleConfig{};
  EXPECT_NO_THROW(collector::MonitoringCache(cfg, w.multi.paths));
}

TEST(Lifecycle, ArenaAccountingSplitsLiveAndGarbage) {
  const Workload w = make_workload(2);
  collector::MonitoringCache cache(cache_config(), w.multi.paths);
  cache.observe_batch(w.multi.packets);

  const core::PathStateSoA& soa = cache.state();
  EXPECT_EQ(soa.arena_live_bytes() + soa.arena_garbage_bytes(),
            soa.arena_bytes());
  // Slice growth relocates: a real workload leaves relocation garbage.
  EXPECT_GT(soa.arena_bytes(), 0u);
  EXPECT_GT(soa.arena_garbage_bytes(), 0u);
  EXPECT_GT(soa.arena_live_bytes(), 0u);
}

TEST(Lifecycle, CompactionReclaimsGarbageAndPreservesReceipts) {
  const Workload w = make_workload(3);
  collector::MonitoringCache compacted(cache_config(), w.multi.paths);
  collector::MonitoringCache plain(cache_config(), w.multi.paths);

  // Feed in two halves with a mid-stream compaction on one cache.
  const std::size_t half = w.multi.packets.size() / 2;
  const std::span<const net::Packet> all{w.multi.packets};
  compacted.observe_batch(all.subspan(0, half));
  plain.observe_batch(all.subspan(0, half));

  const std::size_t before = compacted.state().arena_bytes();
  const std::size_t garbage = compacted.arena_garbage_bytes();
  ASSERT_GT(garbage, 0u);
  const std::size_t reclaimed = compacted.compact_arenas();
  EXPECT_EQ(reclaimed, garbage) << "compaction reclaims exactly the garbage";
  EXPECT_EQ(compacted.state().arena_bytes(), before - reclaimed);
  EXPECT_EQ(compacted.arena_garbage_bytes(), 0u);

  compacted.observe_batch(all.subspan(half));
  plain.observe_batch(all.subspan(half));

  EXPECT_EQ(compacted.drain_all(/*flush_open=*/true),
            plain.drain_all(/*flush_open=*/true))
      << "compaction must be receipt-invisible";
}

TEST(Lifecycle, TtlEvictionDrainsReceiptsThenReclaims) {
  const Workload w = make_workload(4);
  auto cfg = cache_config();
  cfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true,
      .idle_ttl = net::milliseconds(300),
      .compact_garbage_fraction = 0.0,  // compact at any garbage
  };
  collector::MonitoringCache cache(cfg, w.multi.paths);
  cache.observe_batch(w.multi.packets);

  const std::uint64_t observed_before =
      cache.state().path_observed_packets(0);

  // Not yet idle: nothing happens.
  core::VectorSink early;
  const collector::LifecycleReport none = cache.run_lifecycle(
      net::Timestamp{net::milliseconds(250).nanoseconds()}, early);
  EXPECT_EQ(none.evicted_paths, 0u);
  EXPECT_TRUE(early.stream().empty());

  // Far past the horizon: every path with state evicts, draining its
  // receipts (ascending index), and the all-garbage arenas compact away.
  core::VectorSink sink;
  const collector::LifecycleReport report =
      cache.run_lifecycle(net::Timestamp{net::seconds(2).nanoseconds()},
                          sink);
  EXPECT_GT(report.evicted_paths, 0u);
  EXPECT_EQ(report.compactions, 1u);
  EXPECT_EQ(cache.state().arena_bytes(), 0u)
      << "all slices were evicted, so compaction must empty the arenas";
  const auto& stream = sink.stream();
  ASSERT_EQ(stream.size(), report.evicted_paths);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LT(stream[i - 1].path, stream[i].path)
        << "eviction drains ascend by path index";
  }
  // The observed-packet derivation stays honest across the dropped
  // temp-buffer records.
  EXPECT_EQ(cache.state().path_observed_packets(0), observed_before);
  EXPECT_EQ(report.dropped_buffered_records,
            cache.lifecycle_totals().dropped_buffered_records);

  // A second pass finds nothing left.
  core::VectorSink again;
  EXPECT_EQ(cache
                .run_lifecycle(net::Timestamp{net::seconds(3).nanoseconds()},
                               again)
                .evicted_paths,
            0u);

  // Revival: an evicted path monitors again from scratch.
  cache.observe_batch(w.phase(net::seconds(3), w.multi.paths.size()));
  EXPECT_GT(cache.state().arena_bytes(), 0u);
  const auto drains = cache.drain_all(/*flush_open=*/true);
  std::size_t records = 0;
  for (const core::IndexedPathDrain& d : drains) {
    records += d.drain.samples.samples.size();
  }
  EXPECT_GT(records, 0u) << "revived paths must produce receipts again";
}

// Paths kept alive across a lifecycle pass must ship byte-identical
// receipts to a lifecycle-free cache; expired paths' receipts all appear
// (in the eviction drain), just earlier.
TEST(Lifecycle, EvictionPreservesConcatenatedReceiptStreams) {
  const Workload w = make_workload(5);
  auto cfg = cache_config();
  cfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true, .idle_ttl = net::milliseconds(300)};
  collector::MonitoringCache lifecycle(cfg, w.multi.paths);
  collector::MonitoringCache plain(cache_config(), w.multi.paths);

  // Phase 1: every path.  Keepalive: paths 0..3 at +500 ms.  Lifecycle at
  // 700 ms evicts paths 4..7 (idle 500 ms) but keeps 0..3 (idle 200 ms).
  lifecycle.observe_batch(w.multi.packets);
  plain.observe_batch(w.multi.packets);
  const auto keepalive = w.phase(net::milliseconds(500), 4);
  ASSERT_FALSE(keepalive.empty());
  lifecycle.observe_batch(keepalive);
  plain.observe_batch(keepalive);

  core::VectorSink evicted;
  const collector::LifecycleReport report = lifecycle.run_lifecycle(
      net::Timestamp{net::milliseconds(700).nanoseconds()}, evicted);
  EXPECT_EQ(report.evicted_paths, 4u);

  // Phase 2 on the surviving paths, then drain everything.
  const auto phase2 = w.phase(net::milliseconds(800), 4);
  lifecycle.observe_batch(phase2);
  plain.observe_batch(phase2);

  const auto lifecycle_final = lifecycle.drain_all(/*flush_open=*/true);
  const auto plain_final = plain.drain_all(/*flush_open=*/true);
  ASSERT_EQ(lifecycle_final.size(), plain_final.size());

  // Surviving paths: byte-identical.  Evicted paths: eviction drain +
  // final drain concatenate to the lifecycle-free stream (receipts moved
  // earlier, none lost — the open aggregate closed at eviction with the
  // same content it would close with at the end, no packets intervening).
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(lifecycle_final[p], plain_final[p]) << "live path " << p;
  }
  for (const core::IndexedPathDrain& d : evicted.stream()) {
    core::PathDrain combined = d.drain;
    const core::PathDrain& later = lifecycle_final[d.path].drain;
    combined.samples.samples.insert(combined.samples.samples.end(),
                                    later.samples.samples.begin(),
                                    later.samples.samples.end());
    combined.aggregates.insert(combined.aggregates.end(),
                               later.aggregates.begin(),
                               later.aggregates.end());
    EXPECT_EQ(combined, plain_final[d.path].drain)
        << "evicted path " << d.path << " must conserve its receipts";
  }
}

// A path whose receipts were all drained earlier still holds arena caps;
// evicting it must reclaim them WITHOUT shipping an empty drain group (an
// empty eviction group on the wire would read as an extra reporting round
// for that path and age round-fed verifier state early).
TEST(Lifecycle, EmptyEvictionDrainsShipNothing) {
  const Workload w = make_workload(7);
  auto cfg = cache_config();
  cfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true, .idle_ttl = net::milliseconds(300)};
  collector::MonitoringCache cache(cfg, w.multi.paths);
  cache.observe_batch(w.multi.packets);
  (void)cache.drain_all(/*flush_open=*/true);  // everything disclosed

  core::VectorSink sink;
  const collector::LifecycleReport report = cache.run_lifecycle(
      net::Timestamp{net::seconds(2).nanoseconds()}, sink);
  EXPECT_GT(report.evicted_paths, 0u);
  EXPECT_TRUE(sink.stream().empty())
      << "already-drained paths have nothing left to disclose";
  EXPECT_EQ(cache.arena_live_bytes(), 0u);
}

// Live-capacity decay: a burst grows slices past the initial caps; quiet
// lifecycle passes then halve them back toward the floor, the released
// halves become compactable garbage, and receipts never change.
TEST(Lifecycle, DecayHalvesLowOccupancySlicesReceiptInvisibly) {
  const Workload w = make_workload(8);
  auto cfg = cache_config();
  cfg.lifecycle.decay_low_occupancy_drains = 2;
  collector::MonitoringCache cache(cfg, w.multi.paths);
  collector::MonitoringCache plain(cache_config(), w.multi.paths);
  cache.observe_batch(w.multi.packets);
  plain.observe_batch(w.multi.packets);

  const std::size_t live_before = cache.arena_live_bytes();
  ASSERT_GT(live_before, 0u);

  // Pass 1 only arms the streak counters (threshold 2): nothing halves.
  const auto first = cache.run_decay_pass();
  EXPECT_EQ(first.halved_slices, 0u);
  EXPECT_EQ(first.released_bytes, 0u);

  // Pass 2 halves every slice that stayed under a quarter occupancy.
  const auto second = cache.run_decay_pass();
  ASSERT_GT(second.halved_slices, 0u)
      << "burst-grown slices sit nearly empty and must decay";
  EXPECT_EQ(cache.arena_live_bytes(), live_before - second.released_bytes);
  EXPECT_EQ(cache.state().arena_bytes(),
            cache.arena_live_bytes() + cache.arena_garbage_bytes());
  EXPECT_EQ(cache.lifecycle_totals().decayed_slices, second.halved_slices);
  EXPECT_EQ(cache.lifecycle_totals().decayed_arena_bytes,
            second.released_bytes);

  // Sustained quiet decays to the initial-cap floor and stops there.
  for (int i = 0; i < 40; ++i) (void)cache.run_decay_pass();
  const auto settled = cache.run_decay_pass();
  EXPECT_EQ(settled.halved_slices, 0u)
      << "decay must reach a fixed point, not oscillate";
  const std::size_t floor_live = cache.arena_live_bytes();
  EXPECT_LT(floor_live, live_before);
  for (const core::PathSlot& s : cache.state().slots) {
    if (s.warm.buf_cap != 0) {
      EXPECT_GE(s.warm.buf_cap, 16u);
    }
    if (s.warm.ring_cap != 0) {
      EXPECT_GE(s.warm.ring_cap, 8u);
      EXPECT_EQ(s.warm.ring_cap & (s.warm.ring_cap - 1), 0u)
          << "ring capacity must stay a power of two";
    }
    EXPECT_LE(s.hot.buf_size, s.warm.buf_cap);
    EXPECT_LE(s.hot.ring_size, s.warm.ring_cap);
  }

  // The released halves are garbage; compaction reclaims them for real.
  const std::size_t garbage = cache.arena_garbage_bytes();
  ASSERT_GT(garbage, 0u);
  EXPECT_EQ(cache.compact_arenas(), garbage);
  EXPECT_EQ(cache.state().arena_bytes(), floor_live);

  // Receipt-invisible: the decayed cache keeps monitoring and drains a
  // stream byte-identical to the never-decayed cache's.
  cache.observe_batch(w.phase(net::milliseconds(250), w.multi.paths.size()));
  plain.observe_batch(w.phase(net::milliseconds(250), w.multi.paths.size()));
  EXPECT_EQ(cache.drain_all(/*flush_open=*/true),
            plain.drain_all(/*flush_open=*/true));
}

// The sharded collector's decay pass must make the identical per-path
// decisions the single cache makes (decay state is per path, not per
// shard).
TEST(ShardedLifecycle, DecayMatchesSingleCache) {
  const Workload w = make_workload(9);
  auto cfg = cache_config();
  cfg.lifecycle.decay_low_occupancy_drains = 2;

  collector::MonitoringCache single(cfg, w.multi.paths);
  collector::ShardedCollector::Config scfg;
  scfg.cache = cfg;
  scfg.shard_count = 4;
  collector::ShardedCollector sharded(scfg, w.multi.paths);

  single.observe_batch(w.multi.packets);
  sharded.observe_batch(w.multi.packets);

  const net::Timestamp now{net::milliseconds(250).nanoseconds()};
  core::NullSink null;
  for (int pass = 0; pass < 3; ++pass) {
    const collector::LifecycleReport s1 = single.run_lifecycle(now, null);
    const collector::LifecycleReport s2 = sharded.run_lifecycle(now, null);
    EXPECT_EQ(s2.decayed_slices, s1.decayed_slices) << "pass " << pass;
    EXPECT_EQ(s2.decayed_arena_bytes, s1.decayed_arena_bytes)
        << "pass " << pass;
  }
  EXPECT_EQ(sharded.arena_live_bytes(), single.arena_live_bytes());
}

// The sharded lifecycle pass walks the global path table, so for any
// shard count its eviction stream and report equal the single cache's —
// including 16 shards over 8 paths, which leaves shards without a cache.
// Pass 1 skips live paths (a keepalive keeps paths 0..3 under the TTL);
// pass 2 evicts everything left.
TEST(ShardedLifecycle, MatchesSingleCacheLifecycle) {
  const Workload w = make_workload(6);
  auto cfg = cache_config();
  cfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true,
      .idle_ttl = net::milliseconds(300),
      .compact_garbage_fraction = 0.0,
      .decay_low_occupancy_drains = 1,
  };
  const auto keepalive = w.phase(net::milliseconds(500), 4);
  ASSERT_FALSE(keepalive.empty());

  for (const std::size_t shards : {1u, 3u, 8u, 16u}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    collector::MonitoringCache single(cfg, w.multi.paths);
    collector::ShardedCollector::Config scfg;
    scfg.cache = cfg;
    scfg.shard_count = shards;
    collector::ShardedCollector sharded(scfg, w.multi.paths);
    // Shard caches holding arena bytes: with a zero watermark each one
    // compacts in the next pass (it then holds relocation, decay or
    // eviction garbage), as the single cache does.
    const auto holding_arenas = [&] {
      std::size_t n = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const collector::MonitoringCache* c = sharded.shard_cache(s);
        if (c != nullptr && c->state().arena_bytes() > 0) ++n;
      }
      return n;
    };

    single.observe_batch(w.multi.packets);
    sharded.observe_batch(w.multi.packets);

    // Drain the periodic round first (both), then run the lifecycle passes.
    core::VectorSink single_drain;
    single.drain_all(single_drain, /*flush_open=*/false);
    core::VectorSink sharded_drain;
    sharded.drain(sharded_drain, /*flush_open=*/false);
    ASSERT_EQ(sharded_drain.stream(), single_drain.stream());

    single.observe_batch(keepalive);
    sharded.observe_batch(keepalive);

    const net::Timestamp passes[] = {
        net::Timestamp{net::milliseconds(700).nanoseconds()},
        net::Timestamp{net::seconds(2).nanoseconds()}};
    for (std::size_t pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE(::testing::Message() << "pass " << pass);
      const std::size_t compacting = holding_arenas();
      ASSERT_GT(compacting, 0u);
      core::VectorSink single_evicted;
      const collector::LifecycleReport single_report =
          single.run_lifecycle(passes[pass], single_evicted);
      core::VectorSink sharded_evicted;
      const collector::LifecycleReport sharded_report =
          sharded.run_lifecycle(passes[pass], sharded_evicted);

      EXPECT_EQ(single_report.evicted_paths, 4u);
      EXPECT_EQ(sharded_evicted.stream(), single_evicted.stream())
          << "sharded eviction drains must match the single cache's, in "
             "ascending global order";
      EXPECT_EQ(sharded_report.evicted_paths, single_report.evicted_paths);
      EXPECT_EQ(sharded_report.dropped_buffered_records,
                single_report.dropped_buffered_records);
      EXPECT_EQ(sharded_report.decayed_slices, single_report.decayed_slices);
      EXPECT_EQ(sharded_report.decayed_arena_bytes,
                single_report.decayed_arena_bytes);
      EXPECT_EQ(sharded_report.decayed_emitted_vectors,
                single_report.decayed_emitted_vectors);
      EXPECT_EQ(sharded_report.decayed_emitted_bytes,
                single_report.decayed_emitted_bytes);
      // Garbage is a per-path sum, so both reclaim the same bytes; the
      // single cache compacts once, the sharded collector once per shard
      // cache that held arenas (the same count at one shard).
      EXPECT_EQ(sharded_report.reclaimed_arena_bytes,
                single_report.reclaimed_arena_bytes);
      EXPECT_EQ(single_report.compactions, 1u);
      EXPECT_EQ(sharded_report.compactions, compacting);
      EXPECT_EQ(sharded.arena_live_bytes(), single.arena_live_bytes());
    }
    EXPECT_EQ(sharded.arena_bytes(), 0u);
    EXPECT_EQ(sharded.arena_garbage_bytes(), 0u);
  }
}

}  // namespace
}  // namespace vpm
