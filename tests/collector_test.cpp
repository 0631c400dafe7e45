// Tests for the collector library: path classification, the multi-path
// monitoring cache, the §7.1 resource model, and the router pipeline.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/pipeline.hpp"
#include "collector/resource_model.hpp"
#include "collector/sharded_collector.hpp"
#include "helpers.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::collector {
namespace {

MonitoringCache::Config cache_config() {
  MonitoringCache::Config cfg;
  cfg.protocol = test::test_protocol();
  cfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  cfg.previous_hop = 3;
  cfg.next_hop = 5;
  return cfg;
}

TEST(PathClassifier, MapsPacketsToTheirPaths) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 100;
  mcfg.total_packets_per_second = 50'000;
  mcfg.duration = net::milliseconds(200);
  const auto multi = trace::generate_multi_path(mcfg);
  PathClassifier classifier(multi.paths);
  for (std::size_t i = 0; i < multi.packets.size(); i += 11) {
    EXPECT_EQ(classifier.classify(multi.packets[i].header),
              multi.path_of[i]);
  }
}

TEST(PathClassifier, UnknownPacketsReturnNpos) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  PathClassifier classifier(paths);
  net::PacketHeader h;
  h.src = net::Ipv4Address(1, 2, 3, 4);
  h.dst = net::Ipv4Address(5, 6, 7, 8);
  EXPECT_EQ(classifier.classify(h), PathClassifier::npos);
}

TEST(PathClassifier, Validation) {
  EXPECT_THROW(PathClassifier(std::vector<net::PrefixPair>{}),
               std::invalid_argument);
  const std::vector<net::PrefixPair> mixed = {
      trace::default_prefix_pair(),
      net::PrefixPair{net::Prefix::parse("10.9.0.0/24"),
                      net::Prefix::parse("100.9.0.0/24")},
  };
  EXPECT_THROW(PathClassifier{mixed}, std::invalid_argument);
  const std::vector<net::PrefixPair> dup = {trace::default_prefix_pair(),
                                            trace::default_prefix_pair()};
  EXPECT_THROW(PathClassifier{dup}, std::invalid_argument);
}

TEST(MonitoringCache, TracksPerPathStateIndependently) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 20;
  mcfg.total_packets_per_second = 100'000;
  mcfg.duration = net::seconds(1);
  const auto multi = trace::generate_multi_path(mcfg);

  MonitoringCache cache(cache_config(), multi.paths);
  std::vector<std::uint64_t> per_path(multi.paths.size(), 0);
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    const std::size_t path =
        cache.observe(multi.packets[i], multi.packets[i].origin_time);
    ASSERT_EQ(path, multi.path_of[i]);
    ++per_path[path];
  }
  EXPECT_EQ(cache.unknown_path_packets(), 0u);

  // Aggregate receipts per path must count exactly that path's packets.
  for (std::size_t p = 0; p < multi.paths.size(); ++p) {
    const auto aggs = cache.drain_path(p, true).aggregates;
    std::uint64_t counted = 0;
    for (const auto& r : aggs) counted += r.packet_count;
    EXPECT_EQ(counted, per_path[p]) << "path " << p;
  }
}

TEST(MonitoringCache, NanRatesAreRejected) {
  // A NaN rate would otherwise cast to an arbitrary threshold: sample
  // every packet, or make every packet a marker or a cut.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  MonitoringCache::Config cfg = cache_config();
  cfg.tuning.sample_rate = nan;
  EXPECT_THROW(MonitoringCache(cfg, paths), std::invalid_argument);
  cfg = cache_config();
  cfg.protocol.marker_rate = nan;
  EXPECT_THROW(MonitoringCache(cfg, paths), std::invalid_argument);
  cfg = cache_config();
  cfg.tuning.cut_rate = nan;
  EXPECT_THROW(MonitoringCache(cfg, paths), std::invalid_argument);
}

TEST(MonitoringCache, CountsUnknownTraffic) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  MonitoringCache cache(cache_config(), paths);
  net::Packet alien;
  alien.header.src = net::Ipv4Address(1, 2, 3, 4);
  alien.header.dst = net::Ipv4Address(9, 9, 9, 9);
  EXPECT_EQ(cache.observe(alien, net::Timestamp{}), PathClassifier::npos);
  EXPECT_EQ(cache.unknown_path_packets(), 1u);
}

TEST(MonitoringCache, OpsAccountingMatchesCostModel) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  MonitoringCache cache(cache_config(), paths);
  auto cfg = test::small_trace_config(3);
  cfg.duration = net::milliseconds(200);
  const auto trace = trace::generate_trace(cfg);
  for (const auto& p : trace) cache.observe(p, p.origin_time);
  const DataPlaneOps& ops = cache.ops();
  EXPECT_EQ(ops.memory_accesses, trace.size() * 3);
  EXPECT_EQ(ops.hash_computations, trace.size());
  EXPECT_EQ(ops.timestamp_reads, trace.size());
}

// ---------------------------------------------------------- ResourceModel

TEST(ResourceModel, PaperMemoryNumbers) {
  // "if a HOP observes traffic from 100,000 paths at the same time, it
  // needs a 2MB monitoring cache" (§7.1).
  EXPECT_EQ(monitoring_cache_bytes(100'000), 2'000'000u);

  // OC-192 at 400 B packets: 3.125 Mpps; J = 10 ms; 2J window of 7 B
  // records = ~437 KB (the paper quotes 436 KB).
  const double pps = link_pps(10e9, 400.0);
  EXPECT_NEAR(pps, 3.125e6, 1e3);
  const std::size_t buf = temp_buffer_bytes(pps, net::milliseconds(10));
  EXPECT_NEAR(static_cast<double>(buf), 437'500.0, 2'000.0);

  // Worst case: 64 B packets -> ~2.7-2.8 MB (paper: 2.8 MB at 20 Mpps).
  const std::size_t worst =
      temp_buffer_bytes(link_pps(10e9, 64.0), net::milliseconds(10));
  EXPECT_GT(worst, 2'500'000u);
  EXPECT_LT(worst, 3'000'000u);
}

TEST(ResourceModel, PaperBandwidthNumbers) {
  // The paper's configuration: 10-domain path, 1000 packets/aggregate,
  // 1% sampling, 400 B packets -> ~0.2 B per packet and <0.1% overhead.
  BandwidthParams params;
  const BandwidthOverhead o = bandwidth_overhead(params);
  // Per HOP: 22/1000 + 7*0.01 + header amortisation ~= 0.12 B/packet.
  EXPECT_NEAR(o.bytes_per_packet_per_hop, 0.12, 0.03);
  EXPECT_LT(o.fraction_of_traffic, 0.01);
  EXPECT_GT(o.fraction_of_traffic, 0.001);
}

TEST(ResourceModel, OverheadScalesWithKnobs) {
  BandwidthParams base;
  BandwidthParams more_sampling = base;
  more_sampling.sample_rate = 0.10;
  EXPECT_GT(bandwidth_overhead(more_sampling).bytes_per_packet_per_hop,
            bandwidth_overhead(base).bytes_per_packet_per_hop);
  BandwidthParams coarser = base;
  coarser.packets_per_aggregate = 100'000;
  EXPECT_LT(bandwidth_overhead(coarser).bytes_per_packet_per_hop,
            bandwidth_overhead(base).bytes_per_packet_per_hop);
}

// --------------------------------------------------------------- Pipeline

TEST(Pipeline, ForwardsGoodTrafficAndDropsBad) {
  Pipeline pipe;
  pipe.append(std::make_unique<CheckHeaderElement>());
  pipe.append(std::make_unique<RouteLookupElement>(
      RouteLookupElement::synthetic_table(64, 5)));

  auto cfg = test::small_trace_config(7);
  cfg.duration = net::milliseconds(100);
  const auto trace = trace::generate_trace(cfg);
  for (const auto& p : trace) pipe.process(p, p.origin_time);
  EXPECT_EQ(pipe.forwarded(), trace.size());  // default route catches all

  net::Packet bad;  // zero addresses
  EXPECT_FALSE(pipe.process(bad, net::Timestamp{}));
  EXPECT_EQ(pipe.dropped(), 1u);
}

TEST(Pipeline, RouteLookupPrefersLongestPrefix) {
  std::vector<RouteLookupElement::Route> routes = {
      {net::Prefix::parse("10.0.0.0/8"), 1},
      {net::Prefix::parse("10.20.0.0/16"), 2},
      {net::Prefix::parse("0.0.0.0/0"), 0},
  };
  RouteLookupElement lookup(std::move(routes));
  net::Packet p;
  p.header.src = net::Ipv4Address(1, 1, 1, 1);
  p.header.total_length = 40;
  p.header.dst = net::Ipv4Address(10, 20, 3, 4);
  ASSERT_TRUE(lookup.process(p, net::Timestamp{}));
  EXPECT_EQ(lookup.last_next_hop(), 2u);
  p.header.dst = net::Ipv4Address(10, 99, 3, 4);
  ASSERT_TRUE(lookup.process(p, net::Timestamp{}));
  EXPECT_EQ(lookup.last_next_hop(), 1u);
  p.header.dst = net::Ipv4Address(99, 99, 3, 4);
  ASSERT_TRUE(lookup.process(p, net::Timestamp{}));
  EXPECT_EQ(lookup.last_next_hop(), 0u);
}

TEST(Pipeline, VpmElementFeedsCache) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  auto vpm = std::make_unique<VpmElement>(cache_config(), paths);
  VpmElement* raw = vpm.get();
  Pipeline pipe;
  pipe.append(std::move(vpm));

  auto cfg = test::small_trace_config(9);
  cfg.duration = net::milliseconds(200);
  const auto trace = trace::generate_trace(cfg);
  for (const auto& p : trace) pipe.process(p, p.origin_time);
  const auto aggs = raw->cache().drain_path(0, true).aggregates;
  std::uint64_t counted = 0;
  for (const auto& r : aggs) counted += r.packet_count;
  EXPECT_EQ(counted, trace.size());
}

TEST(Pipeline, RouteLookupValidation) {
  EXPECT_THROW(RouteLookupElement({}), std::invalid_argument);
}

// ------------------------------------------------- observe_batch boundaries

TEST(MonitoringCacheBatchBoundary, EmptyBatchIsANoOp) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  MonitoringCache cache(cache_config(), paths);

  cache.observe_batch(std::span<const net::Packet>{});
  cache.observe_batch(std::span<const net::Packet>{},
                      std::span<const net::Timestamp>{});
  EXPECT_EQ(cache.ops().memory_accesses, 0u);
  EXPECT_EQ(cache.ops().hash_computations, 0u);
  EXPECT_EQ(cache.unknown_path_packets(), 0u);

  // Also a no-op mid-stream: counters and receipts unchanged.
  auto cfg = test::small_trace_config(3);
  cfg.duration = net::milliseconds(300);
  const auto trace = trace::generate_trace(cfg);
  cache.observe_batch(trace);
  const DataPlaneOps before = cache.ops();
  cache.observe_batch(std::span<const net::Packet>{});
  EXPECT_EQ(cache.ops().hash_computations, before.hash_computations);
  EXPECT_EQ(cache.ops().memory_accesses, before.memory_accesses);

  // An empty sharded batch is equally inert.
  ShardedCollector::Config scfg;
  scfg.cache = cache_config();
  scfg.shard_count = 4;
  ShardedCollector sharded(scfg, paths);
  sharded.observe_batch(std::span<const net::Packet>{});
  EXPECT_EQ(sharded.ops().hash_computations, 0u);
}

TEST(MonitoringCacheBatchBoundary, SinglePacketBatchesMatchScalar) {
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  auto cfg = test::small_trace_config(19);
  cfg.duration = net::milliseconds(500);
  const auto trace = trace::generate_trace(cfg);

  MonitoringCache scalar(cache_config(), paths);
  MonitoringCache batched(cache_config(), paths);
  for (const net::Packet& p : trace) {
    scalar.observe(p, p.origin_time);
    batched.observe_batch(std::span<const net::Packet>{&p, 1});
  }
  EXPECT_EQ(scalar.drain_path(0, true), batched.drain_path(0, true));
  EXPECT_EQ(scalar.ops().hash_computations, batched.ops().hash_computations);
}

TEST(MonitoringCacheBatchBoundary, BatchSpanningJWindowDrainMatchesScalar) {
  // Split the trace right after a cutting packet: the closed aggregate's
  // J-window is still pending when the next batch starts, so the second
  // batch finalizes a window opened by the first — the cross-batch drain
  // path that was previously untested.
  const std::vector<net::PrefixPair> paths = {trace::default_prefix_pair()};
  const MonitoringCache::Config ccfg = cache_config();
  auto cfg = test::small_trace_config(37);
  const auto trace = trace::generate_trace(cfg);

  const net::DigestEngine engine = ccfg.protocol.make_engine();
  const std::uint32_t delta = core::cut_threshold_for(ccfg.tuning.cut_rate);
  // Find a cut in the middle third (so both batches are substantial) and
  // a packet inside its J-window, giving two interesting split points.
  std::size_t cut = 0;
  for (std::size_t i = trace.size() / 3; i < 2 * trace.size() / 3; ++i) {
    if (engine.decide(trace[i]).cut_value > delta) {
      cut = i;
      break;
    }
  }
  ASSERT_GT(cut, 0u) << "trace contains no cut in the middle third";
  std::size_t inside_window = cut + 1;
  while (inside_window < trace.size() &&
         trace[inside_window].origin_time - trace[cut].origin_time <
             ccfg.protocol.reorder_window_j / 2) {
    ++inside_window;
  }

  MonitoringCache scalar(ccfg, paths);
  for (const net::Packet& p : trace) scalar.observe(p, p.origin_time);
  const core::PathDrain reference = scalar.drain_path(0, true);
  ASSERT_GT(reference.aggregates.size(), 2u);

  for (const std::size_t split : {cut, cut + 1, inside_window}) {
    MonitoringCache split_cache(ccfg, paths);
    const std::span<const net::Packet> all(trace);
    split_cache.observe_batch(all.first(split));
    split_cache.observe_batch(all.subspan(split));
    EXPECT_EQ(split_cache.drain_path(0, true), reference)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace vpm::collector
