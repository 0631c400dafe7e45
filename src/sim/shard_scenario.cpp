#include "sim/shard_scenario.hpp"

#include <algorithm>
#include <random>
#include <span>
#include <thread>
#include <utility>

#include "collector/sharded_collector.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim {

namespace {

/// Replay `packets` as observe_batch slices with RNG-drawn boundaries.
template <typename Feed>
void replay_slices(std::span<const net::Packet> packets, std::size_t min_batch,
                   std::size_t max_batch, std::mt19937_64& rng, Feed&& feed) {
  std::uniform_int_distribution<std::size_t> size_dist(
      std::max<std::size_t>(min_batch, 1), std::max(max_batch, min_batch));
  std::size_t i = 0;
  while (i < packets.size()) {
    const std::size_t n = std::min(size_dist(rng), packets.size() - i);
    feed(packets.subspan(i, n));
    i += n;
  }
}

}  // namespace

ShardScenarioResult run_shard_scenario(const ShardScenarioConfig& cfg) {
  const trace::MultiPathTrace multi = trace::generate_multi_path(
      trace::MultiPathConfig{
          .path_count = cfg.path_count,
          .zipf_s = cfg.zipf_s,
          .total_packets_per_second = cfg.total_packets_per_second,
          .duration = cfg.duration,
          .seed = cfg.seed});

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol.digest_mode = cfg.digest_mode;
  ccfg.protocol.marker_rate = cfg.marker_rate;
  ccfg.tuning = cfg.tuning;

  ShardScenarioResult r;
  r.total_packets = multi.packets.size();
  r.path_packets.assign(multi.paths.size(), 0);
  for (const std::uint32_t p : multi.path_of) ++r.path_packets[p];

  // --- reference: one cache, one thread, whole trace in one batch.
  collector::MonitoringCache single(ccfg, multi.paths);
  single.observe_batch(multi.packets);
  r.single = single.drain_all(/*flush_open=*/true);
  r.single_ops = single.ops();
  r.single_unknown = single.unknown_path_packets();

  // --- sharded run over the same trace.
  collector::ShardedCollector::Config scfg;
  scfg.cache = ccfg;
  scfg.shard_count = cfg.shard_count;
  scfg.queue_capacity = cfg.queue_capacity;
  collector::ShardedCollector sharded(scfg, multi.paths);

  if (cfg.producer_count == 0) {
    std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1);
    replay_slices(multi.packets, cfg.min_batch, cfg.max_batch, rng,
                  [&](std::span<const net::Packet> slice) {
                    sharded.observe_batch(slice);
                  });
  } else {
    sharded.start(cfg.producer_count);
    std::vector<std::thread> producers;
    producers.reserve(cfg.producer_count);
    for (std::size_t p = 0; p < cfg.producer_count; ++p) {
      producers.emplace_back([&, p] {
        // Producer p owns the paths with global index ≡ p (mod P), so a
        // path's packets all traverse one FIFO queue (the determinism
        // precondition).  Its subsequence keeps the trace's arrival order.
        std::vector<net::Packet> mine;
        for (std::size_t i = 0; i < multi.packets.size(); ++i) {
          if (multi.path_of[i] % cfg.producer_count == p) {
            mine.push_back(multi.packets[i]);
          }
        }
        std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 1 + p);
        replay_slices(mine, cfg.min_batch, cfg.max_batch, rng,
                      [&](std::span<const net::Packet> slice) {
                        sharded.feed(p, slice);
                      });
      });
    }
    for (std::thread& t : producers) t.join();
    sharded.stop();
  }

  r.sharded = sharded.drain(/*flush_open=*/true);
  r.sharded_ops = sharded.ops();
  r.sharded_unknown = sharded.unknown_path_packets();
  return r;
}

}  // namespace vpm::sim
