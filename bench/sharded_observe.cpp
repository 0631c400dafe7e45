// Scaling curve of the sharded multi-core collector.
//
// Three complementary measurements:
//
//   * BM_ShardedObserve — the threaded end-to-end path (producer routes
//     into SPSC queues, one worker per shard applies batches).  Aggregate
//     throughput scales with shards ONLY when the host grants the process
//     that many cores; on a single-core runner the workers time-slice and
//     the queue hop is pure overhead, so treat single-core numbers as a
//     lower bound, not the scaling curve.
//   * BM_ShardedShardStage — the per-shard work in isolation: one shard's
//     cache observing exactly the slice the router would give it out of N
//     shards (the busiest shard, measured).  Shards share nothing, so N
//     cores run N of these concurrently and the aggregate rate is N x the
//     per-shard rate minus the routing stage; the `implied_agg_pps`
//     counter reports that shared-nothing extrapolation, which is how the
//     curve is measured on constrained CI hosts.
//   * BM_ShardRoute — the routing stage alone (mask, mix, mod), the only
//     per-packet work that does not parallelize.
#include <benchmark/benchmark.h>

#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/sharded_collector.hpp"
#include "core/config.hpp"
#include "experiment.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

constexpr std::size_t kPaths = 1024;

const trace::MultiPathTrace& shared_trace() {
  static const trace::MultiPathTrace multi = [] {
    trace::MultiPathConfig cfg;
    cfg.path_count = kPaths;
    cfg.total_packets_per_second = 400'000;
    cfg.duration = net::seconds(1);
    cfg.seed = 7;
    return trace::generate_multi_path(cfg);
  }();
  return multi;
}

collector::ShardedCollector::Config sharded_config(std::size_t shards) {
  collector::ShardedCollector::Config cfg;
  cfg.cache.protocol.marker_rate = 1e-3;
  cfg.cache.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  cfg.shard_count = shards;
  return cfg;
}

// End-to-end threaded ingest: route + enqueue on this thread, N workers
// consume.  One iteration = one full trace replay, quiesced via
// wait_idle() so every enqueued packet has been applied.
void BM_ShardedObserve(benchmark::State& state) {
  const trace::MultiPathTrace& multi = shared_trace();
  collector::ShardedCollector sharded(
      sharded_config(static_cast<std::size_t>(state.range(0))), multi.paths);
  sharded.start(/*producer_count=*/1);

  constexpr std::size_t kSlice = 4096;
  std::vector<net::Timestamp> when(multi.packets.size());
  net::Duration offset{0};
  for (auto _ : state) {
    state.PauseTiming();
    // Keep local time monotone across replays (a backwards jump would
    // freeze the J-window drains, see BM_AggregatorObserve).
    for (std::size_t k = 0; k < multi.packets.size(); ++k) {
      when[k] = multi.packets[k].origin_time + offset;
    }
    offset += net::seconds(1);
    state.ResumeTiming();

    const std::span<const net::Packet> packets(multi.packets);
    const std::span<const net::Timestamp> times(when);
    for (std::size_t i = 0; i < packets.size(); i += kSlice) {
      const std::size_t n = std::min(kSlice, packets.size() - i);
      sharded.feed(0, packets.subspan(i, n), times.subspan(i, n));
    }
    sharded.wait_idle();

    state.PauseTiming();
    sharded.stop();
    (void)sharded.drain();  // keep receipt buffers bounded
    sharded.start(1);
    state.ResumeTiming();
  }
  sharded.stop();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(multi.packets.size()));
  state.counters["shards"] = static_cast<double>(sharded.shard_count());
}
BENCHMARK(BM_ShardedObserve)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Per-shard stage cost: the busiest shard's cache observing its own slice.
// Shared-nothing extrapolation: implied_agg_pps = per-shard rate x shards.
void BM_ShardedShardStage(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const trace::MultiPathTrace& multi = shared_trace();

  // Partition paths and packets exactly as the router would.
  std::vector<std::size_t> shard_of_path(multi.paths.size());
  std::vector<std::vector<net::PrefixPair>> shard_paths(shards);
  for (std::size_t i = 0; i < multi.paths.size(); ++i) {
    const std::size_t s = collector::ShardedCollector::shard_of_key(
        collector::PathClassifier::key_of(multi.paths[i]), shards);
    shard_of_path[i] = s;
    shard_paths[s].push_back(multi.paths[i]);
  }
  std::vector<std::vector<net::Packet>> shard_packets(shards);
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    shard_packets[shard_of_path[multi.path_of[i]]].push_back(
        multi.packets[i]);
  }
  std::size_t busiest = 0;
  for (std::size_t s = 1; s < shards; ++s) {
    if (shard_packets[s].size() > shard_packets[busiest].size()) busiest = s;
  }
  const std::vector<net::Packet>& slice = shard_packets[busiest];

  collector::MonitoringCache cache(sharded_config(shards).cache,
                                   shard_paths[busiest]);
  std::vector<net::Timestamp> when(slice.size());
  net::Duration offset{0};
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < slice.size(); ++k) {
      when[k] = slice[k].origin_time + offset;
    }
    offset += net::seconds(1);
    state.ResumeTiming();

    cache.observe_batch(slice, when);

    state.PauseTiming();
    (void)cache.drain_all();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slice.size()));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["shard_packets"] = static_cast<double>(slice.size());
  // Shared-nothing extrapolation, imbalance included: with N cores the
  // trace finishes when the BUSIEST shard (measured here) finishes its
  // slice, so aggregate pps = whole trace / busiest-shard time.
  state.counters["implied_agg_pps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(multi.packets.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedShardStage)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The serial routing stage alone: mask the header, mix, mod — what the
// ingest thread pays per packet before any shard touches it.
void BM_ShardRoute(benchmark::State& state) {
  const trace::MultiPathTrace& multi = shared_trace();
  const collector::ShardedCollector sharded(sharded_config(8), multi.paths);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.shard_of(multi.packets[i].header));
    if (++i == multi.packets.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardRoute);

}  // namespace

int main(int argc, char** argv) {
  return vpm::bench::run_benchmarks_with_json(argc, argv, "sharded",
                                              "BENCH_sharded.json");
}
