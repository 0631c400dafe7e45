// Multi-shard collector scenario driver.
//
// One call builds a multi-path workload, runs it through BOTH collectors —
// a single-threaded MonitoringCache (the reference) and a ShardedCollector
// with the requested shard/producer counts — and returns the two drained
// receipt streams, which the equivalence suites compare with `==`.  The
// sharded ingest replays the trace in observe_batch() slices whose
// boundaries are drawn from a seeded RNG, so every scenario also fuzzes
// batch slicing; with producer_count > 0 it spawns that many producer
// threads, each owning the paths with global index ≡ producer (mod P) so
// per-path FIFO order (the determinism precondition) holds by
// construction.
//
// This is the workhorse of the sharded-vs-single equivalence suite and
// the TSan stress tests; it lives in sim/ so examples and future
// scenarios can reuse it.
#ifndef VPM_SIM_SHARD_SCENARIO_HPP
#define VPM_SIM_SHARD_SCENARIO_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/time.hpp"

namespace vpm::sim {

struct ShardScenarioConfig {
  // Workload shape (the "topology": path count + popularity skew).
  std::size_t path_count = 64;
  double zipf_s = 1.0;
  double total_packets_per_second = 60'000.0;
  net::Duration duration = net::milliseconds(300);
  std::uint64_t seed = 1;

  // Collector shape.
  std::size_t shard_count = 4;
  net::DigestMode digest_mode = net::DigestMode::kIndependent;
  double marker_rate = 1.0 / 500.0;
  core::HopTuning tuning{.sample_rate = 0.01, .cut_rate = 1e-3};

  // Ingest shape.  Batch sizes are uniform in [min_batch, max_batch],
  // drawn per slice from a generator seeded off `seed`.
  std::size_t min_batch = 1;
  std::size_t max_batch = 2048;
  /// 0 = synchronous ingest on the driver thread; N > 0 = start N
  /// producer threads feeding the collector's SPSC queues.
  std::size_t producer_count = 0;
  /// Per (producer, shard) queue bound — small values exercise
  /// backpressure (producers spin on full rings).
  std::size_t queue_capacity = 256;
};

struct ShardScenarioResult {
  /// Reference: the single-threaded cache's drain, ascending path index.
  std::vector<core::IndexedPathDrain> single;
  /// The sharded collector's drain, same order contract.
  std::vector<core::IndexedPathDrain> sharded;

  /// Cost/ground-truth cross-checks.
  collector::DataPlaneOps single_ops;
  collector::DataPlaneOps sharded_ops;
  std::uint64_t single_unknown = 0;
  std::uint64_t sharded_unknown = 0;
  /// Ground truth: packets generated per path (for loss/duplication
  /// assertions against drained aggregate counts).
  std::vector<std::uint64_t> path_packets;
  std::uint64_t total_packets = 0;
};

/// Run one scenario.  Throws on infeasible configs (propagated from the
/// collector/trace layers).
[[nodiscard]] ShardScenarioResult run_shard_scenario(
    const ShardScenarioConfig& cfg);

}  // namespace vpm::sim

#endif  // VPM_SIM_SHARD_SCENARIO_HPP
