// The sharded multi-core collector.
//
// A single MonitoringCache tops out at a few Mpps on one core; a 100 Gbps
// line needs several cores' worth of collector.  Paths are independent
// (every receipt is per-path state), so the scaling move is shared-nothing
// sharding by path key:
//
//   ingest (producers) --route by key--> SPSC queues --> shard workers
//       each worker owns ONE MonitoringCache over its subset of paths
//   control plane: a walk over the global path table; each path drains
//       (or evicts) from its owning shard's cache under its global index,
//       so the stream is exactly the single-threaded drain order.
//
// Invariants the equivalence suite pins down:
//   * every path key maps to exactly one shard (pure function of the key
//     and the shard count — stable across table rebuilds and resizes);
//   * a path's packets traverse one FIFO queue, so each per-path monitor
//     sees the same observation sequence the single-threaded cache would,
//     and per-path receipts are equal;
//   * the drain is ascending by global path index, so the full receipt
//     stream equals a single MonitoringCache drain over the same path
//     table, receipt for receipt, for any shard count and batch slicing.
//
// Threading model.  Two ingest modes share the routing logic:
//   * synchronous — observe()/observe_batch() route and dispatch on the
//     caller's thread (no workers, no queues); useful for tests, tools,
//     and single-core deployments;
//   * threaded — start(P) spawns one worker per shard and one bounded
//     SPSC queue per (producer, shard) pair; up to P producer threads
//     call feed(p, ...) concurrently (each with its own producer index).
//     Determinism of the drained output additionally requires that each
//     path's traffic arrives through one producer, since batches from
//     different producers interleave at the shard arbitrarily.
// Control-plane calls (drain, stats) require the workers to be stopped.
#ifndef VPM_COLLECTOR_SHARDED_COLLECTOR_HPP
#define VPM_COLLECTOR_SHARDED_COLLECTOR_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/spsc_queue.hpp"
#include "net/packet.hpp"
#include "net/prefix.hpp"

namespace vpm::collector {

class ShardedCollector {
 public:
  struct Config {
    /// Per-shard cache configuration (protocol/tuning/hop identity are
    /// identical across shards — sharding must not change the protocol).
    MonitoringCache::Config cache;
    std::size_t shard_count = 1;
    /// Bounded batches per (producer, shard) queue; producers spin-wait
    /// (backpressure) when a queue fills.
    std::size_t queue_capacity = 256;
  };

  /// Partitions `paths` across shards by key hash and builds one
  /// MonitoringCache per non-empty shard.  Path indices reported by
  /// observe()/drain() are GLOBAL indices into `paths`, matching what a
  /// single MonitoringCache over the same span would report.  Throws
  /// std::invalid_argument on zero shards, a zero queue capacity, and
  /// empty/mixed-length/duplicate paths (same validation as
  /// MonitoringCache).
  ShardedCollector(Config cfg, std::span<const net::PrefixPair> paths);
  ~ShardedCollector();

  ShardedCollector(const ShardedCollector&) = delete;
  ShardedCollector& operator=(const ShardedCollector&) = delete;

  // --- shard routing -----------------------------------------------------

  /// The shard a path key routes to: a pure function of (key, shard
  /// count), independent of the path table, so routing never moves a path
  /// when tables are rebuilt or grown.  The mixer is deliberately distinct
  /// from PathClassifier's slot hash — sharing bits would cluster each
  /// shard's keys into every N-th classifier slot.
  [[nodiscard]] static std::size_t shard_of_key(std::uint64_t key,
                                                std::size_t shard_count)
      noexcept {
    // splitmix64 finalizer: full-avalanche 64 -> 64 mix.
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % shard_count);
  }

  /// Routing for one packet (masked header -> key -> shard).
  [[nodiscard]] std::size_t shard_of(const net::PacketHeader& h) const
      noexcept {
    return shard_of_key(key_of(h), shards_.size());
  }
  /// The packet's 64-bit path key under this collector's prefix masks
  /// (one packing definition, shared with the classifier).
  [[nodiscard]] std::uint64_t key_of(const net::PacketHeader& h) const
      noexcept {
    return PathClassifier::key_of(h, src_mask_, dst_mask_);
  }

  // --- synchronous ingest (no workers running) ---------------------------

  /// Route and observe one packet on the caller's thread.  Returns the
  /// GLOBAL path index, or PathClassifier::npos for unknown traffic.
  /// Throws std::logic_error if workers are running.
  std::size_t observe(const net::Packet& p, net::Timestamp when);

  /// Route a batch to the shard caches on the caller's thread.  Same
  /// semantics as MonitoringCache::observe_batch (the empty `when`
  /// overload uses each packet's origin_time).
  void observe_batch(std::span<const net::Packet> packets,
                     std::span<const net::Timestamp> when);
  void observe_batch(std::span<const net::Packet> packets);

  // --- threaded ingest ---------------------------------------------------

  /// Spawn one worker thread per shard and one SPSC queue per
  /// (producer, shard).  Up to `producer_count` threads may then call
  /// feed() concurrently, each with a distinct producer index.
  void start(std::size_t producer_count = 1);

  /// Route `packets` and enqueue one batch per destination shard.  Safe
  /// to call concurrently from different producer indices; a producer
  /// index must not be used by two threads at once (the queues are SPSC).
  /// Blocks (spin/yield) on full queues — bounded-memory backpressure.
  void feed(std::size_t producer, std::span<const net::Packet> packets,
            std::span<const net::Timestamp> when);
  void feed(std::size_t producer, std::span<const net::Packet> packets);

  /// End of a producer's feed sequence.  feed() enqueues every batch before
  /// returning, so nothing is held back; this only checks its arguments
  /// the way feed() does (std::logic_error before start(),
  /// std::out_of_range on a producer index start() did not create).
  void flush(std::size_t producer);

  /// Block until every enqueued batch has been consumed and applied.
  /// (Quiescence barrier for benchmarks and periodic control-plane work;
  /// callers must not feed concurrently while waiting.)
  void wait_idle() const;

  /// Close all queues, let workers drain them, and join.  Idempotent.
  /// The caller must have synchronized with every producer thread first
  /// (joined it, or observed its completion through an acquire/release
  /// channel): close() marks end-of-stream, and a close that does not
  /// happen-after the final push could let a worker conclude
  /// end-of-stream with that push still invisible to it.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }

  // --- control plane (workers must be stopped) ---------------------------

  /// Drain every path in ascending global path index — equal, receipt for
  /// receipt, to MonitoringCache::drain_all over the same path table — by
  /// walking the path table and handing each path's drain from its owning
  /// shard's cache to `sink`, so the whole 100k-path drain never
  /// materializes.
  /// This is the primary drain API; the vector overload is a VectorSink
  /// adapter over it.  Throws std::logic_error if workers are running.
  void drain(core::ReceiptSink& sink, bool flush_open = false);
  /// Materialized drain: collects the sink stream.
  [[nodiscard]] std::vector<core::IndexedPathDrain> drain(
      bool flush_open = false);

  /// One epoch-lifecycle pass: the same path-table walk as drain(), each
  /// idle path evicted from its owning shard's cache and its final drain
  /// handed to `sink` under its global index (one on_drain per path, as
  /// in drain()), then each shard cache's decay_and_compact().
  /// Evictions, dropped records and decay counts equal a single
  /// MonitoringCache's over the same paths; compactions count once per
  /// shard cache.  Throws std::logic_error if workers are running.
  LifecycleReport run_lifecycle(net::Timestamp now, core::ReceiptSink& sink);

  /// Summed arena accounting across shard caches (workers must be
  /// stopped, like drain).
  [[nodiscard]] std::size_t arena_bytes() const;
  [[nodiscard]] std::size_t arena_live_bytes() const;
  [[nodiscard]] std::size_t arena_garbage_bytes() const;

  // --- stats (workers must be stopped, like drain) -----------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return path_location_.size();
  }
  [[nodiscard]] std::size_t shard_path_count(std::size_t shard) const {
    return shards_.at(shard).global_index.size();
  }
  /// Merged data-plane cost counters across all shards.  Throws
  /// std::logic_error while workers run (the counters are plain per-shard
  /// state; reading them concurrently with workers would race).
  [[nodiscard]] DataPlaneOps ops() const;
  /// Total packets that matched no path, across all shards.  Throws
  /// std::logic_error while workers run.
  [[nodiscard]] std::uint64_t unknown_path_packets() const;
  /// The shard's cache, or nullptr for a shard that owns no paths.  The
  /// returned cache is worker-owned state: do not read it while workers
  /// run.
  [[nodiscard]] const MonitoringCache* shard_cache(std::size_t shard) const {
    return shards_.at(shard).cache.get();
  }

 private:
  /// One routed slice in flight from a producer to a shard worker.
  struct Batch {
    std::vector<net::Packet> packets;
    std::vector<net::Timestamp> when;
  };

  struct Shard {
    /// Null exactly when no path hashes to this shard; unknown traffic
    /// routed here is still counted.
    std::unique_ptr<MonitoringCache> cache;
    /// Shard-local path index -> global path index (ascending).
    std::vector<std::size_t> global_index;
    /// Unknown packets routed to a cache-less shard (cache-ful shards
    /// count their own unknowns).
    std::uint64_t unknown = 0;
  };

  struct PathLocation {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;
  };

  void route_into_staging(std::span<const net::Packet> packets,
                          std::span<const net::Timestamp> when,
                          std::vector<Batch>& staging) const;
  /// Clears (capacity preserved) and returns the synchronous-mode staging
  /// buffer — sync ingest is a hot path and must not allocate per batch.
  std::vector<Batch>& sync_staging();
  /// Shared body of the two synchronous overloads; an empty `when` means
  /// "each packet's origin_time" (mirrors MonitoringCache).
  void observe_batch_impl(std::span<const net::Packet> packets,
                          std::span<const net::Timestamp> when);
  void apply_batch(std::size_t shard_index,
                   std::span<const net::Packet> packets,
                   std::span<const net::Timestamp> when);
  void worker_loop(std::size_t shard);

  std::uint32_t src_mask_ = 0;
  std::uint32_t dst_mask_ = 0;
  std::vector<Shard> shards_;
  std::vector<PathLocation> path_location_;  ///< by global path index
  std::size_t queue_capacity_ = 256;
  /// Reused by synchronous observe_batch (steady state never allocates).
  std::vector<Batch> sync_staging_;

  // Threaded-mode state (empty while not running).
  // queues_[producer][shard]; each queue is SPSC: producer thread
  // `producer` pushes, worker thread `shard` pops.
  std::vector<std::vector<std::unique_ptr<SpscQueue<Batch>>>> queues_;
  std::vector<std::thread> workers_;
  bool running_ = false;
  alignas(64) std::atomic<std::uint64_t> pushed_batches_{0};
  alignas(64) std::atomic<std::uint64_t> processed_batches_{0};
};

}  // namespace vpm::collector

#endif  // VPM_COLLECTOR_SHARDED_COLLECTOR_HPP
