#include "collector/sharded_collector.hpp"

#include <stdexcept>
#include <utility>

namespace vpm::collector {

ShardedCollector::ShardedCollector(Config cfg,
                                   std::span<const net::PrefixPair> paths)
    : queue_capacity_(cfg.queue_capacity) {
  if (cfg.shard_count == 0) {
    throw std::invalid_argument("ShardedCollector: zero shards");
  }
  if (cfg.queue_capacity == 0) {
    throw std::invalid_argument("ShardedCollector: zero queue capacity");
  }
  if (paths.empty()) {
    throw std::invalid_argument("ShardedCollector: no paths");
  }
  // Validate length uniformity globally: per-shard classifiers only see
  // their subset, so a cross-shard mismatch would otherwise slip through.
  const std::uint8_t src_len = paths.front().source.length();
  const std::uint8_t dst_len = paths.front().destination.length();
  for (const net::PrefixPair& p : paths) {
    if (p.source.length() != src_len || p.destination.length() != dst_len) {
      throw std::invalid_argument(
          "ShardedCollector requires uniform prefix lengths");
    }
  }
  src_mask_ = paths.front().source.mask();
  dst_mask_ = paths.front().destination.mask();

  // Partition paths by key hash.  path_location_ maps each global index
  // to its (shard, local) slot: the table drain() and run_lifecycle() walk.
  shards_.resize(cfg.shard_count);
  std::vector<std::vector<net::PrefixPair>> shard_paths(cfg.shard_count);
  path_location_.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::size_t s =
        shard_of_key(PathClassifier::key_of(paths[i]), cfg.shard_count);
    path_location_[i] = PathLocation{
        .shard = static_cast<std::uint32_t>(s),
        .local = static_cast<std::uint32_t>(shard_paths[s].size())};
    shard_paths[s].push_back(paths[i]);
    shards_[s].global_index.push_back(i);
  }
  for (std::size_t s = 0; s < cfg.shard_count; ++s) {
    if (shard_paths[s].empty()) continue;  // cache stays null
    shards_[s].cache =
        std::make_unique<MonitoringCache>(cfg.cache, shard_paths[s]);
  }
}

ShardedCollector::~ShardedCollector() { stop(); }

// --- synchronous ingest ---------------------------------------------------

std::size_t ShardedCollector::observe(const net::Packet& p,
                                      net::Timestamp when) {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: synchronous observe while workers run");
  }
  const std::size_t s = shard_of(p.header);
  Shard& shard = shards_[s];
  if (!shard.cache) {
    ++shard.unknown;
    return PathClassifier::npos;
  }
  const std::size_t local = shard.cache->observe(p, when);
  if (local == PathClassifier::npos) return PathClassifier::npos;
  return shard.global_index[local];
}

void ShardedCollector::route_into_staging(
    std::span<const net::Packet> packets,
    std::span<const net::Timestamp> when,
    std::vector<Batch>& staging) const {
  const bool use_origin_time = when.empty();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    Batch& b = staging[shard_of(packets[i].header)];
    b.packets.push_back(packets[i]);
    b.when.push_back(use_origin_time ? packets[i].origin_time : when[i]);
  }
}

void ShardedCollector::apply_batch(std::size_t shard_index,
                                   std::span<const net::Packet> packets,
                                   std::span<const net::Timestamp> when) {
  Shard& shard = shards_[shard_index];
  if (!shard.cache) {
    shard.unknown += packets.size();
    return;
  }
  shard.cache->observe_batch(packets, when);
}

std::vector<ShardedCollector::Batch>& ShardedCollector::sync_staging() {
  sync_staging_.resize(shards_.size());
  for (Batch& b : sync_staging_) {
    b.packets.clear();  // capacity retained across batches
    b.when.clear();
  }
  return sync_staging_;
}

void ShardedCollector::observe_batch_impl(
    std::span<const net::Packet> packets,
    std::span<const net::Timestamp> when) {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: synchronous observe_batch while workers run");
  }
  if (shards_.size() == 1) {
    // One shard owns every packet: hand it the caller's spans as they are,
    // without copying each packet and its time into staging.
    Shard& shard = shards_.front();
    if (!shard.cache) {
      shard.unknown += packets.size();
    } else if (when.empty()) {
      shard.cache->observe_batch(packets);
    } else {
      shard.cache->observe_batch(packets, when);
    }
    return;
  }
  std::vector<Batch>& staging = sync_staging();
  route_into_staging(packets, when, staging);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    apply_batch(s, staging[s].packets, staging[s].when);
  }
}

void ShardedCollector::observe_batch(std::span<const net::Packet> packets,
                                     std::span<const net::Timestamp> when) {
  if (packets.size() != when.size()) {
    throw std::invalid_argument("observe_batch: packet/timestamp mismatch");
  }
  observe_batch_impl(packets, when);
}

void ShardedCollector::observe_batch(std::span<const net::Packet> packets) {
  observe_batch_impl(packets, {});
}

// --- threaded ingest ------------------------------------------------------

void ShardedCollector::start(std::size_t producer_count) {
  if (running_) {
    throw std::logic_error("ShardedCollector: already started");
  }
  if (producer_count == 0) {
    throw std::invalid_argument("ShardedCollector: zero producers");
  }
  pushed_batches_.store(0, std::memory_order_relaxed);
  processed_batches_.store(0, std::memory_order_relaxed);
  queues_.resize(producer_count);
  for (auto& per_shard : queues_) {
    per_shard.clear();
    per_shard.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      per_shard.push_back(std::make_unique<SpscQueue<Batch>>(queue_capacity_));
    }
  }
  running_ = true;
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ShardedCollector::feed(std::size_t producer,
                            std::span<const net::Packet> packets,
                            std::span<const net::Timestamp> when) {
  if (!running_) {
    throw std::logic_error("ShardedCollector: feed before start");
  }
  if (!when.empty() && packets.size() != when.size()) {
    throw std::invalid_argument("feed: packet/timestamp mismatch");
  }
  auto& queues = queues_.at(producer);  // validates the producer index
  // The batches are moved into the queues (the worker frees them), so a
  // reusable staging pool would need a buffer-return channel; instead
  // pre-size each shard's vectors once to skip the push_back regrowth.
  std::vector<Batch> staging(shards_.size());
  const std::size_t expect = packets.size() / shards_.size() + 16;
  for (Batch& b : staging) {
    b.packets.reserve(expect);
    b.when.reserve(expect);
  }
  route_into_staging(packets, when, staging);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (staging[s].packets.empty()) continue;
    // Count before the push: a worker may consume the batch immediately,
    // and processed must never be observed above pushed.
    pushed_batches_.fetch_add(1, std::memory_order_relaxed);
    queues[s]->push(std::move(staging[s]));
  }
}

void ShardedCollector::feed(std::size_t producer,
                            std::span<const net::Packet> packets) {
  feed(producer, packets, {});
}

void ShardedCollector::flush(std::size_t producer) {
  if (!running_) {
    throw std::logic_error("ShardedCollector: flush before start");
  }
  (void)queues_.at(producer);  // validate the producer index, as feed() does
}

void ShardedCollector::wait_idle() const {
  while (processed_batches_.load(std::memory_order_acquire) !=
         pushed_batches_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void ShardedCollector::worker_loop(std::size_t shard_index) {
  std::vector<SpscQueue<Batch>*> inputs;
  inputs.reserve(queues_.size());
  for (auto& per_shard : queues_) inputs.push_back(per_shard[shard_index].get());

  std::vector<bool> done(inputs.size(), false);
  std::size_t remaining = inputs.size();
  Batch b;
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t q = 0; q < inputs.size(); ++q) {
      if (done[q]) continue;
      // Order matters: load closed BEFORE the pop attempt, so a false
      // "empty" racing a late push can never be mistaken for the end.
      const bool was_closed = inputs[q]->closed();
      if (inputs[q]->try_pop(b)) {
        apply_batch(shard_index, b.packets, b.when);
        processed_batches_.fetch_add(1, std::memory_order_release);
        progress = true;
      } else if (was_closed) {
        done[q] = true;
        --remaining;
      }
    }
    if (!progress && remaining > 0) std::this_thread::yield();
  }
}

void ShardedCollector::stop() {
  if (!running_) return;
  for (auto& per_shard : queues_) {
    for (auto& q : per_shard) q->close();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  queues_.clear();
  running_ = false;
}

// --- control plane --------------------------------------------------------

void ShardedCollector::drain(core::ReceiptSink& sink, bool flush_open) {
  if (running_) {
    throw std::logic_error("ShardedCollector: drain while workers run");
  }
  // Walk the path table in ascending GLOBAL order: each path drains from
  // its owning shard's cache, one path resident at a time.
  for (std::size_t g = 0; g < path_location_.size(); ++g) {
    const PathLocation loc = path_location_[g];
    sink.on_drain(g, shards_[loc.shard].cache->drain_path(loc.local,
                                                           flush_open));
  }
}

std::vector<core::IndexedPathDrain> ShardedCollector::drain(bool flush_open) {
  core::VectorSink sink;
  drain(sink, flush_open);
  return std::move(sink).take();
}

LifecycleReport ShardedCollector::run_lifecycle(net::Timestamp now,
                                                core::ReceiptSink& sink) {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: run_lifecycle while workers run");
  }
  LifecycleReport report;
  // Per-path eviction in ascending GLOBAL order (the drain-order
  // contract), interleaving across shards.
  for (std::size_t g = 0; g < path_location_.size(); ++g) {
    const PathLocation loc = path_location_[g];
    if (std::optional<core::PathDrain> d =
            shards_[loc.shard].cache->evict_path_if_idle(loc.local, now,
                                                         report)) {
      sink.on_drain(g, std::move(*d));
    }
  }
  for (Shard& shard : shards_) {
    if (shard.cache) shard.cache->decay_and_compact(report);
  }
  return report;
}

std::size_t ShardedCollector::arena_bytes() const {
  if (running_) {
    throw std::logic_error("ShardedCollector: arena_bytes while workers run");
  }
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    if (s.cache) total += s.cache->state().arena_bytes();
  }
  return total;
}

std::size_t ShardedCollector::arena_live_bytes() const {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: arena_live_bytes while workers run");
  }
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    if (s.cache) total += s.cache->arena_live_bytes();
  }
  return total;
}

std::size_t ShardedCollector::arena_garbage_bytes() const {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: arena_garbage_bytes while workers run");
  }
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    if (s.cache) total += s.cache->arena_garbage_bytes();
  }
  return total;
}

DataPlaneOps ShardedCollector::ops() const {
  if (running_) {
    throw std::logic_error("ShardedCollector: ops() while workers run");
  }
  DataPlaneOps total;
  for (const Shard& s : shards_) {
    if (s.cache) total += s.cache->ops();
  }
  return total;
}

std::uint64_t ShardedCollector::unknown_path_packets() const {
  if (running_) {
    throw std::logic_error(
        "ShardedCollector: unknown_path_packets() while workers run");
  }
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.unknown;
    if (s.cache) total += s.cache->unknown_path_packets();
  }
  return total;
}

}  // namespace vpm::collector
