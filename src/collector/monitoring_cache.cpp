#include "collector/monitoring_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "collector/classify_batch.hpp"
#include "net/simd_dispatch.hpp"

namespace vpm::collector {

PathClassifier::PathClassifier(std::span<const net::PrefixPair> paths) {
  if (paths.empty()) {
    throw std::invalid_argument("PathClassifier: no paths");
  }
  // Cap so bit_ceil(2 * paths) <= 2^32: slot indices then fit the uint32
  // chunk arrays of classify_batch (equivalently shift_ >= 32, which the
  // AVX2 phase-A kernel relies on to pack its 64-bit lanes).
  if (paths.size() > (std::size_t{1} << 31)) {
    throw std::invalid_argument("PathClassifier: too many paths");
  }
  const std::uint8_t src_len = paths.front().source.length();
  const std::uint8_t dst_len = paths.front().destination.length();
  src_mask_ = paths.front().source.mask();
  dst_mask_ = paths.front().destination.mask();
  paths_ = paths.size();

  // Size the table once: smallest power of two holding the paths at load
  // factor <= 0.5, so probe chains stay short and insertion never rehashes.
  const std::size_t slots = std::bit_ceil(paths.size() * 2);
  slots_.resize(slots);
  mask_ = slots - 1;
  shift_ = static_cast<std::uint32_t>(64 - std::bit_width(mask_));

  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].source.length() != src_len ||
        paths[i].destination.length() != dst_len) {
      throw std::invalid_argument(
          "PathClassifier requires uniform prefix lengths");
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(paths[i].source.network().value()) << 32) |
        paths[i].destination.network().value();
    std::size_t s = slot_of(key);
    while (slots_[s].index != kEmpty) {
      if (slots_[s].key == key) {
        throw std::invalid_argument("duplicate prefix pair in path table");
      }
      s = (s + 1) & mask_;
    }
    slots_[s] = Slot{.key = key, .index = static_cast<std::uint32_t>(i)};
  }
}

void PathClassifier::hash_slots_batch(const net::Packet* pkts, std::size_t n,
                                      std::uint64_t* keys,
                                      std::uint32_t* slots) const noexcept {
  static const detail::HashSlotsFn avx2 = detail::hash_slots_avx2();
  const detail::ClassifyHashParams cp{
      .src_mask = src_mask_, .dst_mask = dst_mask_, .shift = shift_};
  if (avx2 != nullptr && n >= 8 &&
      net::simd::active_tier() == net::simd::Tier::kAvx2) {
    avx2(cp, pkts, n, keys, slots);
  } else {
    detail::hash_slots_scalar(cp, pkts, n, keys, slots);
  }
  // Kick off every probe's first line before any probe blocks on one.
  for (std::size_t i = 0; i < n; ++i) {
    __builtin_prefetch(&slots_[slots[i]], /*rw=*/0);
  }
}

void PathClassifier::resolve_batch(const std::uint64_t* keys,
                                   const std::uint32_t* slots, std::size_t n,
                                   std::uint32_t* out) const noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = keys[i];
    std::size_t s = slots[i];
    std::uint32_t r = kNoPath;
    while (slots_[s].index != kEmpty) {
      if (slots_[s].key == key) {
        r = slots_[s].index;
        break;
      }
      s = (s + 1) & mask_;
    }
    out[i] = r;
  }
}

void PathClassifier::classify_batch(const net::Packet* pkts, std::size_t n,
                                    std::uint32_t* out) const noexcept {
  constexpr std::size_t kSpan = 64;
  std::uint64_t keys[kSpan];
  std::uint32_t first[kSpan];
  for (std::size_t base = 0; base < n; base += kSpan) {
    const std::size_t m = std::min(kSpan, n - base);
    hash_slots_batch(pkts + base, m, keys, first);
    resolve_batch(keys, first, m, out + base);
  }
}

namespace {

void validate_lifecycle(const LifecycleConfig& cfg) {
  if (cfg.idle_ttl < net::Duration{0}) {
    throw std::invalid_argument(
        "LifecycleConfig: idle_ttl must not be negative (0 disables "
        "eviction)");
  }
  // NaN fails both comparisons' complements, so spell the valid range out.
  if (!(cfg.compact_garbage_fraction >= 0.0 &&
        cfg.compact_garbage_fraction <= 1.0)) {
    throw std::invalid_argument(
        "LifecycleConfig: compact_garbage_fraction must lie in [0, 1]");
  }
}

core::PathParams params_for(const MonitoringCache::Config& cfg) {
  // sample_threshold_for validates the tuning (throws on infeasible
  // rates), exactly as the per-path monitor constructor used to.
  return core::PathParams{
      .marker_threshold = cfg.protocol.marker_threshold(),
      .sample_threshold =
          core::sample_threshold_for(cfg.protocol, cfg.tuning.sample_rate),
      .cut_threshold = core::cut_threshold_for(cfg.tuning.cut_rate),
      .j_window = cfg.protocol.reorder_window_j,
      .marker_max_age = cfg.protocol.marker_max_age,
  };
}

}  // namespace

std::vector<net::PathId> path_table(const MonitoringCache::Config& cfg,
                                    std::span<const net::PrefixPair> paths) {
  std::vector<net::PathId> out;
  out.reserve(paths.size());
  for (const net::PrefixPair& pair : paths) {
    out.push_back(net::PathId{
        .header_spec_id = cfg.protocol.header_spec.id(),
        .prefixes = pair,
        .previous_hop = cfg.previous_hop,
        .next_hop = cfg.next_hop,
        .max_diff = cfg.max_diff,
    });
  }
  return out;
}

MonitoringCache::MonitoringCache(Config cfg,
                                 std::span<const net::PrefixPair> paths)
    : classifier_(paths),
      engine_(cfg.protocol.make_engine()),
      state_(params_for(cfg), paths.size()),
      path_ids_(path_table(cfg, paths)),
      lifecycle_(cfg.lifecycle) {
  validate_lifecycle(lifecycle_);
}

std::size_t MonitoringCache::observe(const net::Packet& p,
                                     net::Timestamp when) {
  const std::size_t path = classifier_.classify(p.header);
  if (path == PathClassifier::npos) {
    ++unknown_;
    return path;
  }
  // One hash per packet: decide() feeds both sampler and aggregator.
  const net::PacketDecisions d = engine_.decide(p);
  const std::size_t swept = core::path_observe(state_, path, d, when);
  // §7.1 cost model: look up PathID, update PktCnt, store the
  // digest/timestamp record = 3 accesses; 1 digest; 1 timestamp; plus the
  // deferred sweep accesses when the packet was a marker.
  ops_.memory_accesses += 3;
  ops_.hash_computations += 1;
  ops_.timestamp_reads += 1;
  ops_.marker_sweep_accesses += swept;
  sync_kernel_counters();
  return path;
}

void MonitoringCache::sync_kernel_counters() noexcept {
  // The sweep kernels count invocations on the SoA block; mirror the
  // absolute values into the DataPlaneOps snapshot.  Assignment, not +=,
  // so per-shard ops still merge correctly by addition.
  ops_.sweep_kernel_scalar = state_.sweep_kernels.scalar;
  ops_.sweep_kernel_avx2 = state_.sweep_kernels.avx2;
}

void MonitoringCache::observe_batch_impl(std::span<const net::Packet> packets,
                                         std::span<const net::Timestamp> when) {
  // Explicit empty-batch no-op: a drained ingest queue or an all-unknown
  // slice routinely produces empty batches, and they must not perturb
  // counters or touch monitor storage.
  if (packets.empty()) return;
  // Tight loop: counters stay in registers and flush once at the end.
  const bool use_origin_time = when.empty();
  std::uint64_t unknown = 0;
  std::uint64_t observed = 0;
  std::uint64_t swept = 0;

  // Chunked SIMD pipeline, software-pipelined two chunks deep.  While the
  // kernel pass for chunk k runs, chunk k+1's decisions and prefetches are
  // already issued and chunk k+2's classifier probe lines are in flight:
  //   1. hash_slots_batch for chunk k+2 — SIMD multiply-hash plus a
  //      prefetch of every probe's first classifier line, issued a whole
  //      chunk before those probes run;
  //   2. resolve_batch for chunk k+1 against lines prefetched one chunk
  //      ago (the open-addressing probes hit warm lines);
  //   3. a compaction pass collecting chunk k+1's known-path packets,
  //      issuing a prefetch for each path's PathSlot line;
  //   4. decide_batch — the 8-wide lookup3 digest of exactly the known
  //      packets (the §7.1 accounting: unknown packets are never hashed),
  //      whose compute overlaps the slot prefetch latency;
  //   5. above ~4k paths, a prefetch walk over the now-warm slots for the
  //      arena lines the kernel will touch (below, path state fits in L2
  //      and the extra prefetch pass costs more than it hides);
  //   6. the scalar per-packet kernel pass for chunk k — a full chunk of
  //      classifier/digest compute after its arena prefetches were issued,
  //      so the random arena lines have had time to arrive.  (A path
  //      repeating across adjacent chunks can make step 5's addresses
  //      stale — that only mis-aims a prefetch, never the kernel.)
  constexpr std::size_t kStagedThreshold = 4096;
  constexpr std::size_t kChunk = 64;
  const bool staged = state_.path_count() > kStagedThreshold;
  std::uint64_t keys_a[kChunk], keys_b[kChunk];
  std::uint32_t slot_a[kChunk], slot_b[kChunk];
  std::uint64_t* keys_cur = keys_a;
  std::uint64_t* keys_next = keys_b;
  std::uint32_t* slot_cur = slot_a;
  std::uint32_t* slot_next = slot_b;
  std::uint32_t path_a[kChunk], path_b[kChunk];
  std::uint32_t known_a[kChunk], known_b[kChunk];
  net::PacketDecisions dec_a[kChunk], dec_b[kChunk];
  std::uint32_t* path_cur = path_a;
  std::uint32_t* path_prev = path_b;
  std::uint32_t* known_cur = known_a;
  std::uint32_t* known_prev = known_b;
  net::PacketDecisions* dec_cur = dec_a;
  net::PacketDecisions* dec_prev = dec_b;
  std::size_t m_prev = 0;
  std::size_t base_prev = 0;
  bool have_prev = false;
  {
    const std::size_t n0 = std::min(kChunk, packets.size());
    classifier_.hash_slots_batch(packets.data(), n0, keys_cur, slot_cur);
  }
  const core::PathSlot* slots = state_.slots.data();
  const auto kernel_pass = [&](std::size_t base, const std::uint32_t* path_of,
                               const std::uint32_t* known,
                               const net::PacketDecisions* dec,
                               std::size_t m) {
    const net::Packet* p = packets.data() + base;
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = known[j];
      swept += core::path_observe(
          state_, path_of[i], dec[j],
          use_origin_time ? p[i].origin_time : when[base + i]);
    }
    observed += m;
  };
  for (std::size_t base = 0; base < packets.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, packets.size() - base);
    const net::Packet* p = packets.data() + base;

    const std::size_t next = base + kChunk;
    if (next < packets.size()) {
      classifier_.hash_slots_batch(packets.data() + next,
                                   std::min(kChunk, packets.size() - next),
                                   keys_next, slot_next);
    }
    classifier_.resolve_batch(keys_cur, slot_cur, n, path_cur);
    std::swap(keys_cur, keys_next);
    std::swap(slot_cur, slot_next);

    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (path_cur[i] == PathClassifier::kNoPath) {
        ++unknown;
        continue;
      }
      known_cur[m++] = static_cast<std::uint32_t>(i);
      if (staged) __builtin_prefetch(&slots[path_cur[i]], /*rw=*/1);
    }

    engine_.decide_batch(p, known_cur, m, dec_cur);

    if (staged) {
      const core::TimedDigest* buf = state_.buf_arena.data();
      const core::TimedDigest* ring = state_.ring_arena.data();
      const std::int64_t max_age_ns =
          state_.params.marker_max_age.nanoseconds();
      const std::uint32_t marker_thr = state_.params.marker_threshold;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = known_cur[j];
        const core::PathSlot& sl = slots[path_cur[i]];
        if (sl.warm.buf_cap != 0) {
          __builtin_prefetch(buf + sl.warm.buf_begin + sl.hot.buf_size, 1);
          // Slice head: the time-keyed marker rule reads buf[0] every
          // packet, and sweeps walk the slice from the front.
          __builtin_prefetch(buf + sl.warm.buf_begin, 0);
          // Sweep-imminent: this packet sweeps the whole slice when its
          // digest already decided it is a marker (dec_cur is computed a
          // chunk ahead of the kernel pass), or when even the NEWEST
          // buffered record (stamped last_at_ns or later) has outlived
          // marker_max_age — pull in the middle lines the two end
          // prefetches above don't cover, so the 8-wide sweep kernel
          // streams warm lines.
          if (sl.hot.buf_size > 8) {
            bool sweeps = dec_cur[j].marker_value > marker_thr;
            if (!sweeps && max_age_ns > 0) {
              const std::int64_t now_ns =
                  (use_origin_time ? p[i].origin_time : when[base + i])
                      .nanoseconds();
              sweeps = now_ns - sl.hot.last_at_ns >= max_age_ns;
            }
            if (sweeps) {
              constexpr std::size_t kPerLine =
                  64 / sizeof(core::TimedDigest);
              for (std::size_t r = kPerLine; r < sl.hot.buf_size;
                   r += kPerLine) {
                __builtin_prefetch(buf + sl.warm.buf_begin + r, 0);
              }
            }
          }
        }
        if (sl.warm.ring_cap != 0) {
          const std::uint32_t mask = sl.warm.ring_cap - 1;
          __builtin_prefetch(
              ring + sl.warm.ring_begin +
                  ((sl.hot.ring_head + sl.hot.ring_size) & mask),
              1);
          // Ring head: the J-window eviction loop reads the oldest entry,
          // which sits a window's worth of records behind the append line.
          __builtin_prefetch(
              ring + sl.warm.ring_begin + (sl.hot.ring_head & mask), 0);
        }
      }
    }

    if (have_prev) {
      kernel_pass(base_prev, path_prev, known_prev, dec_prev, m_prev);
    }
    std::swap(path_cur, path_prev);
    std::swap(known_cur, known_prev);
    std::swap(dec_cur, dec_prev);
    m_prev = m;
    base_prev = base;
    have_prev = true;
  }
  if (have_prev) {
    kernel_pass(base_prev, path_prev, known_prev, dec_prev, m_prev);
  }
  unknown_ += unknown;
  ops_.memory_accesses += observed * 3;
  ops_.hash_computations += observed;
  ops_.timestamp_reads += observed;
  ops_.marker_sweep_accesses += swept;
  sync_kernel_counters();
}

void MonitoringCache::observe_batch(std::span<const net::Packet> packets,
                                    std::span<const net::Timestamp> when) {
  if (packets.size() != when.size()) {
    throw std::invalid_argument("observe_batch: packet/timestamp mismatch");
  }
  observe_batch_impl(packets, when);
}

void MonitoringCache::observe_batch(std::span<const net::Packet> packets) {
  observe_batch_impl(packets, {});
}

core::PathDrain MonitoringCache::drain_path(std::size_t path,
                                            bool flush_open) {
  return core::path_drain(state_, path, path_ids_.at(path), flush_open);
}

void MonitoringCache::drain_all(core::ReceiptSink& sink, bool flush_open) {
  for (std::size_t p = 0; p < state_.path_count(); ++p) {
    sink.on_drain(p, drain_path(p, flush_open));
  }
}

std::vector<core::IndexedPathDrain> MonitoringCache::drain_all(
    bool flush_open) {
  core::VectorSink sink;
  drain_all(sink, flush_open);
  return std::move(sink).take();
}

std::optional<core::PathDrain> MonitoringCache::evict_path_if_idle(
    std::size_t path, net::Timestamp now, LifecycleReport& report) {
  if (lifecycle_.idle_ttl == net::Duration{0}) return std::nullopt;
  if (!state_.path_has_state(path)) return std::nullopt;
  // last_at_ns is written by every observed packet (the fused kernel runs
  // the aggregator for each packet), so it is the path's last-activity
  // time; path_has_state guards the never-observed zero.
  const net::Timestamp last{state_.slots[path].hot.last_at_ns};
  if (now - last < lifecycle_.idle_ttl) return std::nullopt;

  // Drain through the normal receipt path first — nothing decided is
  // lost.  A path with no receipts to disclose ships nothing: an empty
  // drain would still ship as a 2 B path-index entry, decode to an empty
  // drain and reach a round-fed verifier as one more round for that path,
  // advancing its HopState::rounds and ageing retention early.
  core::PathDrain drain = drain_path(path, /*flush_open=*/true);
  const std::size_t dropped = core::path_evict(state_, path);
  ++report.evicted_paths;
  report.dropped_buffered_records += dropped;
  ++lifecycle_totals_.evicted_paths;
  lifecycle_totals_.dropped_buffered_records += dropped;
  if (drain.samples.samples.empty() && drain.aggregates.empty()) {
    return std::nullopt;
  }
  return drain;
}

MonitoringCache::DecayResult MonitoringCache::run_decay_pass() {
  DecayResult r;
  if (lifecycle_.decay_low_occupancy_drains == 0) return r;
  for (std::size_t p = 0; p < state_.path_count(); ++p) {
    const core::PathDecay d =
        core::path_decay(state_, p, lifecycle_.decay_low_occupancy_drains);
    r.halved_slices += d.halved_slices;
    r.released_bytes += d.released_bytes;
    r.halved_emitted += d.halved_emitted;
    r.released_emitted_bytes += d.released_emitted_bytes;
  }
  lifecycle_totals_.decayed_slices += r.halved_slices;
  lifecycle_totals_.decayed_arena_bytes += r.released_bytes;
  lifecycle_totals_.decayed_emitted_vectors += r.halved_emitted;
  lifecycle_totals_.decayed_emitted_bytes += r.released_emitted_bytes;
  return r;
}

bool MonitoringCache::compaction_due() const noexcept {
  const std::size_t total = state_.arena_bytes();
  if (total == 0) return false;
  const std::size_t garbage = state_.arena_garbage_bytes();
  return static_cast<double>(garbage) >
         lifecycle_.compact_garbage_fraction * static_cast<double>(total);
}

std::size_t MonitoringCache::compact_arenas() {
  const std::size_t reclaimed = core::path_state_compact(state_);
  ++lifecycle_totals_.compactions;
  lifecycle_totals_.reclaimed_arena_bytes += reclaimed;
  return reclaimed;
}

void MonitoringCache::decay_and_compact(LifecycleReport& report) {
  const DecayResult d = run_decay_pass();
  report.decayed_slices += d.halved_slices;
  report.decayed_arena_bytes += d.released_bytes;
  report.decayed_emitted_vectors += d.halved_emitted;
  report.decayed_emitted_bytes += d.released_emitted_bytes;
  if (compaction_due()) {
    report.reclaimed_arena_bytes += compact_arenas();
    ++report.compactions;
  }
}

LifecycleReport MonitoringCache::run_lifecycle(net::Timestamp now,
                                               core::ReceiptSink& sink) {
  LifecycleReport report;
  if (lifecycle_.idle_ttl != net::Duration{0}) {
    for (std::size_t p = 0; p < state_.path_count(); ++p) {
      if (std::optional<core::PathDrain> d =
              evict_path_if_idle(p, now, report)) {
        sink.on_drain(p, std::move(*d));
      }
    }
  }
  decay_and_compact(report);
  return report;
}

std::size_t MonitoringCache::modeled_cache_bytes() const noexcept {
  return state_.hot_bytes();
}

std::size_t MonitoringCache::temp_buffer_peak_records() const noexcept {
  return state_.buffer_peak_records();
}

std::size_t MonitoringCache::emitted_peak_records() const noexcept {
  return state_.emitted_peak_records();
}

}  // namespace vpm::collector
