// The collector module's multi-path monitoring cache (Section 7.1).
//
// "The collector module maintains state for each 'active path', i.e., each
// source-destination origin-prefix pair that is currently sending traffic
// through the specific HOP; this per-path state consists at least of one
// 'open' aggregate receipt (a PathID, AggID, and PktCnt — roughly 20
// bytes)."
//
// This owns structure-of-arrays per-path state behind a prefix-pair
// classifier and accounts for the memory a hardware implementation would
// need, which the overhead bench reports against the paper's 2 MB /
// 100 k-path figure.
//
// Data-plane fast path.  The per-packet step is classify -> digest ->
// dispatch, engineered to the paper's §7.1 budget of three memory
// accesses, ONE hash function and one timestamp computation per packet:
//   * PathClassifier is a preallocated open-addressing flat table
//     (power-of-two size, linear probing) — one multiply-hash plus a
//     short contiguous probe, no std::unordered_map node chasing;
//   * the packet is hashed exactly once (DigestEngine::decide) and the
//     resulting PacketDecisions feed both the sampler and the aggregator
//     kernels;
//   * per-path state is structure-of-arrays (core/path_state.hpp): the
//     fields every packet touches live in one contiguous 32-byte PathHot
//     record per path — the cache holds ONE digest engine and ONE
//     threshold set instead of the pre-SoA three engine copies and
//     per-path threshold duplicates inside 100k heap-allocated monitors;
//   * observe_batch() runs the loop over a span of packets, keeping the
//     cost counters in registers and amortizing per-call overhead.
// DataPlaneOps tracks the budget; hash_computations == observed packets
// by construction, with marker-sweep work accounted separately.
#ifndef VPM_COLLECTOR_MONITORING_CACHE_HPP
#define VPM_COLLECTOR_MONITORING_CACHE_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/path_state.hpp"
#include "core/receipt.hpp"
#include "core/receipt_sink.hpp"
#include "net/packet.hpp"
#include "net/path_id.hpp"
#include "net/prefix.hpp"

namespace vpm::collector {

/// Classifies packets to path indices by masking src/dst addresses to a
/// fixed prefix length and looking the pair up in a preallocated
/// open-addressing flat table (power-of-two capacity, linear probing,
/// load factor <= 0.5).  (A production router would use its FIB;
/// uniform-length origin prefixes keep this a single multiply-hash plus a
/// short linear probe per packet.)
class PathClassifier {
 public:
  /// All pairs must use the same prefix lengths.  The table is sized once
  /// at construction (no rehashing later).  Throws std::invalid_argument
  /// on empty input, mixed lengths, or a duplicate prefix pair (which
  /// would otherwise silently shadow one path's state).
  explicit PathClassifier(std::span<const net::PrefixPair> paths);

  /// The 64-bit path key of a packet: masked source address in the high
  /// word, masked destination in the low word.  This is the identity the
  /// table stores and the identity a sharded collector routes by — both
  /// must agree, so the ONE packing definition lives here (the sharded
  /// collector calls the static overload with its own masks).
  [[nodiscard]] static std::uint64_t key_of(const net::PacketHeader& h,
                                            std::uint32_t src_mask,
                                            std::uint32_t dst_mask)
      noexcept {
    return (static_cast<std::uint64_t>(h.src.value() & src_mask) << 32) |
           (h.dst.value() & dst_mask);
  }
  [[nodiscard]] std::uint64_t key_of(const net::PacketHeader& h) const
      noexcept {
    return key_of(h, src_mask_, dst_mask_);
  }
  /// The same key computed from a path's prefix pair.
  [[nodiscard]] static std::uint64_t key_of(const net::PrefixPair& p)
      noexcept {
    return (static_cast<std::uint64_t>(p.source.network().value()) << 32) |
           p.destination.network().value();
  }

  /// Path index for this packet, or npos if it matches no known path.
  [[nodiscard]] std::size_t classify(const net::PacketHeader& h) const
      noexcept {
    const std::uint64_t key = key_of(h);
    std::size_t i = slot_of(key);
    while (slots_[i].index != kEmpty) {
      if (slots_[i].key == key) return slots_[i].index;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// 32-bit "no path" sentinel for the batch form (classify_batch packs
  /// indices into uint32 chunk arrays; valid indices are < path_count()
  /// which the constructor caps below 2^31).
  static constexpr std::uint32_t kNoPath = 0xFFFFFFFFu;

  /// Batch classify over a chunk: out[i] = classify(pkts[i].header), or
  /// kNoPath when unknown.  Phase A (key packing + multiply-hash to the
  /// first slot index) runs through the SIMD dispatch shim and prefetches
  /// every probe's first classifier line; phase B probes against the
  /// now-overlapping loads.  Identical results to classify() per packet.
  void classify_batch(const net::Packet* pkts, std::size_t n,
                      std::uint32_t* out) const noexcept;

  /// Phase A alone: keys[i]/slots[i] = key and first slot index of
  /// pkts[i], each probe's first classifier line prefetched.  Callers
  /// that software-pipeline chunks hash chunk k+1 before resolving chunk
  /// k, giving the prefetches a whole chunk of processing to land.
  void hash_slots_batch(const net::Packet* pkts, std::size_t n,
                        std::uint64_t* keys,
                        std::uint32_t* slots) const noexcept;
  /// Phase B alone: out[i] = path index for keys[i] starting the probe at
  /// slots[i] (kNoPath when unknown).  Inputs must come from
  /// hash_slots_batch over the same packets.
  void resolve_batch(const std::uint64_t* keys, const std::uint32_t* slots,
                     std::size_t n, std::uint32_t* out) const noexcept;

  [[nodiscard]] std::size_t path_count() const noexcept { return paths_; }
  /// Allocated slots (>= 2x path_count, for the probe-length bound).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t index = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    // Fibonacci hashing: the golden-ratio multiply diffuses the masked
    // address bits; the TOP table_bits of the product index the
    // power-of-two table.  (Top bits, not middle: product bit j only
    // depends on key bits <= j, so an index drawn from bits 32..47 is
    // blind to the high src-prefix bits and paths like 10.x/16 -> same
    // dst would all share one probe chain.)
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::uint32_t src_mask_ = 0;
  std::uint32_t dst_mask_ = 0;
  std::size_t mask_ = 0;   ///< slots_.size() - 1
  std::uint32_t shift_ = 63;  ///< 64 - log2(slots_.size())
  std::size_t paths_ = 0;
  std::vector<Slot> slots_;
};

/// Per-packet data-plane cost counters (the §7.1 processing claim: three
/// memory accesses, one hash, one timestamp per packet, plus one more
/// access per buffered record at marker sweeps).
struct DataPlaneOps {
  std::uint64_t memory_accesses = 0;
  std::uint64_t hash_computations = 0;
  std::uint64_t timestamp_reads = 0;
  /// Temp-buffer records evaluated at marker sweeps (the deferred
  /// per-packet access the paper folds into "one more memory access").
  std::uint64_t marker_sweep_accesses = 0;
  /// Marker-sweep kernel invocations by SIMD tier (one per marker that
  /// swept a non-empty buffer; mirrors PathStateSoA::sweep_kernels so the
  /// §7.1 report can show which tier the protocol kernels actually ran).
  std::uint64_t sweep_kernel_scalar = 0;
  std::uint64_t sweep_kernel_avx2 = 0;

  /// Counters are plain per-packet sums, so per-shard instances merge by
  /// addition (the sharded collector reports one fused DataPlaneOps).
  DataPlaneOps& operator+=(const DataPlaneOps& o) noexcept {
    memory_accesses += o.memory_accesses;
    hash_computations += o.hash_computations;
    timestamp_reads += o.timestamp_reads;
    marker_sweep_accesses += o.marker_sweep_accesses;
    sweep_kernel_scalar += o.sweep_kernel_scalar;
    sweep_kernel_avx2 += o.sweep_kernel_avx2;
    return *this;
  }
};

/// Epoch-lifecycle knobs: how a long-running cache retires state at
/// control-plane passes (ROADMAP "arena compaction / eviction").
/// Validated at MonitoringCache construction.
struct LifecycleConfig {
  /// Evict paths whose last observed packet is at least `idle_ttl` before
  /// the lifecycle pass's `now`.  Eviction drains the path's receipts
  /// through the normal ReceiptSink path first (flush_open), then releases
  /// its arena slices and receipt capacity — monitoring restarts from
  /// scratch if the path revives.  Must be positive when `evict_idle`.
  bool evict_idle = false;
  net::Duration idle_ttl{0};
  /// Compact the arenas at a lifecycle pass when garbage exceeds this
  /// fraction of total arena bytes.  Must lie in [0, 1] — a watermark
  /// above capacity could never fire.
  double compact_garbage_fraction = 0.5;
  /// Live-capacity decay (core::path_decay): halve a live path's
  /// temp-buffer / J-ring slice once its occupancy has stayed below a
  /// quarter of capacity for this many consecutive lifecycle passes,
  /// flooring at the initial slice sizes.  The released half is arena
  /// garbage for the same pass's compaction check — a traffic spike's
  /// capacity ratchet decays back instead of pinning the memory plateau
  /// at the spike level.  0 disables (the default).
  std::uint32_t decay_low_occupancy_drains = 0;
};

/// What one lifecycle pass did (per-shard reports merge by addition).
struct LifecycleReport {
  std::size_t evicted_paths = 0;
  /// Temp-buffer records discarded undecided by evictions.
  std::size_t dropped_buffered_records = 0;
  std::size_t compactions = 0;
  std::size_t reclaimed_arena_bytes = 0;
  /// Live-capacity decay: slices halved and the live-capacity bytes they
  /// released to garbage.
  std::size_t decayed_slices = 0;
  std::size_t decayed_arena_bytes = 0;
  /// Emitted-sample capacity decay (heap freed directly, not arena
  /// garbage — drains retain emitted capacity since PR 10).
  std::size_t decayed_emitted_vectors = 0;
  std::size_t decayed_emitted_bytes = 0;

  LifecycleReport& operator+=(const LifecycleReport& o) noexcept {
    evicted_paths += o.evicted_paths;
    dropped_buffered_records += o.dropped_buffered_records;
    compactions += o.compactions;
    reclaimed_arena_bytes += o.reclaimed_arena_bytes;
    decayed_slices += o.decayed_slices;
    decayed_arena_bytes += o.decayed_arena_bytes;
    decayed_emitted_vectors += o.decayed_emitted_vectors;
    decayed_emitted_bytes += o.decayed_emitted_bytes;
    return *this;
  }
  friend bool operator==(const LifecycleReport&,
                         const LifecycleReport&) = default;
};

/// One HOP's full collector: classifier + per-path monitors + accounting.
class MonitoringCache {
 public:
  struct Config {
    core::ProtocolParams protocol;
    core::HopTuning tuning;  ///< same local tuning for every path
    net::HopId self = net::kNoHop;
    net::HopId previous_hop = net::kNoHop;
    net::HopId next_hop = net::kNoHop;
    net::Duration max_diff = net::milliseconds(5);
    LifecycleConfig lifecycle;
  };

  /// Creates per-path state for every path upfront (paths are learned from
  /// routing, not data).  Throws on classifier/config errors.
  MonitoringCache(Config cfg, std::span<const net::PrefixPair> paths);

  /// Data-plane step: classify, digest once, update.  Unknown-path packets
  /// are counted and otherwise ignored (and not hashed).  Returns the path
  /// index or npos.
  std::size_t observe(const net::Packet& p, net::Timestamp when);

  /// Batch data-plane step: classify, digest and dispatch each packet in
  /// one tight loop, amortizing per-call overhead.  `when[i]` is the local
  /// observation time of `packets[i]`.
  void observe_batch(std::span<const net::Packet> packets,
                     std::span<const net::Timestamp> when);
  /// Trace-replay convenience: observes each packet at its origin_time
  /// (the local clock of the first HOP in a simulated run).
  void observe_batch(std::span<const net::Packet> packets);

  /// Control-plane drain for one path.
  [[nodiscard]] core::SampleReceipt collect_samples(std::size_t path);
  [[nodiscard]] std::vector<core::AggregateReceipt> collect_aggregates(
      std::size_t path, bool flush_open = false);
  /// Drain one path's samples + aggregates as a unit.
  [[nodiscard]] core::PathDrain drain_path(std::size_t path,
                                           bool flush_open = false);
  /// Drain every path in index order (the canonical global receipt-stream
  /// order; a sharded collector emits the same order by walking its path
  /// table), streaming each path into `sink` as it drains — constant
  /// memory in the path count.  This is the primary drain API; the vector
  /// overload below is a VectorSink adapter over it.
  void drain_all(core::ReceiptSink& sink, bool flush_open = false);
  /// Materialized drain: collects the sink stream.
  [[nodiscard]] std::vector<core::IndexedPathDrain> drain_all(
      bool flush_open = false);

  // --- epoch lifecycle (control plane, alongside drains) ------------------

  /// One lifecycle pass at local time `now`: evict paths idle beyond the
  /// configured TTL (each hands its final drain, open aggregate flushed,
  /// to `sink` first, in ascending path order), then
  /// decay_and_compact().  A cache whose lifecycle config disables
  /// eviction still decays and compacts.
  LifecycleReport run_lifecycle(net::Timestamp now, core::ReceiptSink& sink);

  /// Evict `path` now if it holds state and has been idle at least
  /// `idle_ttl` (no-op unless `evict_idle`), counting the eviction and its
  /// dropped temp-buffer records in `report`.  Returns the path's final
  /// flushed drain for the caller to emit under its own path index, or
  /// std::nullopt when nothing was evicted or the evicted path has nothing
  /// to disclose.  Exposed so a sharded collector can interleave per-shard
  /// evictions in global path order.
  std::optional<core::PathDrain> evict_path_if_idle(std::size_t path,
                                                    net::Timestamp now,
                                                    LifecycleReport& report);

  /// The per-cache tail of every lifecycle pass: run_decay_pass(), then
  /// compact_arenas() if compaction_due(), adding both to `report`.
  /// Decay runs first so the halves it releases count as garbage for the
  /// same pass's compaction check.
  void decay_and_compact(LifecycleReport& report);

  /// One live-capacity decay observation for every path
  /// (core::path_decay with the configured streak).  decay_and_compact()
  /// calls this before the compaction check.  No-op when the decay knob
  /// is 0.
  struct DecayResult {
    std::size_t halved_slices = 0;
    std::size_t released_bytes = 0;
    std::size_t halved_emitted = 0;
    std::size_t released_emitted_bytes = 0;
  };
  DecayResult run_decay_pass();

  /// True when arena garbage exceeds the configured watermark fraction.
  [[nodiscard]] bool compaction_due() const noexcept;
  /// Unconditionally compact the arenas; returns bytes reclaimed.
  std::size_t compact_arenas();

  [[nodiscard]] std::size_t path_count() const noexcept {
    return state_.path_count();
  }
  [[nodiscard]] std::uint64_t unknown_path_packets() const noexcept {
    return unknown_;
  }
  [[nodiscard]] const DataPlaneOps& ops() const noexcept { return ops_; }

  /// Arena accounting for the long-running-operation report: bytes any
  /// live slice addresses vs relocation/eviction garbage.
  [[nodiscard]] std::size_t arena_live_bytes() const noexcept {
    return state_.arena_live_bytes();
  }
  [[nodiscard]] std::size_t arena_garbage_bytes() const noexcept {
    return state_.arena_garbage_bytes();
  }
  /// Cumulative lifecycle work over the cache's lifetime.
  [[nodiscard]] const LifecycleReport& lifecycle_totals() const noexcept {
    return lifecycle_totals_;
  }

  /// SRAM footprint of the open-receipt state: the ACTUAL contiguous
  /// hot-array bytes (paths x sizeof(core::PathHot)) — measured from the
  /// layout, not the paper's ~20 B estimate (kOpenReceiptBytes).
  [[nodiscard]] std::size_t modeled_cache_bytes() const noexcept;
  /// High-water mark of the temp buffer across all paths (records).
  [[nodiscard]] std::size_t temp_buffer_peak_records() const noexcept;
  /// Largest undrained-sample backlog any single path has reached
  /// (records) — bounds the emitted capacity a live path retains across
  /// drains (core::PathStateSoA::emitted_peak_records).
  [[nodiscard]] std::size_t emitted_peak_records() const noexcept;

  /// The SoA block itself, for introspection (benchmarks, tests).
  [[nodiscard]] const core::PathStateSoA& state() const noexcept {
    return state_;
  }
  /// One path's §7.1 statistics (markers/swept/cuts/buffer peak; see
  /// core::PathStats for how observed/peaks derive from these).
  [[nodiscard]] const core::PathStats& path_stats(std::size_t path) const {
    return state_.stats.at(path);
  }
  /// The PathId stamped on `path`'s receipts.
  [[nodiscard]] const net::PathId& path_id(std::size_t path) const {
    return path_ids_.at(path);
  }
  [[nodiscard]] const PathClassifier& classifier() const noexcept {
    return classifier_;
  }

 private:
  /// Shared batch loop; an empty `when` means "each packet's origin_time".
  void observe_batch_impl(std::span<const net::Packet> packets,
                          std::span<const net::Timestamp> when);
  /// Mirror the SoA sweep-kernel counters into ops_ (absolute snapshot).
  void sync_kernel_counters() noexcept;

  PathClassifier classifier_;
  net::DigestEngine engine_;
  core::PathStateSoA state_;
  std::vector<net::PathId> path_ids_;
  DataPlaneOps ops_;
  std::uint64_t unknown_ = 0;
  LifecycleConfig lifecycle_;
  LifecycleReport lifecycle_totals_;
};

/// Bytes of open-receipt state per path in a hardware monitoring cache
/// (PathID reference 4 B + AggID 8 B + PktCnt 4 B + open/close times 4 B):
/// the paper rounds the same inventory to "roughly 20 bytes".  The
/// software layout spends sizeof(core::PathHot) == 32 B (full-width
/// timestamps and the buffer/ring cursors) — modeled_cache_bytes()
/// reports that measured figure.
inline constexpr std::size_t kOpenReceiptBytes = 20;
/// Bytes per temp-buffer record: PktID 4 B + Time 3 B (§7.1).
inline constexpr std::size_t kTempRecordBytes = 7;

}  // namespace vpm::collector

#endif  // VPM_COLLECTOR_MONITORING_CACHE_HPP
