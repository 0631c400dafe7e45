// Structure-of-arrays per-path monitoring state and the per-packet kernel.
//
// The paper's §7.1 hardware argument is that per-path collector state is
// "roughly 20 bytes" — an open AggId, PktCnt and a PathID reference — so
// 100k paths fit in ~2 MB of SRAM and each packet costs three memory
// accesses: look up the PathID, update PktCnt, store one <digest, time>
// record.  The software collector lives that arithmetic here: the state
// Algorithms 1 and 2 touch on EVERY packet is packed into one contiguous
// 32-byte `PathHot` record per path (half a cache line), with everything
// else split out by access frequency:
//
//   hot   PathSlot[path].hot   (32 B)  open AggId + PktCnt + last-packet
//                              time + the record log's tail cursor and
//                              its undecided / J-window counts
//   warm  PathSlot[path].warm  (32 B)  log addressing (written only on
//                              slice growth), the oldest undecided
//                              record's time, the open aggregate's
//                              opened_at, the pending-window count and the
//                              J-window high-water mark — co-located with
//                              the hot record so the ENTIRE per-packet
//                              read-modify-write set is one 64-byte line
//   stats PathStats[path]      §7.1 counters touched only at markers/cuts
//   data  log_arena            one power-of-two record-log slice per path
//                              in one shared arena (grow-by-relocation; a
//                              path with no traffic owns no arena bytes)
//   cold  emitted/pending/closed  receipts awaiting a control-plane
//                              drain, as per-path vectors (touched only at
//                              markers, cuts and drains)
//
// Each packet stores its <digest, time> record ONCE, at the tail of its
// path's log.  Algorithm 1's temp buffer (the records no marker has
// decided yet) and Algorithm 2's J window (the records observed within J)
// are two suffixes of that log, counted back from the tail; a record's
// slot is reused once it has left both.
//
// path_observe below is the ONE implementation of the Algorithm 1/2
// per-packet step: MonitoringCache runs it over an N-path block (a
// single-path HOP is a one-path cache).  Receipt streams equal the pre-SoA
// per-object implementation's, receipt for receipt (pinned by
// tests/soa_equivalence_test.cpp).
#ifndef VPM_CORE_PATH_STATE_HPP
#define VPM_CORE_PATH_STATE_HPP

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/time.hpp"

namespace vpm::core {

/// Thresholds shared by every path of one monitoring cache.  ONE copy per
/// cache — the pre-SoA layout duplicated these (plus three DigestEngine
/// copies) into each of 100k per-path monitor objects.
struct PathParams {
  std::uint32_t marker_threshold = 0;  ///< mu (system-wide)
  std::uint32_t sample_threshold = 0;  ///< sigma (local tuning)
  std::uint32_t cut_threshold = 0;     ///< delta (local tuning)
  net::Duration j_window{0};           ///< reorder safety window J
  /// Time-keyed marker rule (see ProtocolParams::marker_max_age): a packet
  /// arriving while the oldest undecided record is at least this old acts
  /// as a forced marker.  0 disables (the paper-faithful default).
  net::Duration marker_max_age{0};
};

/// The state a packet touches on the data-plane fast path, one contiguous
/// record per path.  `agg_count == 0` encodes "no open aggregate" (the
/// pre-SoA std::optional<Open>).  Kept to half a cache line so two paths
/// share a line and a packet's read-modify-write stays within one.
struct PathHot {
  net::PacketDigest agg_first = 0;  ///< open AggId.first
  net::PacketDigest agg_last = 0;   ///< open AggId.last
  std::uint32_t agg_count = 0;      ///< open PktCnt; 0 == no open aggregate
  std::uint32_t log_tail = 0;       ///< next log position (masked)
  /// Records before the tail that no marker has decided yet (Algorithm 1's
  /// temp buffer).
  std::uint32_t undecided = 0;
  /// Records before the tail observed within J (Algorithm 2's window).
  std::uint32_t window = 0;
  std::int64_t last_at_ns = 0;      ///< open aggregate's last-packet time
};
static_assert(sizeof(PathHot) == 32,
              "PathHot must stay within the paper's ~20-32 B/path budget");
static_assert(std::is_trivially_copyable_v<PathHot>);

/// Arena addressing for one path's log slice, plus the rarely-written
/// remainder of the per-packet state: the oldest undecided record's time
/// (written once per sampling round, read by the time-keyed marker rule),
/// the open aggregate's opened_at (written once per aggregate), the
/// pending-AggTrans-window count (mirrors pending[path].size() so the fast
/// path never reads the cold vector header) and the J-window high-water
/// mark.
struct PathWarm {
  std::uint32_t log_begin = 0;  ///< offset into log_arena
  std::uint32_t log_cap = 0;    ///< power of two (0 until first record)
  std::int64_t undecided_at_ns = 0;  ///< oldest undecided record's time
  std::int64_t opened_at_ns = 0;  ///< open aggregate's first-packet time
  std::uint32_t pend_count = 0; ///< == pending[path].size()
  std::uint32_t window_peak = 0;  ///< J-window high-water mark (records)
};
static_assert(sizeof(PathWarm) == 32);

/// One path's per-packet working set: the hot record plus its warm
/// addressing half, packed into a single 64-byte cache line — the 100k-path
/// observe loop touches exactly one line of path state per packet (plus
/// the path's log slice).
struct alignas(64) PathSlot {
  PathHot hot;
  PathWarm warm;
};
static_assert(sizeof(PathSlot) == 64);

/// One buffered <digest, time> record (§7.1's 7-byte PktID+Time entry).
struct TimedDigest {
  net::PacketDigest id = 0;
  net::Timestamp time;
};

/// Per-path statistics (the §7.1 reporting surface of one path's sampler
/// and aggregator state).  Touched only at markers and cuts, never on the
/// per-packet fast path: `observed` is derivable (every packet is either
/// undecided or a marker, so observed == swept + markers + the current
/// undecided count — see path_observed_packets) and `buffer_peak` records
/// the pre-sweep undecided count at each marker (it grows monotonically
/// between sweeps, so the lifetime high-water mark is max(buffer_peak,
/// current undecided count) — see path_buffer_peak).
struct PathStats {
  std::uint64_t markers = 0;   ///< Algorithm 1 markers seen
  std::uint64_t swept = 0;     ///< buffered records evaluated at markers
  std::uint64_t cuts = 0;      ///< Algorithm 2 cutting points seen
  std::uint64_t buffer_peak = 0;  ///< max pre-sweep undecided count
  /// Undecided records discarded by TTL eviction (their fate was never
  /// resolved by a marker) — keeps the observed-packet derivation honest
  /// across evictions.
  std::uint64_t dropped_buffered = 0;
  /// Undrained-sample high-water mark: the largest emitted[path].size()
  /// reached (updated at sweeps, the only place samples are emitted) —
  /// with capacity-retaining drains this bounds the per-path sample
  /// capacity a live path can pin (see emitted_peak_records).
  std::uint64_t emitted_peak = 0;
  /// Consecutive lifecycle passes the log slice spent below a quarter of
  /// capacity — path_decay's trigger state, reset by any busy pass and
  /// after each halving.  Touched only at lifecycle passes.
  std::uint32_t log_low_streak = 0;
  /// Same trigger state for the emitted-sample vector's retained capacity.
  std::uint32_t emitted_low_streak = 0;
};

/// A closed aggregate before PathId stamping (the MonitoringCache drain
/// adds that).
struct AggregateData {
  AggId agg;
  std::uint32_t packet_count = 0;
  TransWindow trans;
  net::Timestamp opened_at;
  net::Timestamp closed_at;
};

/// A closed aggregate whose trailing AggTrans window is still filling.
struct PendingAggregate {
  AggregateData data;
  net::Timestamp boundary;  ///< cut time; window completes at boundary+J
};

/// The structure-of-arrays block the kernels operate on.  Members are
/// public by design: this IS the SoA view — MonitoringCache is a facade
/// over it.
struct PathStateSoA {
  PathStateSoA(const PathParams& p, std::size_t path_count)
      : params(p),
        slots(path_count),
        stats(path_count),
        emitted(path_count),
        pending(path_count),
        closed(path_count) {}

  /// Marker-sweep kernel invocations by SIMD tier (one count per marker
  /// that swept a non-empty buffer; §7.1 observability, receipt-invisible).
  /// Lives on the SoA block so the monitoring cache shares one accounting
  /// point with the kernels.
  struct SweepKernelCounters {
    std::uint64_t scalar = 0;
    std::uint64_t avx2 = 0;
  };

  PathParams params;
  std::vector<PathSlot> slots;
  std::vector<PathStats> stats;
  SweepKernelCounters sweep_kernels;
  /// Shared arena holding every path's log slice.  A slice that outgrows
  /// its capacity relocates to the arena tail (doubling); the abandoned
  /// slice is bounded garbage — geometric growth keeps total garbage below
  /// total live capacity.
  std::vector<TimedDigest> log_arena;
  /// Cold receipt state, drained by the control plane.
  std::vector<std::vector<SampleRecord>> emitted;
  std::vector<std::vector<PendingAggregate>> pending;
  std::vector<std::vector<AggregateData>> closed;

  [[nodiscard]] std::size_t path_count() const noexcept {
    return slots.size();
  }
  /// The open-receipt (hot-record) footprint — what a hardware monitoring
  /// cache would hold in SRAM (the paper's "2 MB for 100k paths").
  [[nodiscard]] std::size_t hot_bytes() const noexcept {
    return slots.size() * sizeof(PathHot);
  }
  /// Resident per-path slot bytes (hot + warm line per path).
  [[nodiscard]] std::size_t slot_bytes() const noexcept {
    return slots.size() * sizeof(PathSlot);
  }
  /// Resident arena bytes (record logs, including slack and relocation
  /// garbage) — the software analogue of the §7.1 temp buffer.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return log_arena.size() * sizeof(TimedDigest);
  }
  /// Arena bytes addressed by some path's live slice (its reserved
  /// capacity) — what compaction retains.
  [[nodiscard]] std::size_t arena_live_bytes() const noexcept {
    std::size_t records = 0;
    for (const PathSlot& s : slots) records += s.warm.log_cap;
    return records * sizeof(TimedDigest);
  }
  /// Arena bytes no slice addresses any more (grow-by-relocation leftovers
  /// and evicted paths' slices) — what compaction reclaims.
  [[nodiscard]] std::size_t arena_garbage_bytes() const noexcept {
    return arena_bytes() - arena_live_bytes();
  }
  /// Sum of per-path temp-buffer (undecided-record) high-water marks.
  [[nodiscard]] std::size_t buffer_peak_records() const noexcept {
    std::size_t n = 0;
    for (std::size_t p = 0; p < slots.size(); ++p) {
      n += path_buffer_peak(p);
    }
    return n;
  }
  /// One path's lifetime temp-buffer high-water mark (records): the
  /// largest pre-sweep undecided count seen, or the still-growing current
  /// count.
  [[nodiscard]] std::size_t path_buffer_peak(std::size_t path) const {
    return std::max<std::size_t>(stats[path].buffer_peak,
                                 slots[path].hot.undecided);
  }
  /// Largest undrained-sample backlog any single path has reached
  /// (records).  Drains retain emitted capacity (path_drain), so
  /// this is the figure that proves the retained heap stays bounded by
  /// actual backlog rather than ratcheting: retained capacity per path
  /// never exceeds ~2x its peak (vector doubling) until decay or eviction
  /// releases it.
  [[nodiscard]] std::size_t emitted_peak_records() const noexcept {
    std::size_t n = 0;
    for (std::size_t p = 0; p < slots.size(); ++p) {
      n = std::max<std::size_t>(
          n, std::max<std::size_t>(stats[p].emitted_peak, emitted[p].size()));
    }
    return n;
  }
  /// One path's observed-packet count, reconstructed from marker-time
  /// counters (every packet is either undecided, a marker, or was dropped
  /// undecided by an eviction).
  [[nodiscard]] std::uint64_t path_observed_packets(std::size_t path) const {
    return stats[path].swept + stats[path].markers +
           stats[path].dropped_buffered + slots[path].hot.undecided;
  }
  /// True if the path owns any resident monitoring state — a log slice,
  /// an open aggregate, or undrained receipts.  (A path that never saw
  /// traffic, or was evicted and stayed idle, holds nothing.)
  [[nodiscard]] bool path_has_state(std::size_t path) const {
    const PathSlot& s = slots[path];
    return s.warm.log_cap != 0 || s.hot.agg_count != 0 ||
           s.warm.pend_count != 0 || !emitted[path].empty() ||
           !closed[path].empty();
  }
};

// --- Epoch lifecycle (compaction + eviction) ------------------------------
//
// The arena grows by slice relocation and, without intervention, never
// shrinks: garbage stays bounded below live capacity, but "live capacity"
// includes every path that EVER saw traffic.  For month-long runs with a
// churning path population the control plane retires state in two steps:
// evict paths idle beyond a TTL (the cache drains their receipts through
// the normal sink path first), then compact the arena when relocation +
// eviction garbage crosses a watermark.

/// Release path `path`'s resident state: its log slice becomes garbage
/// (reclaimed by the next compaction), the hot/warm records reset to the
/// never-saw-traffic state, and the cold receipt vectors release their
/// capacity.  Returns the number of undecided records dropped (also
/// accumulated into stats[path].dropped_buffered).
///
/// PRECONDITION: the caller has drained the path's receipts (samples +
/// aggregates with flush_open) — this is storage-level reclamation and
/// silently discards anything still pending.  Cumulative PathStats
/// survive.  A revived path regrows slices lazily, exactly like a path
/// seeing its first packet.
std::size_t path_evict(PathStateSoA& s, std::size_t path);

/// Rebuild the arena tightly in path order, dropping all garbage while
/// preserving each slice's reserved capacity (so growth stays amortised
/// O(1)) and linearising each log (its live records move to the slice
/// front, as slice growth already does).  Receipt-invisible.  Returns the
/// arena bytes reclaimed.
std::size_t path_state_compact(PathStateSoA& s);

/// What one path_decay call did.  Arena-slice and emitted-capacity decay
/// report separately: released arena halves become garbage the next
/// compaction reclaims and feed the arena accounting, while emitted
/// capacity is ordinary heap returned to the allocator immediately.
struct PathDecay {
  std::size_t halved_slices = 0;   ///< 0..1 (the log slice)
  std::size_t released_bytes = 0;  ///< live capacity turned to garbage
  std::size_t halved_emitted = 0;  ///< 0..1 (emitted-sample capacity)
  std::size_t released_emitted_bytes = 0;  ///< heap freed by that halving
};

/// Live-capacity decay — the shrink half of the grow-by-doubling slices.
/// One lifecycle observation of `path`'s log occupancy (the longer of its
/// undecided and J-window suffixes): a slice whose occupancy has stayed
/// strictly below a QUARTER of its capacity for `low_streak` consecutive
/// observations is halved in place — its live records rotate to the slice
/// front and the capacity stays a power of two — flooring at the initial
/// slice size.  The released half becomes arena garbage that the next
/// path_state_compact reclaims, so a traffic spike's capacity ratchet
/// decays back down instead of pinning arena_live_bytes at the spike
/// level forever.  The emitted-sample vector's retained capacity (drains
/// keep it; see path_drain) decays under the same
/// quarter-occupancy/streak rule, flooring at a small initial capacity.
/// Receipt-invisible.  `low_streak == 0` disables.
PathDecay path_decay(PathStateSoA& s, std::size_t path,
                     std::uint32_t low_streak);

// --- Per-packet kernel -----------------------------------------------------
//
// The Algorithm 1/2 per-packet step of the pre-SoA per-path sampler and
// aggregator objects, fused, on one path of a PathStateSoA block.
// Receipt-affecting behaviour is identical; only the storage layout
// changed.

/// Everything path_observe does not inline: markers (the Algorithm 1
/// sweep), cuts, finalize_due, an aggregate's first packet and slice
/// growth.  Call path_observe instead.
std::size_t path_observe_rare(PathStateSoA& s, std::size_t path,
                              const net::PacketDecisions& d,
                              net::Timestamp when);

namespace detail {

/// Records `hot`'s log must keep: the longer of its two suffixes.
inline std::uint32_t log_live(const PathHot& hot) noexcept {
  return std::max(hot.undecided, hot.window);
}

/// The time-keyed marker rule: a packet observed at `when` acts as a
/// marker when the path's oldest undecided record has aged past
/// marker_max_age.  Reads only the slot line.
inline bool forced_marker(const PathParams& p, const PathSlot& slot,
                          net::Timestamp when) noexcept {
  return p.marker_max_age > net::Duration{0} && slot.hot.undecided != 0 &&
         when - net::Timestamp{slot.warm.undecided_at_ns} >= p.marker_max_age;
}

/// Stores one record at `slot`'s log tail, which must have room, counting
/// it undecided when no marker decided it, then slides the J window past
/// records older than J (reading the window's oldest record).
inline void log_push(PathStateSoA& s, PathSlot& slot, net::PacketDigest id,
                     net::Timestamp when, bool undecided) {
  PathHot& hot = slot.hot;
  const std::uint32_t mask = slot.warm.log_cap - 1;
  TimedDigest* log = s.log_arena.data() + slot.warm.log_begin;
  log[hot.log_tail] = TimedDigest{id, when};
  hot.log_tail = (hot.log_tail + 1) & mask;
  if (undecided) {
    if (hot.undecided == 0) slot.warm.undecided_at_ns = when.nanoseconds();
    ++hot.undecided;
  }
  if (s.params.j_window > net::Duration{0}) {
    // Keep each record with `r.time + J >= when`, written as
    // `r.time >= when - J`; the record just stored always stays.
    const net::Timestamp cutoff = when - s.params.j_window;
    std::uint32_t w = hot.window + 1;
    while (log[(hot.log_tail - w) & mask].time < cutoff) --w;
    hot.window = w;
    if (w > slot.warm.window_peak) slot.warm.window_peak = w;
  }
}

}  // namespace detail

/// The fused Algorithm 1 + 2 data-plane step for one packet of `path`.
/// Returns the number of undecided records swept (0 unless the packet is
/// a marker) — the §7.1 marker-sweep accounting.  The common case (the
/// open aggregate continues; no marker, forced or not; no cut; no pending
/// AggTrans window; room in the log) runs inline: it extends the
/// aggregate and stores the packet's record once.
inline std::size_t path_observe(PathStateSoA& s, std::size_t path,
                                const net::PacketDecisions& d,
                                net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  PathHot& hot = slot.hot;
  const PathParams& p = s.params;
  if (d.marker_value > p.marker_threshold ||
      detail::forced_marker(p, slot, when) || hot.agg_count == 0 ||
      d.cut_value > p.cut_threshold || slot.warm.pend_count != 0 ||
      detail::log_live(hot) == slot.warm.log_cap) [[unlikely]] {
    return path_observe_rare(s, path, d, when);
  }
  // Algorithm 2, lines 5-6: LastPacketID <- p.  The count saturates (see
  // path_observe_rare).
  hot.agg_last = d.id;
  hot.agg_count += hot.agg_count != 0xFFFFFFFFu;
  hot.last_at_ns = when.nanoseconds();
  // Algorithm 1, line 8, and the J window: one record.
  detail::log_push(s, slot, d.id, when, /*undecided=*/true);
  return 0;
}

// --- Receipt drain (the control-plane surface) ----------------------------
//
// The ONE place drained state is stamped into receipts — MonitoringCache
// delegates here, so the receipt ordering contract (with flush_open:
// finalise pending, drain closed, then append the flushed open aggregate)
// has a single implementation.

/// Drain path `path` into receipts stamped with `id`: the samples emitted
/// so far (observation order; undecided records stay in the log — their
/// fate is not yet decided) and the aggregates whose
/// trailing AggTrans window is complete.  With `flush_open`, pending
/// aggregates are finalised and the still-open aggregate is closed, last in
/// the aggregate stream (end of a measurement run).  The path's emitted
/// vector keeps its capacity across the drain (a busy path re-fills it
/// every reporting round) — path_decay shrinks it when the path quiets
/// down and path_evict releases it entirely.
[[nodiscard]] PathDrain path_drain(PathStateSoA& s, std::size_t path,
                                   const net::PathId& id, bool flush_open);

}  // namespace vpm::core

#endif  // VPM_CORE_PATH_STATE_HPP
