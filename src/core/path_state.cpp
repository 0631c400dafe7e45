#include "core/path_state.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/sample_batch.hpp"
#include "net/simd_dispatch.hpp"

namespace vpm::core {
namespace {

/// First log slice allocated to a path (records, power of two).
/// Deliberately small: a 100k-path cache must not pre-pay per-path arena
/// space for paths that may never see traffic; busy paths double their
/// slice on demand (amortised O(1) per record).
constexpr std::uint32_t kLogInitialCap = 16;
/// Emitted-sample capacity floor for path_decay (records) — small enough
/// that a quiet path pins almost nothing, large enough that a typical
/// reporting round (a handful of samples + markers) never reallocates.
constexpr std::size_t kEmittedDecayFloor = 16;

// The marker-sweep kernel walks buffered records as raw strided bytes,
// reading the uint32 digest in the first four bytes of each.
static_assert(sizeof(TimedDigest) == 16);
static_assert(std::is_trivially_copyable_v<TimedDigest>);
static_assert(offsetof(TimedDigest, id) == 0);

inline const std::byte* bytes_of(const TimedDigest* records) noexcept {
  return reinterpret_cast<const std::byte*>(records);
}

/// True when the AVX2 sweep kernel should run: the dispatch shim's active
/// tier (force hook -> VPM_SIMD -> cpuid) resolved to kAvx2 AND this binary
/// actually carries the kernel.  Checked once per sweep, not per record.
inline bool avx2_kernels_active() noexcept {
  return net::simd::active_tier() == net::simd::Tier::kAvx2;
}

using detail::log_live;

/// Copies the `live` records before `slot`'s log tail, oldest first, to
/// `out` — the log linearised.
void copy_live(const PathStateSoA& s, const PathSlot& slot,
               std::uint32_t live, TimedDigest* out) {
  const TimedDigest* log = s.log_arena.data() + slot.warm.log_begin;
  const std::uint32_t mask = slot.warm.log_cap - 1;
  for (std::uint32_t i = 0; i < live; ++i) {
    out[i] = log[(slot.hot.log_tail - live + i) & mask];
  }
}

/// Slice offsets and capacities are stored as 32-bit record indices
/// (PathWarm).  An arena past 2^32 records (~69 GB) would silently wrap
/// an offset into another path's live slice, so growth fails loud
/// instead.  Doubling is computed in 64 bits so a 2^31-capacity slice
/// cannot wrap new_cap to 0 and slip past the check.
void check_arena_offset(std::size_t begin, std::uint64_t new_cap) {
  if (begin + new_cap > 0xFFFFFFFFull) {
    throw std::length_error(
        "PathStateSoA: log arena exceeds 32-bit slice addressing");
  }
}

/// Relocate a full log to the arena tail with doubled capacity,
/// linearised (its records move to the slice front).  The old slice
/// becomes garbage; doubling bounds total garbage below total live
/// capacity.
void grow_log(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::uint32_t live = log_live(slot.hot);
  const std::uint64_t new_cap =
      slot.warm.log_cap == 0
          ? kLogInitialCap
          : static_cast<std::uint64_t>(slot.warm.log_cap) * 2;
  const std::size_t begin = s.log_arena.size();
  check_arena_offset(begin, new_cap);
  s.log_arena.resize(begin + new_cap);
  copy_live(s, slot, live, s.log_arena.data() + begin);
  slot.warm.log_begin = static_cast<std::uint32_t>(begin);
  slot.warm.log_cap = static_cast<std::uint32_t>(new_cap);
  slot.hot.log_tail = live;
}

/// Move pending aggregates whose AggTrans window is complete (now is J
/// past their boundary) to the closed list, preserving relative order in
/// both groups (the pre-refactor stable_partition semantics).  The keep
/// predicate `boundary + J >= now` is written as `boundary >= now - J`.
void finalize_due(PathStateSoA& s, std::size_t path, net::Timestamp now) {
  auto& pending = s.pending[path];
  auto& closed = s.closed[path];
  const net::Timestamp cutoff = now - s.params.j_window;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].boundary >= cutoff) {
      if (keep != i) pending[keep] = std::move(pending[i]);
      ++keep;
    } else {
      closed.push_back(std::move(pending[i].data));
    }
  }
  pending.resize(keep);
  s.slots[path].warm.pend_count = static_cast<std::uint32_t>(keep);
}

/// Algorithm 1, lines 1-6: the marker `d` decides the fate of every
/// undecided record.  The sample_value evaluations run through the
/// sweep-select kernel (8-wide on the AVX2 tier) in chunks over the one or
/// two contiguous runs the records occupy in the log; survivors append as
/// one bulk write per chunk instead of per-record push_backs.  Returns the
/// records swept.
std::size_t sweep_undecided(PathStateSoA& s, std::size_t path,
                            const net::PacketDecisions& d,
                            net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  PathStats& st = s.stats[path];
  ++st.markers;
  const std::size_t swept = slot.hot.undecided;
  st.swept += swept;
  st.buffer_peak = std::max<std::uint64_t>(st.buffer_peak, swept);
  auto& emitted = s.emitted[path];
  if (swept != 0) {
    static const net::detail::SweepSelectFn avx2 =
        net::detail::sweep_select_avx2();
    const bool use_avx2 = avx2 != nullptr && avx2_kernels_active();
    (use_avx2 ? s.sweep_kernels.avx2 : s.sweep_kernels.scalar) += 1;
    const auto sweep_run = [&](const TimedDigest* run, std::size_t n) {
      constexpr std::size_t kSweepChunk = 512;
      std::uint32_t idx[kSweepChunk];
      for (std::size_t chunk = 0; chunk < n; chunk += kSweepChunk) {
        const std::size_t cn = std::min(kSweepChunk, n - chunk);
        const std::size_t m =
            use_avx2 ? avx2(bytes_of(run + chunk), sizeof(TimedDigest), cn,
                            d.id, s.params.sample_threshold, idx)
                     : net::detail::sweep_select_scalar(
                           bytes_of(run + chunk), sizeof(TimedDigest), cn,
                           d.id, s.params.sample_threshold, idx);
        const std::size_t old = emitted.size();
        emitted.resize(old + m);
        SampleRecord* dst = emitted.data() + old;
        for (std::size_t j = 0; j < m; ++j) {
          const TimedDigest& r = run[chunk + idx[j]];
          dst[j] = SampleRecord{
              .pkt_id = r.id, .time = r.time, .is_marker = false};
        }
      }
    };
    const TimedDigest* log = s.log_arena.data() + slot.warm.log_begin;
    const std::uint32_t cap = slot.warm.log_cap;
    const std::uint32_t first = (slot.hot.log_tail - slot.hot.undecided) &
                                (cap - 1);
    const std::size_t head_run = std::min<std::size_t>(swept, cap - first);
    sweep_run(log + first, head_run);
    sweep_run(log, swept - head_run);
    slot.hot.undecided = 0;
  }
  emitted.push_back(
      SampleRecord{.pkt_id = d.id, .time = when, .is_marker = true});
  st.emitted_peak = std::max<std::uint64_t>(st.emitted_peak, emitted.size());
  return swept;
}

/// Algorithm 2, lines 2-5, at a cut: close the open aggregate.  With J,
/// it waits for its trailing AggTrans window; its AggTrans.before is the
/// J window's records observed within J before the cut.
void close_at_cut(PathStateSoA& s, std::size_t path, net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  ++s.stats[path].cuts;
  AggregateData data{
      .agg = AggId{.first = slot.hot.agg_first, .last = slot.hot.agg_last},
      .packet_count = slot.hot.agg_count,
      .trans = {},
      .opened_at = net::Timestamp{slot.warm.opened_at_ns},
      .closed_at = net::Timestamp{slot.hot.last_at_ns}};
  slot.hot.agg_count = 0;
  if (s.params.j_window <= net::Duration{0}) {
    // Basic §6.2 mode: no reorder window, close immediately.
    s.closed[path].push_back(std::move(data));
    return;
  }
  // Walk the J window oldest first, keeping each record with
  // `r.time + J >= when`, written as `r.time >= when - J`.
  const TimedDigest* log = s.log_arena.data() + slot.warm.log_begin;
  const std::uint32_t mask = slot.warm.log_cap - 1;
  const net::Timestamp cutoff = when - s.params.j_window;
  auto& before = data.trans.before;
  before.reserve(slot.hot.window);
  for (std::uint32_t i = slot.hot.window; i != 0; --i) {
    const TimedDigest& r = log[(slot.hot.log_tail - i) & mask];
    if (r.time >= cutoff) before.push_back(r.id);
  }
  // The trailing window is roughly symmetric to the leading one.
  data.trans.after.reserve(before.size() + 1);
  s.pending[path].push_back(
      PendingAggregate{.data = std::move(data), .boundary = when});
  ++slot.warm.pend_count;
}

}  // namespace

std::size_t path_observe_rare(PathStateSoA& s, std::size_t path,
                              const net::PacketDecisions& d,
                              net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  const PathParams& p = s.params;

  // Time-keyed marker rule: when enabled, a packet arriving while the
  // OLDEST undecided record has aged past marker_max_age acts as a forced
  // marker.  This bounds the undecided records by time (~rate x max_age
  // records) instead of Algorithm 1's ~1/marker_rate expectation, which a
  // slow path can exceed without bound.
  const bool marker = d.marker_value > p.marker_threshold ||
                      detail::forced_marker(p, slot, when);
  const std::size_t swept = marker ? sweep_undecided(s, path, d, when) : 0;

  const bool is_cut =
      slot.hot.agg_count != 0 && d.cut_value > p.cut_threshold;
  if (slot.warm.pend_count != 0) finalize_due(s, path, when);
  if (is_cut) close_at_cut(s, path, when);

  // The packet lands in every still-open AggTrans window (including, when
  // it is a cut, the window of the boundary it just created).
  if (slot.warm.pend_count != 0) {
    for (PendingAggregate& pend : s.pending[path]) {
      pend.data.trans.after.push_back(d.id);
    }
  }

  if (slot.hot.agg_count == 0) {
    slot.hot.agg_first = d.id;
    slot.hot.agg_last = d.id;
    slot.hot.agg_count = 1;
    slot.warm.opened_at_ns = when.nanoseconds();
    slot.hot.last_at_ns = when.nanoseconds();
  } else {
    // Algorithm 2, lines 5-6 run for every packet: LastPacketID <- p.
    // The count saturates rather than wrap: agg_count == 0 encodes "no
    // open aggregate", so a 2^32-packet aggregate (cuts effectively
    // disabled on a hot path) must not wrap into the sentinel and reset
    // the open aggregate's identity.  (The pre-SoA optional<Open> let
    // the reported count wrap instead; saturation keeps AggId/opened_at
    // correct and reports "at least 2^32-1".)
    slot.hot.agg_last = d.id;
    if (slot.hot.agg_count != 0xFFFFFFFFu) ++slot.hot.agg_count;
    slot.hot.last_at_ns = when.nanoseconds();
  }

  // The packet's one record: undecided unless it is a marker, and in the
  // J window when there is one.  A marker without J needs no record.
  if (!marker || p.j_window > net::Duration{0}) {
    if (log_live(slot.hot) == slot.warm.log_cap) grow_log(s, path);
    detail::log_push(s, slot, d.id, when, /*undecided=*/!marker);
  }
  return swept;
}

std::size_t path_evict(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::size_t dropped = slot.hot.undecided;
  s.stats[path].dropped_buffered += dropped;
  slot.hot = PathHot{};
  // Preserve the lifetime window_peak (a §7.1 reporting figure); reset the
  // arena addressing so the path owns no slice.
  const std::uint32_t peak = slot.warm.window_peak;
  slot.warm = PathWarm{};
  slot.warm.window_peak = peak;
  // The cold vectors are drained by the caller; swap-release their
  // capacity so an evicted path holds no heap at all.
  std::vector<SampleRecord>{}.swap(s.emitted[path]);
  std::vector<PendingAggregate>{}.swap(s.pending[path]);
  std::vector<AggregateData>{}.swap(s.closed[path]);
  return dropped;
}

std::size_t path_state_compact(PathStateSoA& s) {
  const std::size_t before = s.arena_bytes();
  std::vector<TimedDigest> arena(s.arena_live_bytes() / sizeof(TimedDigest));
  std::size_t at = 0;
  for (PathSlot& slot : s.slots) {
    if (slot.warm.log_cap == 0) continue;
    // Linearise, as grow_log does, so this is receipt-invisible.
    const std::uint32_t live = log_live(slot.hot);
    copy_live(s, slot, live, arena.data() + at);
    slot.warm.log_begin = static_cast<std::uint32_t>(at);
    slot.hot.log_tail = live & (slot.warm.log_cap - 1);
    at += slot.warm.log_cap;
  }
  s.log_arena = std::move(arena);
  return before - s.arena_bytes();
}

PathDecay path_decay(PathStateSoA& s, std::size_t path,
                     std::uint32_t low_streak) {
  PathDecay out;
  if (low_streak == 0) return out;
  PathSlot& slot = s.slots[path];
  PathStats& st = s.stats[path];

  // Log slice: occupancy below a quarter means the live records fit the
  // front half with room to spare.  Rotate them there (the linearisation
  // grow_log applies, so this is receipt-invisible) and stop addressing
  // the back half.
  const std::uint32_t live = log_live(slot.hot);
  if (slot.warm.log_cap > kLogInitialCap &&
      std::uint64_t{live} * 4 < slot.warm.log_cap) {
    if (++st.log_low_streak >= low_streak) {
      TimedDigest* log = s.log_arena.data() + slot.warm.log_begin;
      const std::uint32_t cap = slot.warm.log_cap;
      std::rotate(log, log + ((slot.hot.log_tail - live) & (cap - 1)),
                  log + cap);
      const std::uint32_t released = cap / 2;
      slot.warm.log_cap -= released;
      slot.hot.log_tail = live;
      st.log_low_streak = 0;
      ++out.halved_slices;
      out.released_bytes += released * sizeof(TimedDigest);
    }
  } else {
    st.log_low_streak = 0;
  }

  // Emitted-sample capacity (retained across drains by path_drain):
  // same quarter-occupancy/streak rule.  This is ordinary heap, not arena
  // space, so the halving reallocates immediately instead of leaving
  // garbage for compaction — reported in the separate emitted fields.
  auto& emitted = s.emitted[path];
  if (emitted.capacity() > kEmittedDecayFloor &&
      emitted.size() * 4 < emitted.capacity()) {
    if (++st.emitted_low_streak >= low_streak) {
      const std::size_t old_cap = emitted.capacity();
      std::vector<SampleRecord> shrunk;
      shrunk.reserve(std::max(old_cap / 2, kEmittedDecayFloor));
      shrunk.insert(shrunk.end(), emitted.begin(), emitted.end());
      emitted.swap(shrunk);
      st.emitted_low_streak = 0;
      ++out.halved_emitted;
      if (old_cap > emitted.capacity()) {
        out.released_emitted_bytes +=
            (old_cap - emitted.capacity()) * sizeof(SampleRecord);
      }
    }
  } else {
    st.emitted_low_streak = 0;
  }
  return out;
}

namespace {

/// The samples emitted so far.  Copy-and-clear rather than swap: a busy
/// path re-fills this vector every reporting round, and a swap-release
/// would force it to re-grow from zero through the allocator each time
/// (malloc + doubling copies inside the data-plane sweep).  The retained
/// capacity is bounded by the path's actual backlog peak
/// (stats.emitted_peak), decays when the path quiets down (path_decay) and
/// is fully released at eviction.
std::vector<SampleRecord> take_samples(PathStateSoA& s, std::size_t path) {
  auto& e = s.emitted[path];
  std::vector<SampleRecord> out(e.begin(), e.end());
  e.clear();
  return out;
}

/// Finalise every pending aggregate (its AggTrans window is whatever has
/// been observed), then close and return the still-open aggregate.
std::optional<AggregateData> flush_open_aggregate(PathStateSoA& s,
                                                  std::size_t path) {
  auto& pending = s.pending[path];
  auto& closed = s.closed[path];
  for (PendingAggregate& pend : pending) {
    closed.push_back(std::move(pend.data));
  }
  pending.clear();
  PathSlot& slot = s.slots[path];
  slot.warm.pend_count = 0;

  if (slot.hot.agg_count == 0) return std::nullopt;
  AggregateData d;
  d.agg = AggId{.first = slot.hot.agg_first, .last = slot.hot.agg_last};
  d.packet_count = slot.hot.agg_count;
  d.opened_at = net::Timestamp{slot.warm.opened_at_ns};
  d.closed_at = net::Timestamp{slot.hot.last_at_ns};
  slot.hot.agg_count = 0;
  return d;
}

AggregateReceipt stamp(const net::PathId& id, AggregateData&& d) {
  return AggregateReceipt{.path = id,
                          .agg = d.agg,
                          .packet_count = d.packet_count,
                          .trans = std::move(d.trans),
                          .opened_at = d.opened_at,
                          .closed_at = d.closed_at};
}

}  // namespace

PathDrain path_drain(PathStateSoA& s, std::size_t path, const net::PathId& id,
                     bool flush_open) {
  PathDrain out;
  out.samples.path = id;
  out.samples.sample_threshold = s.params.sample_threshold;
  out.samples.marker_threshold = s.params.marker_threshold;
  out.samples.samples = take_samples(s, path);

  std::optional<AggregateData> last;
  if (flush_open) last = flush_open_aggregate(s, path);
  std::vector<AggregateData> closed;
  closed.swap(s.closed[path]);
  out.aggregates.reserve(closed.size() + (last.has_value() ? 1 : 0));
  for (AggregateData& d : closed) {
    out.aggregates.push_back(stamp(id, std::move(d)));
  }
  if (last.has_value()) out.aggregates.push_back(stamp(id, std::move(*last)));
  return out;
}

}  // namespace vpm::core
