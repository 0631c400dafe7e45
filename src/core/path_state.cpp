#include "core/path_state.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/sample_batch.hpp"
#include "net/simd_dispatch.hpp"

namespace vpm::core {
namespace {

/// First temp-buffer slice allocated to a path (records).  Deliberately
/// small: a 100k-path cache must not pre-pay per-path arena space for
/// paths that may never see traffic; busy paths double their slice on
/// demand (amortised O(1) per record).
constexpr std::uint32_t kBufInitialCap = 16;
/// First J-ring slice (records, power of two).
constexpr std::uint32_t kRingInitialCap = 8;
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

/// Slice offsets and capacities are stored as 32-bit record indices
/// (PathWarm).  An arena past 2^32 records (~69 GB) would silently wrap
/// an offset into another path's live slice, so growth fails loud instead
/// — the ROADMAP compaction follow-on is the real fix for runs that get
/// near this.  Doubling is computed in 64 bits so a 2^31-capacity slice
/// cannot wrap new_cap to 0 and slip past the check.
void check_arena_offset(std::size_t begin, std::uint64_t new_cap,
                        const char* which) {
  if (begin + new_cap > 0xFFFFFFFFull) {
    throw std::length_error(std::string("PathStateSoA: ") + which +
                            " arena exceeds 32-bit slice addressing");
  }
}

/// Relocate a path's temp-buffer slice to the arena tail with doubled
/// capacity.  The old slice becomes garbage; doubling bounds total garbage
/// below total live capacity.
void grow_buffer(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::uint32_t live = slot.hot.buf_size;
  const std::uint64_t new_cap =
      slot.warm.buf_cap == 0
          ? kBufInitialCap
          : static_cast<std::uint64_t>(slot.warm.buf_cap) * 2;
  const std::size_t begin = s.buf_arena.size();
  check_arena_offset(begin, new_cap, "temp-buffer");
  s.buf_arena.resize(begin + new_cap);
  std::copy_n(s.buf_arena.begin() + slot.warm.buf_begin, live,
              s.buf_arena.begin() + static_cast<std::ptrdiff_t>(begin));
  slot.warm.buf_begin = static_cast<std::uint32_t>(begin);
  slot.warm.buf_cap = static_cast<std::uint32_t>(new_cap);
}

/// Relocate a path's J-ring slice to the arena tail with doubled capacity,
/// linearised (entries move to [0, size), head resets to 0) — the SoA
/// version of the pre-SoA per-path aggregator's ring growth.
void grow_ring(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::uint64_t new_cap =
      slot.warm.ring_cap == 0
          ? kRingInitialCap
          : static_cast<std::uint64_t>(slot.warm.ring_cap) * 2;
  const std::size_t begin = s.ring_arena.size();
  check_arena_offset(begin, new_cap, "J-ring");
  s.ring_arena.resize(begin + new_cap);
  if (slot.warm.ring_cap != 0) {
    const std::uint32_t mask = slot.warm.ring_cap - 1;
    for (std::uint32_t i = 0; i < slot.hot.ring_size; ++i) {
      s.ring_arena[begin + i] =
          s.ring_arena[slot.warm.ring_begin +
                       ((slot.hot.ring_head + i) & mask)];
    }
  }
  slot.warm.ring_begin = static_cast<std::uint32_t>(begin);
  slot.warm.ring_cap = static_cast<std::uint32_t>(new_cap);
  slot.hot.ring_head = 0;
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

}  // namespace

std::size_t path_observe_sampler(PathStateSoA& s, std::size_t path,
                                 const net::PacketDecisions& d,
                                 net::Timestamp when) {
  PathSlot& slot = s.slots[path];

  // Time-keyed marker rule: when enabled, a packet arriving while the
  // OLDEST buffered record (always buf[0] — sweeps empty the buffer, so
  // records sit in arrival order) has aged past marker_max_age acts as a
  // forced marker.  This bounds the per-path temp buffer by time
  // (~rate x max_age records) instead of Algorithm 1's ~1/marker_rate
  // expectation, which a slow path can exceed without bound.
  const bool forced_marker =
      s.params.marker_max_age > net::Duration{0} && slot.hot.buf_size != 0 &&
      when - s.buf_arena[slot.warm.buf_begin].time >= s.params.marker_max_age;

  if (forced_marker || d.marker_value > s.params.marker_threshold) {
    // Algorithm 1, lines 1-6: the marker decides the fate of everything
    // buffered since the previous marker.  The sample_value evaluations
    // run through the sweep-select kernel (8-wide on the AVX2 tier) in
    // chunks; survivors append as one bulk write per chunk instead of
    // per-record push_backs.
    PathStats& st = s.stats[path];
    ++st.markers;
    const std::size_t swept = slot.hot.buf_size;
    st.swept += swept;
    st.buffer_peak = std::max<std::uint64_t>(st.buffer_peak, swept);
    auto& emitted = s.emitted[path];
    if (swept != 0) {
      static const net::detail::SweepSelectFn avx2 =
          net::detail::sweep_select_avx2();
      const bool use_avx2 = avx2 != nullptr && avx2_kernels_active();
      (use_avx2 ? s.sweep_kernels.avx2 : s.sweep_kernels.scalar) += 1;
      const TimedDigest* buf = s.buf_arena.data() + slot.warm.buf_begin;
      constexpr std::size_t kSweepChunk = 512;
      std::uint32_t idx[kSweepChunk];
      for (std::size_t chunk = 0; chunk < swept; chunk += kSweepChunk) {
        const std::size_t cn = std::min(kSweepChunk, swept - chunk);
        const std::size_t m =
            use_avx2 ? avx2(bytes_of(buf + chunk), sizeof(TimedDigest), cn,
                            d.id, s.params.sample_threshold, idx)
                     : net::detail::sweep_select_scalar(
                           bytes_of(buf + chunk), sizeof(TimedDigest), cn,
                           d.id, s.params.sample_threshold, idx);
        const std::size_t old = emitted.size();
        emitted.resize(old + m);
        SampleRecord* dst = emitted.data() + old;
        for (std::size_t j = 0; j < m; ++j) {
          const TimedDigest& r = buf[chunk + idx[j]];
          dst[j] = SampleRecord{
              .pkt_id = r.id, .time = r.time, .is_marker = false};
        }
      }
      slot.hot.buf_size = 0;
    }
    emitted.push_back(
        SampleRecord{.pkt_id = d.id, .time = when, .is_marker = true});
    st.emitted_peak = std::max<std::uint64_t>(st.emitted_peak,
                                              emitted.size());
    return swept;
  }

  // Algorithm 1, line 8: remember the packet until the next marker.
  if (slot.hot.buf_size == slot.warm.buf_cap) grow_buffer(s, path);
  s.buf_arena[slot.warm.buf_begin + slot.hot.buf_size] =
      TimedDigest{d.id, when};
  ++slot.hot.buf_size;
  return 0;
}

void path_observe_aggregator(PathStateSoA& s, std::size_t path,
                             const net::PacketDecisions& d,
                             net::Timestamp when) {
  PathSlot& slot = s.slots[path];
  const bool has_j = s.params.j_window > net::Duration{0};
  const bool is_cut =
      slot.hot.agg_count != 0 && d.cut_value > s.params.cut_threshold;

  if (slot.warm.pend_count != 0) finalize_due(s, path, when);

  if (is_cut) {
    // Algorithm 2, lines 2-5: close the current receipt; p starts the next
    // aggregate.  The closed receipt's AggTrans.before is everything
    // observed within J before the cut.
    ++s.stats[path].cuts;
    if (has_j) {
      PendingAggregate pend;
      pend.boundary = when;
      pend.data.agg =
          AggId{.first = slot.hot.agg_first, .last = slot.hot.agg_last};
      pend.data.packet_count = slot.hot.agg_count;
      pend.data.opened_at = net::Timestamp{slot.warm.opened_at_ns};
      pend.data.closed_at = net::Timestamp{slot.hot.last_at_ns};
      // Walk the J-ring from its head (arrival order), keeping each
      // record with `r.time + J >= when`, written as `r.time >= when - J`.
      const TimedDigest* ring = s.ring_arena.data() + slot.warm.ring_begin;
      const std::uint32_t mask = slot.warm.ring_cap - 1;
      const net::Timestamp cutoff = when - s.params.j_window;
      auto& before = pend.data.trans.before;
      before.reserve(slot.hot.ring_size);
      for (std::uint32_t i = 0; i < slot.hot.ring_size; ++i) {
        const TimedDigest& r = ring[(slot.hot.ring_head + i) & mask];
        if (r.time >= cutoff) before.push_back(r.id);
      }
      // The trailing window is roughly symmetric to the leading one.
      pend.data.trans.after.reserve(pend.data.trans.before.size() + 1);
      s.pending[path].push_back(std::move(pend));
      ++slot.warm.pend_count;
    } else {
      // Basic §6.2 mode: no reorder window, close immediately.
      s.closed[path].push_back(AggregateData{
          .agg = AggId{.first = slot.hot.agg_first,
                       .last = slot.hot.agg_last},
          .packet_count = slot.hot.agg_count,
          .trans = {},
          .opened_at = net::Timestamp{slot.warm.opened_at_ns},
          .closed_at = net::Timestamp{slot.hot.last_at_ns}});
    }
    slot.hot.agg_count = 0;
  }

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

  if (has_j) {
    if (slot.hot.ring_size == slot.warm.ring_cap) grow_ring(s, path);
    const std::uint32_t mask = slot.warm.ring_cap - 1;
    TimedDigest* ring = s.ring_arena.data() + slot.warm.ring_begin;
    ring[(slot.hot.ring_head + slot.hot.ring_size) & mask] =
        TimedDigest{d.id, when};
    ++slot.hot.ring_size;
    // Evict entries older than J — a sliding window over observations.
    while (slot.hot.ring_size != 0 &&
           ring[slot.hot.ring_head & mask].time + s.params.j_window < when) {
      slot.hot.ring_head = (slot.hot.ring_head + 1) & mask;
      --slot.hot.ring_size;
    }
    if (slot.hot.ring_size > slot.warm.window_peak) {
      slot.warm.window_peak = slot.hot.ring_size;
    }
  }
}

std::size_t path_evict(PathStateSoA& s, std::size_t path) {
  PathSlot& slot = s.slots[path];
  const std::size_t dropped = slot.hot.buf_size;
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

  std::size_t buf_records = 0;
  std::size_t ring_records = 0;
  for (const PathSlot& slot : s.slots) {
    buf_records += slot.warm.buf_cap;
    ring_records += slot.warm.ring_cap;
  }
  std::vector<TimedDigest> buf(buf_records);
  std::vector<TimedDigest> ring(ring_records);

  std::size_t buf_at = 0;
  std::size_t ring_at = 0;
  for (PathSlot& slot : s.slots) {
    if (slot.warm.buf_cap != 0) {
      std::copy_n(s.buf_arena.begin() + slot.warm.buf_begin,
                  slot.hot.buf_size,
                  buf.begin() + static_cast<std::ptrdiff_t>(buf_at));
      slot.warm.buf_begin = static_cast<std::uint32_t>(buf_at);
      buf_at += slot.warm.buf_cap;
    }
    if (slot.warm.ring_cap != 0) {
      // Linearise: entries move to [0, ring_size), head resets — the same
      // transformation grow_ring applies, so this is receipt-invisible.
      const std::uint32_t mask = slot.warm.ring_cap - 1;
      for (std::uint32_t i = 0; i < slot.hot.ring_size; ++i) {
        ring[ring_at + i] =
            s.ring_arena[slot.warm.ring_begin +
                         ((slot.hot.ring_head + i) & mask)];
      }
      slot.warm.ring_begin = static_cast<std::uint32_t>(ring_at);
      slot.hot.ring_head = 0;
      ring_at += slot.warm.ring_cap;
    }
  }
  s.buf_arena = std::move(buf);
  s.ring_arena = std::move(ring);
  return before - s.arena_bytes();
}

PathDecay path_decay(PathStateSoA& s, std::size_t path,
                     std::uint32_t low_streak) {
  PathDecay out;
  if (low_streak == 0) return out;
  PathSlot& slot = s.slots[path];
  PathStats& st = s.stats[path];

  // Temp buffer: live records always occupy the slice front, so halving
  // is pure bookkeeping — the tail half just stops being addressed.
  if (slot.warm.buf_cap > kBufInitialCap &&
      std::uint64_t{slot.hot.buf_size} * 4 < slot.warm.buf_cap) {
    if (++st.buf_low_streak >= low_streak) {
      const std::uint32_t released = slot.warm.buf_cap / 2;
      slot.warm.buf_cap -= released;
      st.buf_low_streak = 0;
      ++out.halved_slices;
      out.released_bytes += released * sizeof(TimedDigest);
    }
  } else {
    st.buf_low_streak = 0;
  }

  // J-ring: occupancy below a quarter means the survivors fit the front
  // half with room to spare.  Linearise them there through a temp copy
  // (a wrapped ring's masked source positions can collide with already-
  // written destinations) — the same entries-to-front transformation
  // grow_ring applies, so this is receipt-invisible.
  if (slot.warm.ring_cap > kRingInitialCap &&
      std::uint64_t{slot.hot.ring_size} * 4 < slot.warm.ring_cap) {
    if (++st.ring_low_streak >= low_streak) {
      const std::uint32_t mask = slot.warm.ring_cap - 1;
      std::vector<TimedDigest> live(slot.hot.ring_size);
      for (std::uint32_t i = 0; i < slot.hot.ring_size; ++i) {
        live[i] = s.ring_arena[slot.warm.ring_begin +
                               ((slot.hot.ring_head + i) & mask)];
      }
      std::copy(live.begin(), live.end(),
                s.ring_arena.begin() + slot.warm.ring_begin);
      const std::uint32_t released = slot.warm.ring_cap / 2;
      slot.warm.ring_cap -= released;
      slot.hot.ring_head = 0;
      st.ring_low_streak = 0;
      ++out.halved_slices;
      out.released_bytes += released * sizeof(TimedDigest);
    }
  } else {
    st.ring_low_streak = 0;
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
