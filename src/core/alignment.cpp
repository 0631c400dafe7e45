#include "core/alignment.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>
#include <vector>

namespace vpm::core {
namespace {

using Entries = std::span<const PreparedAggregate>;

/// The cutting-packet id of the boundary that closed entry `i` (the next
/// aggregate's first packet), or 0 if unknown/final.
net::PacketDigest boundary_of(Entries seq, std::size_t i) {
  if (!seq[i].after.empty()) return seq[i].closing_id;
  if (i + 1 < seq.size()) return seq[i + 1].cut_id;
  return 0;
}

/// A set of packet ids as a sorted vector.  Every alignment call builds
/// these over a tail's cutting ids: a sorted vector costs one allocation
/// and a sort, where a hash set allocates per id.
using IdSet = std::vector<net::PacketDigest>;

bool contains(const IdSet& set, net::PacketDigest id) {
  return std::binary_search(set.begin(), set.end(), id);
}

/// Which of an upstream entry's two windows hold each id: an
/// open-addressing table over slots one thread reuses for every boundary
/// it counts.  A slot belongs to the current boundary only while it
/// carries that boundary's stamp, so starting the next one clears nothing.
class WindowIds {
 public:
  static constexpr std::uint32_t kBefore = 1;
  static constexpr std::uint32_t kAfter = 2;

  /// Forgets every id and makes room for `ids` more.
  void start(std::size_t ids) {
    const std::size_t size = std::bit_ceil(std::max<std::size_t>(16, 2 * ids));
    if (slots_.size() < size) slots_.assign(size, Slot{});
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
    if (++stamp_ == 0) {  // wrapped: no slot may look current
      for (Slot& s : slots_) s.stamp = 0;
      stamp_ = 1;
    }
  }
  void mark(net::PacketDigest id, std::uint32_t window) {
    std::size_t i = home(id);
    for (; slots_[i].stamp == stamp_; i = (i + 1) & mask_) {
      if (slots_[i].id == id) {
        slots_[i].windows |= window;
        return;
      }
    }
    slots_[i] = Slot{.id = id, .stamp = stamp_, .windows = window};
  }
  /// The kBefore/kAfter bits of the windows that hold `id`.
  [[nodiscard]] std::uint32_t windows(net::PacketDigest id) const {
    for (std::size_t i = home(id); slots_[i].stamp == stamp_;
         i = (i + 1) & mask_) {
      if (slots_[i].id == id) return slots_[i].windows;
    }
    return 0;
  }

 private:
  struct Slot {
    net::PacketDigest id = 0;
    std::uint32_t stamp = 0;
    std::uint32_t windows = 0;
  };
  /// Fibonacci hashing: test and hostile ids are small and consecutive.
  [[nodiscard]] std::size_t home(net::PacketDigest id) const {
    return static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::uint32_t stamp_ = 0;
};

/// Section 6.3's counts at boundary `b`, which closes downstream entry `d`
/// and upstream entry `u`: a packet the upstream HOP saw before the cut
/// but the downstream HOP saw after it migrates into the earlier aggregate
/// (and vice versa), so both HOPs' receipts describe the same membership.
/// The cutting packet itself defines the cut: none of its copies in
/// `after` migrates.  Ids count with their multiplicity in `d`'s windows.
BoundaryCounts count_boundary(const PreparedAggregate& u,
                              const PreparedAggregate& d,
                              net::PacketDigest b, std::uint64_t up_entry) {
  thread_local WindowIds ids;
  ids.start(u.before.size() + u.after.size());
  for (const net::PacketDigest id : u.before) ids.mark(id, WindowIds::kBefore);
  for (const net::PacketDigest id : u.after) ids.mark(id, WindowIds::kAfter);
  BoundaryCounts c{.up_entry = up_entry};
  for (const net::PacketDigest id : d.after) {
    c.in += id != b && (ids.windows(id) & WindowIds::kBefore) != 0 ? 1 : 0;
  }
  for (const net::PacketDigest id : d.before) {
    c.out += (ids.windows(id) & WindowIds::kAfter) != 0 ? 1 : 0;
  }
  return c;
}

/// (id, position) pairs, sorted.  A lookup returns an id's first
/// position, which keeps "first occurrence wins" when a sequence repeats
/// a cutting id.
using IdIndex = std::vector<std::pair<net::PacketDigest, std::size_t>>;
constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

std::size_t first_position(const IdIndex& index, net::PacketDigest id) {
  const auto it = std::lower_bound(index.begin(), index.end(),
                                   std::pair{id, std::size_t{0}});
  return it != index.end() && it->first == id ? it->second : kAbsent;
}

/// Each side's boundary-id membership plus the "inverted" subset: common
/// cutting-point ids whose neighbourhood order differs between the two
/// sequences.  Two cutting points that land within the reorder window of
/// each other can swap across a link; both the pairwise migration
/// arithmetic and the 1:1 boundary match assume a shared boundary order,
/// so inverted boundaries must be treated as unmatchable — patch-up skips
/// them and the join coarsens across them on both sides.  Detection:
/// restrict each side's boundary sequence to the ids present on both
/// sides; an id whose predecessor differs between the restricted
/// sequences sits in an order-swapped neighbourhood.  (Loss-merged
/// boundaries are absent from one side, hence excluded, so plain loss
/// never marks a boundary inverted.)
///
/// Deliberately conservative: the first well-ordered boundary AFTER a
/// swapped pair is also flagged (its predecessor differs between the
/// sides).  That is intentional — swaps only happen between cuts closer
/// than the reorder window, so that boundary's AggTrans windows can
/// straddle the swapped region and its pairwise migrations would act on
/// mismatched aggregate pairs.  Coarsening one extra aggregate pair per
/// (rare) swap region costs granularity, never correctness.
struct BoundarySets {
  IdSet up_ids;
  IdSet down_ids;
  IdSet inverted;
};

IdSet cut_ids(Entries seq) {
  IdSet ids;
  ids.reserve(seq.size());
  for (std::size_t i = 1; i < seq.size(); ++i) ids.push_back(seq[i].cut_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

BoundarySets boundary_sets(Entries up, Entries down) {
  BoundarySets s;
  s.up_ids = cut_ids(up);
  s.down_ids = cut_ids(down);

  // Up's restricted sequence, and each id's first place in it.
  IdSet up_common;
  IdIndex up_place;
  for (std::size_t i = 1; i < up.size(); ++i) {
    const net::PacketDigest id = up[i].cut_id;
    if (!contains(s.down_ids, id)) continue;
    up_place.emplace_back(id, up_common.size());
    up_common.push_back(id);
  }
  std::sort(up_place.begin(), up_place.end());
  net::PacketDigest prev = 0;
  for (std::size_t j = 1; j < down.size(); ++j) {
    const net::PacketDigest id = down[j].cut_id;
    if (!contains(s.up_ids, id)) continue;
    const std::size_t k = first_position(up_place, id);
    if (k == kAbsent || (k == 0 ? 0 : up_common[k - 1]) != prev) {
      s.inverted.push_back(id);
    }
    prev = id;
  }
  std::sort(s.inverted.begin(), s.inverted.end());
  return s;
}

/// patch_up with the inverted-boundary set precomputed (align_aggregates
/// shares one computation between patch-up and the join; patching only
/// rewrites packet counts, never boundary ids, so the set is valid for
/// both), decomposed per boundary so the incremental consumer can
/// attribute migrations to a consumed prefix and carry the seam shift
/// forward.  `down_carry` seeds down[0]'s delta (the shift owed by a
/// previously consumed seam boundary).  up[i] is upstream entry number
/// `up_base + i`; a down entry whose counts were kept against the entry
/// its boundary faces now reuses them, any other is counted and keeps the
/// new counts.
struct PatchupDecomposed {
  /// Per down entry: its packet count after patch-up (carry included).
  /// Boundary ids never change, so the entries themselves are not copied.
  std::vector<std::uint32_t> counts;
  /// Per down entry j: migrations counted at the boundary CLOSING j,
  /// and the signed packet shift INTO j at that boundary (the matching
  /// -shift lands on j+1).  Zero for the final receipt.
  std::vector<std::size_t> mig_at;
  std::vector<std::int64_t> shift_at;
  std::size_t migrations = 0;
};

PatchupDecomposed patch_up_decomposed(Entries up,
                                      std::span<PreparedAggregate> down,
                                      std::uint64_t up_base,
                                      const IdSet& inverted,
                                      std::int64_t down_carry) {
  PatchupDecomposed result;
  result.counts.resize(down.size());
  result.mig_at.assign(down.size(), 0);
  result.shift_at.assign(down.size(), 0);

  // Index upstream boundaries by cutting-packet id.  Boundaries whose
  // order swapped across the link ("inverted") are skipped: the
  // (down[j], down[j+1]) pair no longer faces the matching upstream
  // pair, so the migration arithmetic below would shift counts between
  // the wrong neighbours.  The join coarsens across these instead.
  IdIndex up_boundary;
  up_boundary.reserve(up.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    const net::PacketDigest b = boundary_of(up, i);
    if (b != 0) up_boundary.emplace_back(b, i);
  }
  std::sort(up_boundary.begin(), up_boundary.end());

  for (std::size_t j = 0; j + 1 < down.size(); ++j) {
    const net::PacketDigest b = boundary_of(down, j);
    if (b == 0 || contains(inverted, b)) continue;
    const std::size_t i = first_position(up_boundary, b);
    if (i == kAbsent) continue;  // unmatched: join will merge
    // The counts depend only on the two entries' windows (`b` is down[j]'s
    // closing id whenever its `after` is non-empty), so they hold while
    // the boundary faces the same upstream entry.
    BoundaryCounts& c = down[j].counted;
    const std::uint64_t up_entry = up_base + i + 1;
    if (c.up_entry != up_entry) c = count_boundary(up[i], down[j], b, up_entry);
    result.shift_at[j] =
        static_cast<std::int64_t>(c.in) - static_cast<std::int64_t>(c.out);
    result.mig_at[j] = std::size_t{c.in} + c.out;
    result.migrations += result.mig_at[j];
  }
  // Migrations accumulate as signed deltas and apply once at the end: a
  // packet reordered across several nearby boundaries migrates at each of
  // them (chained +1/-1 on the aggregate between), and applying eagerly
  // could drive a small aggregate's unsigned count through zero mid-pass,
  // silently dropping the rest of its migrations.  delta[j] is the shift
  // in at j's closing boundary minus the shift out at its opening one.
  for (std::size_t j = 0; j < down.size(); ++j) {
    const std::int64_t delta =
        result.shift_at[j] - (j == 0 ? -down_carry : result.shift_at[j - 1]);
    const auto count = static_cast<std::int64_t>(down[j].packet_count);
    // Honest receipts never go negative (the final count is a membership
    // count); clamp defensively against inconsistent/hostile input.
    result.counts[j] =
        static_cast<std::uint32_t>(std::max<std::int64_t>(0, count + delta));
  }
  return result;
}

/// align_aggregates plus the per-boundary patch-up decomposition and a
/// down-side carry — the shared body of the batch and incremental entry
/// points.
struct AlignDecomposed {
  AlignmentResult result;
  /// mig_at and shift_at stay empty without patch-up.
  PatchupDecomposed patch;
};

AlignDecomposed align_decomposed(Entries up,
                                 std::span<PreparedAggregate> down,
                                 std::uint64_t up_base, bool apply_patchup,
                                 std::int64_t down_carry) {
  AlignDecomposed out;
  AlignmentResult& result = out.result;
  if (up.empty() || down.empty()) return out;

  // Computed once, shared by patch-up and the boundary-match loop below
  // (patching rewrites packet counts only, never boundary ids): each
  // side's boundary-id membership decides which side merges; the inverted
  // subset is treated as unmatchable.
  const BoundarySets sets = boundary_sets(up, down);
  const IdSet& up_cuts = sets.up_ids;
  const IdSet& down_cuts = sets.down_ids;
  const IdSet& inverted = sets.inverted;

  if (apply_patchup) {
    out.patch = patch_up_decomposed(up, down, up_base, inverted, down_carry);
    result.migrations = out.patch.migrations;
  } else {
    // Only the batch align_aggregates wrapper disables patch-up, and it
    // never carries a seam shift (the incremental entry points always
    // patch): a carry without the shift bookkeeping would break the
    // consumed-prefix invariant.
    (void)down_carry;
    out.patch.counts.reserve(down.size());
    for (const PreparedAggregate& e : down) {
      out.patch.counts.push_back(e.packet_count);
    }
  }
  const std::vector<std::uint32_t>& down_counts = out.patch.counts;

  std::size_t i = 0;
  std::size_t j = 0;
  AlignedAggregate acc;
  auto start_acc = [&](std::size_t ui, std::size_t dj) {
    acc = AlignedAggregate{};
    acc.up_count = up[ui].packet_count;
    acc.down_count = down_counts[dj];
    acc.up_receipts = 1;
    acc.down_receipts = 1;
    acc.up_opened = up[ui].opened_at;
    acc.up_closed = up[ui].closed_at;
  };
  auto absorb_up = [&](std::size_t ui) {
    acc.up_count += up[ui].packet_count;
    ++acc.up_receipts;
    acc.up_closed = up[ui].closed_at;
  };
  auto absorb_down = [&](std::size_t dj) {
    acc.down_count += down_counts[dj];
    ++acc.down_receipts;
  };
  start_acc(0, 0);

  while (i + 1 < up.size() || j + 1 < down.size()) {
    const bool up_has = i + 1 < up.size();
    const bool down_has = j + 1 < down.size();
    const net::PacketDigest up_cut = up_has ? up[i + 1].cut_id : 0;
    const net::PacketDigest down_cut = down_has ? down[j + 1].cut_id : 0;

    if (up_has && down_has && up_cut == down_cut &&
        !contains(inverted, up_cut)) {
      // Matched boundary: emit the joined aggregate.
      acc.boundary_id = up_cut;
      result.aligned.push_back(acc);
      ++result.boundaries_matched;
      ++i;
      ++j;
      start_acc(i, j);
      continue;
    }
    if (up_has && (!down_has || !contains(down_cuts, up_cut))) {
      // Upstream boundary invisible downstream (cut packet lost, or
      // downstream coarser): combine across it.
      ++i;
      absorb_up(i);
      ++result.boundaries_merged_up;
      continue;
    }
    if (down_has && (!up_has || !contains(up_cuts, down_cut))) {
      ++j;
      absorb_down(j);
      ++result.boundaries_merged_down;
      continue;
    }
    // Cutting points whose order swapped across the link (both cuts exist
    // on the other side, but their neighbourhoods disagree): no 1:1 match
    // exists, so coarsen across the region on BOTH sides in lockstep —
    // membership stays inside the combined aggregate and the counts stay
    // conserved.  (Advancing only one side here can run away past
    // perfectly good boundaries.)
    ++i;
    absorb_up(i);
    ++result.boundaries_merged_up;
    ++j;
    absorb_down(j);
    ++result.boundaries_merged_down;
  }
  acc.boundary_id = 0;
  result.aligned.push_back(acc);
  return out;
}

}  // namespace

std::vector<PreparedAggregate> prepare_aggregates(
    std::vector<AggregateReceipt> receipts) {
  std::vector<PreparedAggregate> out;
  out.reserve(receipts.size());
  for (AggregateReceipt& r : receipts) {
    std::vector<net::PacketDigest>& after = r.trans.after;
    // Members initialize in order: closing_id reads `after` before it moves.
    out.push_back(
        PreparedAggregate{.cut_id = r.agg.first,
                          .closing_id = after.empty() ? 0 : after.front(),
                          .packet_count = r.packet_count,
                          .opened_at = r.opened_at,
                          .closed_at = r.closed_at,
                          .before = std::move(r.trans.before),
                          .after = std::move(after),
                          .counted = {}});
  }
  return out;
}

PatchupResult patch_up(std::span<const AggregateReceipt> up,
                       std::span<const AggregateReceipt> down) {
  const std::vector<PreparedAggregate> u =
      prepare_aggregates({up.begin(), up.end()});
  std::vector<PreparedAggregate> d =
      prepare_aggregates({down.begin(), down.end()});
  const PatchupDecomposed p =
      patch_up_decomposed(u, d, /*up_base=*/0, boundary_sets(u, d).inverted,
                          /*down_carry=*/0);
  PatchupResult out{.down = {down.begin(), down.end()},
                    .migrations = p.migrations};
  for (std::size_t j = 0; j < out.down.size(); ++j) {
    out.down[j].packet_count = p.counts[j];
  }
  return out;
}

AlignmentResult align_aggregates(std::span<const AggregateReceipt> up,
                                 std::span<const AggregateReceipt> down,
                                 bool apply_patchup) {
  std::vector<PreparedAggregate> d =
      prepare_aggregates({down.begin(), down.end()});
  return align_decomposed(prepare_aggregates({up.begin(), up.end()}), d,
                          /*up_base=*/0, apply_patchup, /*down_carry=*/0)
      .result;
}

void AggregateTail::append_up(std::vector<PreparedAggregate> entries) {
  up.insert(up.end(), std::make_move_iterator(entries.begin()),
            std::make_move_iterator(entries.end()));
}

void AggregateTail::append_down(std::vector<PreparedAggregate> entries) {
  // Kept counts name an upstream entry by this tail's numbering.
  for (PreparedAggregate& e : entries) e.counted = BoundaryCounts{};
  down.insert(down.end(), std::make_move_iterator(entries.begin()),
              std::make_move_iterator(entries.end()));
}

AlignmentResult align_tail(AggregateTail& tail) {
  return align_decomposed(tail.up, tail.down, tail.up_base,
                          /*apply_patchup=*/true, tail.down_carry)
      .result;
}

TailConsumeStats consume_aligned_prefix(AggregateTail& tail,
                                        std::size_t margin_boundaries,
                                        std::vector<AlignedAggregate>& out,
                                        AlignmentResult& unconsumed) {
  TailConsumeStats stats;
  if (tail.up.empty() || tail.down.empty()) {
    unconsumed = AlignmentResult{};
    return stats;
  }

  AlignDecomposed aligned =
      align_decomposed(tail.up, tail.down, tail.up_base,
                       /*apply_patchup=*/true, tail.down_carry);
  // Every group but the final (unbounded) one is closed by a matched
  // boundary — the join emits groups only there.
  const std::size_t matched = aligned.result.aligned.size() - 1;
  if (matched <= margin_boundaries) {
    unconsumed = std::move(aligned.result);
    return stats;
  }
  const std::size_t consume = matched - margin_boundaries;

  std::size_t up_n = 0;
  std::size_t down_n = 0;
  for (std::size_t g = 0; g < consume; ++g) {
    const AlignedAggregate& a = aligned.result.aligned[g];
    up_n += a.up_receipts;
    down_n += a.down_receipts;
    out.push_back(a);
  }
  stats.groups = consume;
  for (std::size_t j = 0; j < down_n; ++j) {
    stats.migrations += aligned.patch.mig_at[j];
  }
  // The seam boundary's migration shift was applied to the consumed
  // neighbour in THIS run; its mirror image lands on the next tail
  // alignment's first receipt.
  tail.down_carry = -aligned.patch.shift_at[down_n - 1];
  tail.up_base += up_n;
  tail.up.erase(tail.up.begin(),
                tail.up.begin() + static_cast<std::ptrdiff_t>(up_n));
  tail.down.erase(tail.down.begin(),
                  tail.down.begin() + static_cast<std::ptrdiff_t>(down_n));
  return stats;
}

}  // namespace vpm::core
