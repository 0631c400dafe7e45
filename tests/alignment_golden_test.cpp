// Golden digest for the alignment kernels (Sections 6.1-6.3).
//
// The incremental and batch verifiers share align_aggregates' kernel, so
// their agreement cannot catch a change to the kernel itself.  This test
// pins the kernel's exact output instead: seeded random receipt pairs —
// generated from a packet stream with lost cutting packets, reordering
// that swaps nearby cuts, and a small id space that repeats cutting ids —
// run through align_aggregates (with and without patch-up), patch_up,
// align_tail under a seam carry and consume_aligned_prefix, and every
// output field is folded into one FNV-1a digest.
//
// kGoldenDigest was recorded from the unordered_set/unordered_map kernels
// that preceded the sorted-vector ones.  Its windows hold at most four
// ids, so kLargeWindowDigest pins the same outputs over AggTrans windows
// of 64-600 ids holding duplicates, id 0, the cutting id again inside
// `after` and ids on both sides of a boundary — how the §6.3 migration
// count treats each.  It was recorded from the kernel that sorted a copy
// of the upstream windows at every matched boundary, before windows were
// sorted once and merged.  A kernel change that moves any output field of
// any case changes a digest; the per-class counters below prove the
// inputs exercise each hazard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/alignment.hpp"

namespace vpm::core {
namespace {

constexpr std::uint64_t kGoldenDigest = 0xd1119d023d967782ull;
constexpr std::uint64_t kLargeWindowDigest = 0xf221b3d524a2a625ull;

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(const AlignmentResult& r) {
    add(r.aligned.size());
    for (const AlignedAggregate& a : r.aligned) add(a);
    add(r.boundaries_merged_up);
    add(r.boundaries_merged_down);
    add(r.boundaries_matched);
    add(r.migrations);
  }
  void add(const AlignedAggregate& a) {
    add(a.up_count);
    add(a.down_count);
    add(a.up_receipts);
    add(a.down_receipts);
    add_signed(a.up_opened.nanoseconds());
    add_signed(a.up_closed.nanoseconds());
    add(a.boundary_id);
  }
  void add(const AggregateReceipt& r) {
    add(r.agg.first);
    add(r.agg.last);
    add(r.packet_count);
    add(r.trans.before.size());
    for (const net::PacketDigest id : r.trans.before) add(id);
    add(r.trans.after.size());
    for (const net::PacketDigest id : r.trans.after) add(id);
    add_signed(r.opened_at.nanoseconds());
    add_signed(r.closed_at.nanoseconds());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Raw mt19937_64 draws only: the engine's sequence is fixed by the
/// standard, the <random> distributions are not.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool chance(std::uint64_t per_mille) { return below(1000) < per_mille; }

 private:
  std::mt19937_64 rng_;
};

/// What one generated case contains, for the coverage assertions.
struct Coverage {
  std::size_t lost_cuts = 0;
  std::size_t swapped_cuts = 0;
  std::size_t duplicate_cut_ids = 0;
};

/// Fills the AggTrans windows of the boundary at stream position `end`,
/// which closes the aggregate [begin, end) and opens [end, next_end).
using WindowFill = std::function<void(
    const std::vector<net::PacketDigest>& ids, TransWindow& trans,
    std::size_t begin, std::size_t end, std::size_t next_end)>;

/// Cut a packet stream into aggregate receipts.  A packet is a cutting
/// point by its id alone, as the protocol's hash-based cut is, so both
/// HOPs agree on which packets cut.  `fill` writes each closed
/// aggregate's AggTrans windows, the cutting packet first in `after`.
std::vector<AggregateReceipt> cut(const std::vector<net::PacketDigest>& ids,
                                  std::uint64_t cut_modulus,
                                  std::int64_t t0_ns, const WindowFill& fill) {
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k == 0 || ids[k] % cut_modulus == 0) starts.push_back(k);
  }
  std::vector<AggregateReceipt> out;
  for (std::size_t a = 0; a < starts.size(); ++a) {
    const std::size_t begin = starts[a];
    const std::size_t end = a + 1 < starts.size() ? starts[a + 1] : ids.size();
    AggregateReceipt r;
    r.agg = AggId{.first = ids[begin], .last = ids[end - 1]};
    r.packet_count = static_cast<std::uint32_t>(end - begin);
    r.opened_at = net::Timestamp{t0_ns + static_cast<std::int64_t>(begin) *
                                             1000};
    r.closed_at = net::Timestamp{t0_ns + static_cast<std::int64_t>(end - 1) *
                                             1000};
    if (end < ids.size()) {
      fill(ids, r.trans, begin, end,
           a + 2 < starts.size() ? starts[a + 2] : ids.size());
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Windows of up to `window` ids on each side of a boundary, within the
/// two aggregates it separates.
WindowFill capped_windows(std::size_t window) {
  return [window](const std::vector<net::PacketDigest>& ids,
                  TransWindow& trans, std::size_t begin, std::size_t end,
                  std::size_t next_end) {
    for (std::size_t k = end - std::min(window, end - begin); k < end; ++k) {
      trans.before.push_back(ids[k]);
    }
    for (std::size_t k = end; k < std::min(end + window, next_end); ++k) {
      trans.after.push_back(ids[k]);
    }
  };
}

struct Case {
  std::vector<AggregateReceipt> up;
  std::vector<AggregateReceipt> down;
};

/// A HOP pair watching one packet stream: loss between them, local
/// reordering (a packet overtakes up to three predecessors), and ids from
/// a space small enough that cutting ids repeat within a sequence.
Case stream_case(Draw& draw, Coverage& cov) {
  const std::size_t n = 20 + draw.below(180);
  const std::uint64_t id_space = 150 + draw.below(2000);
  const std::uint64_t cut_modulus = 4 + draw.below(8);
  const std::size_t window = 1 + draw.below(4);
  const std::uint64_t loss_pm = draw.below(120);
  const std::uint64_t reorder_pm = draw.below(250);

  std::vector<net::PacketDigest> up_ids;
  for (std::size_t k = 0; k < n; ++k) {
    up_ids.push_back(static_cast<net::PacketDigest>(1 + draw.below(id_space)));
  }

  std::vector<net::PacketDigest> down_ids;
  for (const net::PacketDigest id : up_ids) {
    if (draw.chance(loss_pm)) {
      if (id % cut_modulus == 0) ++cov.lost_cuts;
      continue;
    }
    down_ids.push_back(id);
  }
  for (std::size_t k = 1; k < down_ids.size(); ++k) {
    if (!draw.chance(reorder_pm)) continue;
    const std::size_t back = 1 + draw.below(std::min<std::size_t>(3, k));
    for (std::size_t m = k; m > k - back; --m) {
      if (down_ids[m] % cut_modulus == 0 &&
          down_ids[m - 1] % cut_modulus == 0) {
        ++cov.swapped_cuts;
      }
      std::swap(down_ids[m], down_ids[m - 1]);
    }
  }

  Case c;
  c.up = cut(up_ids, cut_modulus, 0, capped_windows(window));
  c.down = cut(down_ids, cut_modulus, 500, capped_windows(window));
  std::set<net::PacketDigest> seen;
  for (std::size_t i = 1; i < c.up.size(); ++i) {
    if (!seen.insert(c.up[i].agg.first).second) ++cov.duplicate_cut_ids;
  }
  return c;
}

/// Receipts with no stream behind them: cutting ids and AggTrans windows
/// drawn from a handful of ids, as a hostile or corrupt feed could send.
Case hostile_case(Draw& draw) {
  const std::uint64_t id_space = 2 + draw.below(12);
  const auto side = [&](std::size_t len) {
    std::vector<AggregateReceipt> seq;
    for (std::size_t i = 0; i < len; ++i) {
      AggregateReceipt r;
      const auto id = [&] {
        return static_cast<net::PacketDigest>(1 + draw.below(id_space));
      };
      r.agg = AggId{.first = id(), .last = id()};
      r.packet_count = static_cast<std::uint32_t>(draw.below(6));
      r.opened_at = net::Timestamp{static_cast<std::int64_t>(i) * 10};
      r.closed_at = net::Timestamp{static_cast<std::int64_t>(i) * 10 + 9};
      const std::size_t nb = draw.below(4);
      const std::size_t na = draw.below(4);
      for (std::size_t k = 0; k < nb; ++k) {
        r.trans.before.push_back(draw.below(id_space + 1));
      }
      for (std::size_t k = 0; k < na; ++k) {
        r.trans.after.push_back(draw.below(id_space + 1));
      }
      seq.push_back(std::move(r));
    }
    return seq;
  };
  Case c;
  c.up = side(draw.below(9));
  c.down = side(draw.below(9));
  return c;
}

void digest_case(const Case& c, Draw& draw, Digest& d) {
  d.add(align_aggregates(c.up, c.down, true));
  d.add(align_aggregates(c.up, c.down, false));

  const PatchupResult p = patch_up(c.up, c.down);
  d.add(p.down.size());
  for (const AggregateReceipt& r : p.down) d.add(r);
  d.add(p.migrations);

  AggregateTail tail;
  tail.append_up(prepare_aggregates(c.up));
  tail.append_down(prepare_aggregates(c.down));
  tail.down_carry = static_cast<std::int64_t>(draw.below(5)) - 2;
  d.add(align_tail(tail));

  std::vector<AlignedAggregate> consumed;
  AlignmentResult unconsumed;
  const TailConsumeStats stats =
      consume_aligned_prefix(tail, draw.below(3), consumed, unconsumed);
  if (stats.groups == 0) {
    EXPECT_EQ(unconsumed, align_tail(tail));
  }
  d.add(stats.groups);
  d.add(stats.migrations);
  d.add(consumed.size());
  for (const AlignedAggregate& a : consumed) d.add(a);
  d.add(tail.up.size());
  d.add(tail.down.size());
  d.add_signed(tail.down_carry);
  d.add(align_tail(tail));
}

/// What the large-window cases contain, for the coverage assertions.
struct WindowCoverage {
  std::size_t windows_over_500 = 0;
  std::size_t duplicate_ids = 0;     ///< repeats within one window
  std::size_t zero_ids = 0;
  std::size_t zero_closing_ids = 0;  ///< `after` that starts with id 0
  std::size_t repeated_cut_ids = 0;  ///< cutting id again inside `after`
  std::size_t shared_ids = 0;        ///< ids on both sides of a boundary
};

void count_window(const std::vector<net::PacketDigest>& window,
                  WindowCoverage& cov) {
  std::vector<net::PacketDigest> sorted = window;
  std::sort(sorted.begin(), sorted.end());
  cov.duplicate_ids += static_cast<std::size_t>(
      sorted.end() - std::unique(sorted.begin(), sorted.end()));
  cov.zero_ids += static_cast<std::size_t>(
      std::count(window.begin(), window.end(), net::PacketDigest{0}));
  if (window.size() > 500) ++cov.windows_over_500;
}

/// Windows as a busy path's J-window holds them: `window` ids on each side
/// of a boundary, reaching across neighbouring cuts (fewer only where the
/// stream begins or ends).  Some windows are then damaged the way a
/// hostile feed could: id 0 in a slot, the cutting id again inside
/// `after`, an id copied to the other side of the boundary, and rarely an
/// `after` that opens with id 0.
WindowFill wide_windows(std::size_t window, Draw& draw, WindowCoverage& cov) {
  return [window, &draw, &cov](const std::vector<net::PacketDigest>& ids,
                               TransWindow& trans, std::size_t /*begin*/,
                               std::size_t end, std::size_t /*next_end*/) {
    std::vector<net::PacketDigest>& before = trans.before;
    std::vector<net::PacketDigest>& after = trans.after;
    before.assign(ids.begin() + static_cast<std::ptrdiff_t>(
                                    end - std::min(window, end)),
                  ids.begin() + static_cast<std::ptrdiff_t>(end));
    after.assign(ids.begin() + static_cast<std::ptrdiff_t>(end),
                 ids.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(end + window, ids.size())));
    const auto slot = [&](const std::vector<net::PacketDigest>& w) {
      return static_cast<std::ptrdiff_t>(1 + draw.below(w.size() - 1));
    };
    if (draw.chance(150)) before[draw.below(before.size())] = 0;
    if (after.size() > 1 && draw.chance(150)) after[slot(after)] = 0;
    if (after.size() > 1 && draw.chance(200)) {
      after.insert(after.begin() + slot(after), after.front());
      ++cov.repeated_cut_ids;
    }
    if (after.size() > 1 && draw.chance(200)) {
      after.insert(after.begin() + slot(after),
                   before[draw.below(before.size())]);
    }
    if (draw.chance(200)) {
      before.insert(before.begin() + static_cast<std::ptrdiff_t>(
                                         draw.below(before.size() + 1)),
                    after[draw.below(after.size())]);
    }
    if (draw.chance(20)) after.front() = 0;
    if (after.front() == 0) ++cov.zero_closing_ids;
    count_window(before, cov);
    count_window(after, cov);
    std::vector<net::PacketDigest> b = before;
    std::vector<net::PacketDigest> f = after;
    std::sort(b.begin(), b.end());
    std::sort(f.begin(), f.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
    std::vector<net::PacketDigest> both;
    std::set_intersection(b.begin(), b.end(), f.begin(), f.end(),
                          std::back_inserter(both));
    cov.shared_ids += both.size();
  };
}

/// A HOP pair on a busy path: thousands of packets from a small id space,
/// cuts every 64-320 packets, AggTrans windows of 64-600 ids, loss, and
/// reordering that moves a packet back up to eight places — across a cut
/// often enough that the patch-up migrates hundreds of packets per case.
Case large_window_case(Draw& draw, WindowCoverage& cov) {
  const std::size_t n = 2000 + draw.below(3000);
  const std::uint64_t id_space = 1000 + draw.below(4000);
  const std::uint64_t cut_modulus = 64 + draw.below(257);
  const std::size_t window = 64 + draw.below(537);
  const std::uint64_t loss_pm = draw.below(40);
  const std::uint64_t reorder_pm = draw.below(300);

  std::vector<net::PacketDigest> up_ids;
  for (std::size_t k = 0; k < n; ++k) {
    up_ids.push_back(static_cast<net::PacketDigest>(1 + draw.below(id_space)));
  }
  std::vector<net::PacketDigest> down_ids;
  for (const net::PacketDigest id : up_ids) {
    if (!draw.chance(loss_pm)) down_ids.push_back(id);
  }
  for (std::size_t k = 1; k < down_ids.size(); ++k) {
    if (!draw.chance(reorder_pm)) continue;
    const std::size_t back = 1 + draw.below(std::min<std::size_t>(8, k));
    for (std::size_t m = k; m > k - back; --m) {
      std::swap(down_ids[m], down_ids[m - 1]);
    }
  }

  Case c;
  c.up = cut(up_ids, cut_modulus, 0, wide_windows(window, draw, cov));
  c.down = cut(down_ids, cut_modulus, 500, wide_windows(window, draw, cov));
  return c;
}

TEST(AlignmentGolden, KernelOutputsMatchRecordedDigest) {
  Draw draw(20260117);
  Digest digest;
  Coverage cov;
  for (int k = 0; k < 600; ++k) {
    const Case c = k % 3 == 2 ? hostile_case(draw) : stream_case(draw, cov);
    digest_case(c, draw, digest);
  }
  EXPECT_GT(cov.lost_cuts, 50u);
  EXPECT_GT(cov.swapped_cuts, 50u);
  EXPECT_GT(cov.duplicate_cut_ids, 50u);
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << std::hex << "digest 0x" << digest.value();
}

TEST(AlignmentGolden, LargeWindowsMatchRecordedDigest) {
  Draw draw(20261017);
  Digest digest;
  WindowCoverage cov;
  std::size_t migrations = 0;
  for (int k = 0; k < 60; ++k) {
    const Case c = large_window_case(draw, cov);
    migrations += align_aggregates(c.up, c.down, true).migrations;
    digest_case(c, draw, digest);
  }
  EXPECT_GT(cov.windows_over_500, 500u);
  EXPECT_GT(cov.duplicate_ids, 10000u);
  EXPECT_GT(cov.zero_ids, 300u);
  EXPECT_GT(cov.zero_closing_ids, 20u);
  EXPECT_GT(cov.repeated_cut_ids, 200u);
  EXPECT_GT(cov.shared_ids, 10000u);
  EXPECT_GT(migrations, 10000u);
  EXPECT_EQ(digest.value(), kLargeWindowDigest)
      << std::hex << "digest 0x" << digest.value();
}

}  // namespace
}  // namespace vpm::core
