// The round-fed verifier against the materialized reference.
//
// Incremental alignment: consumed prefix + tail must reproduce batch
// align_aggregates over arbitrary feed slicings, including patch-up
// migrations whose shift straddles a consumed seam.  Incremental
// verification: IncrementalPathVerifier fed rounds with realistic shipping
// lag (any HOP may ship late, an egress HOP even before its ingress HOP)
// must produce analyze() findings identical to PathVerifier over the
// concatenated receipts after every round — violations included, and
// with AggTrans windows whose §6.3 migrations need a middle HOP's
// windows in both of its pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "core/consistency.hpp"
#include "core/incremental_verifier.hpp"
#include "core/verifier.hpp"
#include "net/path_id.hpp"
#include "stats/delay_accuracy.hpp"
#include "stats/quantile.hpp"

namespace vpm::core {
namespace {

net::PathId test_path() {
  net::PathId id;
  id.max_diff = net::milliseconds(5);
  return id;
}

AggregateReceipt agg(net::PacketDigest first, std::uint32_t count,
                     std::int64_t opened_ms, std::int64_t closed_ms) {
  AggregateReceipt r;
  r.path = test_path();
  r.agg = AggId{.first = first, .last = first + 7};
  r.packet_count = count;
  r.opened_at = net::Timestamp{net::milliseconds(opened_ms).nanoseconds()};
  r.closed_at = net::Timestamp{net::milliseconds(closed_ms).nanoseconds()};
  return r;
}

// --- incremental alignment ------------------------------------------------

// Random upstream sequence; downstream merges random runs of it (coarser
// cuts / lost cutting packets).  Feeding the two sides at different paces
// with per-step consumption must reproduce the batch alignment exactly.
TEST(IncrementalAlignment, ConsumedPrefixPlusTailEqualsBatch) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::uniform_int_distribution<std::uint32_t> count_dist(50, 150);
    std::uniform_int_distribution<int> run_dist(1, 3);
    const std::size_t n = 40;
    std::vector<AggregateReceipt> up;
    for (std::size_t i = 0; i < n; ++i) {
      up.push_back(agg(1000 + 10 * static_cast<net::PacketDigest>(i),
                       count_dist(rng), static_cast<std::int64_t>(i) * 10,
                       static_cast<std::int64_t>(i) * 10 + 9));
    }
    std::vector<AggregateReceipt> down;
    for (std::size_t i = 0; i < n;) {
      const std::size_t run =
          std::min<std::size_t>(static_cast<std::size_t>(run_dist(rng)),
                                n - i);
      AggregateReceipt merged = up[i];
      for (std::size_t k = 1; k < run; ++k) {
        merged.packet_count += up[i + k].packet_count;
        merged.agg.last = up[i + k].agg.last;
        merged.closed_at = up[i + k].closed_at;
      }
      down.push_back(merged);
      i += run;
    }

    const AlignmentResult batch = align_aggregates(up, down, true);

    AggregateTail tail;
    std::vector<AlignedAggregate> consumed;
    AlignmentResult unconsumed;
    std::size_t consumed_migrations = 0;
    std::size_t ui = 0;
    std::size_t di = 0;
    std::uniform_int_distribution<std::size_t> chunk(1, 5);
    while (ui < up.size() || di < down.size()) {
      const std::size_t un = std::min(chunk(rng), up.size() - ui);
      tail.append_up(
          prepare_aggregates({up.begin() + ui, up.begin() + ui + un}));
      ui += un;
      const std::size_t dn = std::min(chunk(rng), down.size() - di);
      tail.append_down(
          prepare_aggregates({down.begin() + di, down.begin() + di + dn}));
      di += dn;
      const TailConsumeStats stats =
          consume_aligned_prefix(tail, 2, consumed, unconsumed);
      consumed_migrations += stats.migrations;
      if (stats.groups == 0) {
        ASSERT_EQ(unconsumed, align_tail(tail))
            << "trial " << trial << ": a call that consumes nothing hands "
            << "out the tail's alignment";
      }
    }
    const AlignmentResult rest = align_tail(tail);
    std::vector<AlignedAggregate> all = consumed;
    all.insert(all.end(), rest.aligned.begin(), rest.aligned.end());

    ASSERT_EQ(all, batch.aligned) << "trial " << trial;
    EXPECT_EQ(consumed_migrations + rest.migrations, batch.migrations);
    EXPECT_LT(tail.receipt_count(), up.size() + down.size())
        << "the tail must actually have consumed receipts";
  }
}

// A patch-up migration at the consumed seam boundary: its shift into the
// consumed group applies immediately, the mirror shift rides the carry
// into the next tail alignment.
TEST(IncrementalAlignment, SeamMigrationCarriesAcrossConsumption) {
  const net::PacketDigest b1 = 2000;
  const net::PacketDigest b2 = 3000;
  const net::PacketDigest wanderer = 4242;

  std::vector<AggregateReceipt> up = {agg(1000, 100, 0, 9),
                                      agg(b1, 100, 10, 19),
                                      agg(b2, 100, 20, 29)};
  std::vector<AggregateReceipt> down = up;
  // The upstream HOP saw `wanderer` after the b2 cut; the downstream HOP
  // counted it before — §6.3 migrates it down[1] -> down[2].
  up[1].trans.after = {b2, wanderer};
  down[1].trans.after = {b2};
  down[1].trans.before = {wanderer};

  const AlignmentResult batch = align_aggregates(up, down, true);
  ASSERT_EQ(batch.migrations, 1u);
  ASSERT_EQ(batch.aligned.size(), 3u);
  ASSERT_EQ(batch.aligned[1].down_count, 99u);
  ASSERT_EQ(batch.aligned[2].down_count, 101u);

  // Margin 0 forces consumption right through the migrated boundary.
  AggregateTail tail;
  tail.append_up(prepare_aggregates(up));
  tail.append_down(prepare_aggregates(down));
  std::vector<AlignedAggregate> consumed;
  AlignmentResult unconsumed;
  const TailConsumeStats stats =
      consume_aligned_prefix(tail, 0, consumed, unconsumed);
  ASSERT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(tail.down_carry, 1) << "the +1 into down[2] rides the carry";
  EXPECT_EQ(unconsumed, AlignmentResult{})
      << "a call that consumes leaves `unconsumed` as it was";

  const AlignmentResult rest = align_tail(tail);
  EXPECT_EQ(consume_aligned_prefix(tail, 0, consumed, unconsumed).groups, 0u);
  EXPECT_EQ(unconsumed, rest) << "the carry applies to the handed-out tail";
  std::vector<AlignedAggregate> all = consumed;
  all.insert(all.end(), rest.aligned.begin(), rest.aligned.end());
  EXPECT_EQ(all, batch.aligned);
  EXPECT_EQ(stats.migrations + rest.migrations, batch.migrations);
}

// A cutting id that repeats inside a tail is an inverted boundary until
// its first occurrence is consumed; the next pass then matches it and
// consumes again.  So a caller consumes until a pass consumes nothing,
// and that pass's alignment is the tail's — what the verifier keeps for
// analyze().
TEST(IncrementalAlignment, ConsumingUntilIdleHandsOutTheTailAlignment) {
  const std::vector<AggregateReceipt> receipts = {
      agg(1000, 10, 0, 9), agg(2000, 10, 10, 19), agg(3000, 10, 20, 29),
      agg(2000, 10, 30, 39)};
  AggregateTail tail;
  tail.append_up(prepare_aggregates(receipts));
  tail.append_down(prepare_aggregates(receipts));
  std::vector<AlignedAggregate> consumed;
  AlignmentResult unconsumed;
  EXPECT_EQ(consume_aligned_prefix(tail, 0, consumed, unconsumed).groups, 1u);
  EXPECT_EQ(consume_aligned_prefix(tail, 0, consumed, unconsumed).groups, 1u);
  EXPECT_EQ(consume_aligned_prefix(tail, 0, consumed, unconsumed).groups, 0u);
  EXPECT_EQ(unconsumed, align_tail(tail));
  std::vector<AlignedAggregate> all = consumed;
  all.insert(all.end(), unconsumed.aligned.begin(), unconsumed.aligned.end());
  ASSERT_EQ(all.size(), 3u);

  // One settle runs the same passes: both HOPs' single round leaves the
  // verifier holding exactly those groups.
  const PathLayout layout{.hops = {1, 2}, .domain_of = {"x", "x"}};
  IncrementalPathVerifier verifier(IncrementalPathVerifier::Config{
      .layout = layout, .retain_rounds = 4, .margin_boundaries = 0});
  for (const net::HopId hop : {1, 2}) {
    PathDrain d;
    d.samples.path = test_path();
    d.aggregates = receipts;
    verifier.add_round(hop, std::move(d));
  }
  EXPECT_EQ(verifier.analyze().domains.at(0).loss.details, all);
}

// --- the round-fed verifier ----------------------------------------------

/// Crafted three-HOP rounds (A,B alpha; C beta) with shipping lag: HOP
/// position i ships each round `lag[i]` reporting rounds late (by default
/// HOP 2 one round, HOP 3 two).  Round 3 adds 10 ms to HOP 3's times (link
/// delay-bound violations); round 5 under-counts HOP 3's aggregate
/// (count-mismatch violation).
///
/// With `windows`, every aggregate also carries an AggTrans window and the
/// HOPs disagree on which side of each cut a few packets fall: HOP 2 counts
/// packet A(r,0) before cut r where HOP 1 counts it after, and HOP 3
/// counts it after again, plus A(r,1) before the cut in odd rounds.  Every
/// boundary then needs §6.3 migrations in both pairs, in both directions
/// at HOP 2/3, so HOP 2's windows must reach both of its pairs intact.
struct CraftedRun {
  static constexpr std::size_t kRounds = 8;
  PathLayout layout{.hops = {1, 2, 3},
                    .domain_of = {"alpha", "alpha", "beta"}};
  std::array<std::size_t, 3> lag{0, 1, 2};
  bool windows = false;

  /// The packets near cut r: B(r,k) before it, A(r,k) after it.
  static net::PacketDigest before_id(std::size_t r, std::size_t k) {
    return static_cast<net::PacketDigest>(600'000 + 10 * r + k);
  }
  static net::PacketDigest after_id(std::size_t r, std::size_t k) {
    return static_cast<net::PacketDigest>(700'000 + 10 * r + k);
  }
  /// Whether HOP position `hop_pos` counts A(r,k) before cut r.  The last
  /// round's aggregate is the run's open one: no cut closes it.
  static bool counted_before(std::size_t hop_pos, std::size_t r,
                             std::size_t k) {
    return r + 1 < kRounds && ((hop_pos == 1 && k == 0) ||
                               (hop_pos == 2 && k == 1 && r % 2 == 1));
  }

  [[nodiscard]] PathDrain round_data(std::size_t hop_pos,
                                     std::size_t r) const {
    const std::int64_t base_ns =
        net::milliseconds(static_cast<std::int64_t>(r)).nanoseconds();
    std::int64_t shift_ns =
        net::microseconds(200 * static_cast<std::int64_t>(hop_pos))
            .nanoseconds();
    if (hop_pos == 2 && r == 3) {
      shift_ns += net::milliseconds(10).nanoseconds();  // past MaxDiff
    }
    PathDrain d;
    d.samples.path = test_path();
    for (std::uint32_t k = 0; k < 5; ++k) {
      d.samples.samples.push_back(SampleRecord{
          .pkt_id = static_cast<net::PacketDigest>(100 * r + k + 1),
          .time = net::Timestamp{base_ns + shift_ns + k * 10'000},
          .is_marker = false});
    }
    d.samples.samples.push_back(SampleRecord{
        .pkt_id = static_cast<net::PacketDigest>(90'000 + r),
        .time = net::Timestamp{base_ns + shift_ns + 500'000},
        .is_marker = true});

    std::uint32_t count = 1000;
    if (hop_pos == 2 && r == 5) count = 997;  // link count mismatch
    AggregateReceipt a =
        agg(static_cast<net::PacketDigest>(5000 + r), count,
            static_cast<std::int64_t>(r), static_cast<std::int64_t>(r));
    if (windows && r + 1 < kRounds) {
      a.trans.after.push_back(static_cast<net::PacketDigest>(5000 + r + 1));
      for (std::size_t k = 0; k < 4; ++k) {
        a.trans.before.push_back(before_id(r, k));
      }
      for (std::size_t k = 0; k < 3; ++k) {
        (counted_before(hop_pos, r, k) ? a.trans.before : a.trans.after)
            .push_back(after_id(r, k));
      }
    }
    // A packet counted before cut r moves from aggregate r+1 into r.
    for (std::size_t k = 0; windows && k < 3; ++k) {
      if (counted_before(hop_pos, r, k)) ++a.packet_count;
      if (r > 0 && counted_before(hop_pos, r - 1, k)) --a.packet_count;
    }
    d.aggregates.push_back(std::move(a));
    return d;
  }

  /// The drain HOP `hop_pos` ships at reporting round `t` (lag applied),
  /// or an empty drain when it has nothing yet.
  [[nodiscard]] PathDrain shipped(std::size_t hop_pos, std::size_t t) const {
    const std::size_t late = lag[hop_pos];
    if (t >= late && t - late < kRounds) return round_data(hop_pos, t - late);
    PathDrain empty;
    empty.samples.path = test_path();
    return empty;
  }
};

// Every lag pattern must match the materialized verifier after EVERY
// round, not only at the end.  {0,1,2} ships downstream HOPs late; {2,0,1}
// and {1,0,0} ship the domain's egress HOP before its ingress HOP, so
// egress samples wait in pending_egress for their late ingress twin.
// Margins 0 and 1 consume closer to the tail's end, so analyze() reads
// the kept alignment of a shorter tail.
TEST(IncrementalVerifier, MatchesMaterializedVerifierWithShippingLag) {
  const std::array<std::array<std::size_t, 3>, 3> lags = {
      {{0, 1, 2}, {2, 0, 1}, {1, 0, 0}}};
  for (const std::size_t margin : {0u, 1u, 2u}) {
    for (const bool windows : {false, true}) {
      for (const std::array<std::size_t, 3>& lag : lags) {
        CraftedRun run;
        run.lag = lag;
        run.windows = windows;
        const std::string label = "margin " + std::to_string(margin) + ", " +
                                  std::string(windows ? "windowed, " : "") +
                                  "lags {" + std::to_string(lag[0]) + "," +
                                  std::to_string(lag[1]) + "," +
                                  std::to_string(lag[2]) + "}";
        IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
            .layout = run.layout,
            .retain_rounds = 4,
            .margin_boundaries = margin});
        PathVerifier reference;

        std::size_t max_tail = 0;
        std::size_t max_pending_egress = 0;
        for (std::size_t t = 0; t < CraftedRun::kRounds + 2; ++t) {
          for (std::size_t pos = 0; pos < 3; ++pos) {
            PathDrain d = run.shipped(pos, t);
            reference.add_round(run.layout.hops[pos], d);
            incremental.add_round(run.layout.hops[pos], std::move(d));
          }
          // analyze() is a non-destructive view, equal to the materialized
          // analysis of everything fed so far, field for field.
          ASSERT_EQ(incremental.analyze(), reference.analyze(run.layout))
              << label << ", round " << t;
          const IncrementalPathVerifier::ResidentStats stats =
              incremental.resident_stats();
          max_tail = std::max(max_tail, stats.tail_aggregate_receipts);
          max_pending_egress =
              std::max(max_pending_egress, stats.pending_egress_samples);
        }

        const PathAnalysis live = incremental.analyze();
        ASSERT_EQ(live.domains.size(), 1u) << label;
        ASSERT_EQ(live.links.size(), 1u) << label;

        // The crafted defects must actually show up.
        EXPECT_GT(live.domains[0].delay.common_samples, 0u) << label;
        EXPECT_FALSE(live.links[0].report.samples.consistent())
            << label << ": round 3's 10 ms shift must violate the delay bound";
        EXPECT_FALSE(live.links[0].report.aggregates.consistent())
            << label
            << ": round 5's under-count must violate count consistency";
        EXPECT_TRUE(live.domains[0].loss.offered > 0) << label;
        // Patched, the windowed counts agree everywhere but round 5.
        EXPECT_EQ(live.domains[0].loss.offered, live.domains[0].loss.delivered)
            << label;
        EXPECT_EQ(live.links[0].report.aggregates.violations.size(), 1u)
            << label;
        EXPECT_EQ(live.domains[0].loss.patchup_migrations,
                  windows ? CraftedRun::kRounds - 1 : 0u)
            << label;

        // An egress HOP shipping ahead of its ingress HOP buffers samples.
        if (lag[1] < lag[0]) {
          EXPECT_GT(max_pending_egress, 0u) << label;
        } else {
          EXPECT_EQ(max_pending_egress, 0u) << label;
        }
        // Bounded retention: the alignment tails never held everything.
        EXPECT_LT(max_tail, 2 * 2 * CraftedRun::kRounds)
            << label << ": tails must stay a window, not history";
        EXPECT_EQ(incremental.resident_stats().expired_unmatched, 0u) << label;
      }
    }
  }
}

TEST(IncrementalVerifier, MissingHopYieldsEmptyFindings) {
  const CraftedRun run;
  IncrementalPathVerifier incremental(
      IncrementalPathVerifier::Config{.layout = run.layout});
  PathVerifier reference;
  for (std::size_t r = 0; r < 3; ++r) {
    PathDrain d = run.round_data(0, r);
    reference.add_round(1, d);
    incremental.add_round(1, std::move(d));
  }
  // HOPs 2 and 3 never reported: both verifiers emit empty findings.
  EXPECT_EQ(incremental.analyze(), reference.analyze(run.layout));
}

TEST(IncrementalVerifier, ValidatesConfigAndHops) {
  PathLayout bad{.hops = {1, 2}, .domain_of = {"a"}};
  EXPECT_THROW(
      IncrementalPathVerifier(IncrementalPathVerifier::Config{.layout = bad}),
      std::invalid_argument);

  PathLayout ok{.hops = {1, 2}, .domain_of = {"a", "a"}};
  EXPECT_THROW(IncrementalPathVerifier(IncrementalPathVerifier::Config{
                   .layout = ok, .retain_rounds = 0}),
               std::invalid_argument);

  // A HOP listed twice would feed its receipts to two positions.
  for (const PathLayout& repeated :
       {PathLayout{.hops = {1, 1}, .domain_of = {"a", "a"}},
        PathLayout{.hops = {1, 2, 3, 2}, .domain_of = {"a", "a", "b", "b"}}}) {
    EXPECT_THROW(IncrementalPathVerifier(
                     IncrementalPathVerifier::Config{.layout = repeated}),
                 std::invalid_argument);
  }

  IncrementalPathVerifier v(
      IncrementalPathVerifier::Config{.layout = ok});
  EXPECT_THROW(v.add_round(42, PathDrain{}), std::invalid_argument);
  EXPECT_EQ(v.rounds_ingested(1), 0u);
  EXPECT_EQ(v.rounds_ingested(42), 0u);
  v.add_round(1, PathDrain{});
  EXPECT_EQ(v.rounds_ingested(1), 1u);
  EXPECT_EQ(v.rounds_ingested(2), 0u);
}

/// One sample record at `ms` milliseconds.
SampleRecord sample_at(net::PacketDigest id, std::int64_t ms) {
  return SampleRecord{
      .pkt_id = id,
      .time = net::Timestamp{net::milliseconds(ms).nanoseconds()},
      .is_marker = false};
}

/// A marker record at `ms` milliseconds.
SampleRecord marker_at(net::PacketDigest id, std::int64_t ms) {
  SampleRecord r = sample_at(id, ms);
  r.is_marker = true;
  return r;
}

PathDrain samples_drain(std::vector<SampleRecord> records) {
  PathDrain d;
  d.samples.path = test_path();
  d.samples.samples = std::move(records);
  return d;
}

// An egress sample whose ingress twin never arrives expires after
// retain_rounds and gives back its reserved slot, while samples around it
// keep egress order: one matched before it, two resolved late, and one
// still buffered when it expires, whose slot must move down.
TEST(IncrementalVerifier, ExpiredEgressSampleLeavesExactDelays) {
  const PathLayout layout{.hops = {1, 2}, .domain_of = {"x", "x"}};
  IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
      .layout = layout, .retain_rounds = 2, .margin_boundaries = 2});
  PathVerifier reference;
  const auto feed = [&](net::HopId hop, std::vector<SampleRecord> records) {
    PathDrain d = samples_drain(std::move(records));
    reference.add_round(hop, d);
    incremental.add_round(hop, std::move(d));
  };
  constexpr net::PacketDigest kB = 11, kA = 12, kE = 13, kC = 14, kD = 15;

  // Round 1: egress ships first; B's ingress follows, A's never does.
  feed(2, {sample_at(kB, 6), sample_at(kA, 7)});
  feed(1, {sample_at(kB, 4)});
  EXPECT_EQ(incremental.resident_stats().pending_egress_samples, 1u);
  // Round 2: E waits for its ingress.
  feed(2, {sample_at(kE, 17)});
  feed(1, {});
  // Round 3: E's and C's ingress arrive; A is still inside retention.
  feed(2, {sample_at(kC, 25)});
  feed(1, {sample_at(kE, 14), sample_at(kC, 21)});
  EXPECT_EQ(incremental.resident_stats().expired_unmatched, 0u);
  // Round 4: A expires while D is buffered behind it; D's ingress then
  // fills the slot D holds after A's slot is gone.
  feed(2, {sample_at(kD, 35)});
  EXPECT_EQ(incremental.resident_stats().expired_unmatched, 1u);
  EXPECT_EQ(incremental.resident_stats().pending_egress_samples, 1u);
  feed(1, {sample_at(kD, 34)});

  const PathAnalysis live = incremental.analyze();
  ASSERT_EQ(live.domains.size(), 1u);
  const DomainDelayReport& delay = live.domains[0].delay;
  EXPECT_EQ(delay.sample_delays_ms, (std::vector<double>{2.0, 3.0, 4.0, 1.0}))
      << "egress order B, E, C, D with A removed";
  EXPECT_EQ(delay.common_samples, 4u);
  stats::QuantileEstimator reference_quantiles;
  reference_quantiles.add_all(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(delay.quantiles,
            reference_quantiles.estimate_many(stats::kDelayQuantiles, 0.95));
  const IncrementalPathVerifier::ResidentStats stats =
      incremental.resident_stats();
  EXPECT_EQ(stats.expired_unmatched, 1u);
  EXPECT_EQ(stats.pending_egress_samples, 0u);
  EXPECT_EQ(stats.retained_delays, 4u);
  // The materialized verifier never expires anything, and A never
  // matches there either.
  EXPECT_EQ(live, reference.analyze(layout));
}

// An ingress digest seen twice keeps its first record — whether the
// repeat comes later in the same round or in a later round — until that
// record expires; then the digest is accepted afresh.  Only entries no
// egress sample matched count as expired_unmatched.
TEST(IncrementalVerifier, RepeatedIngressDigestKeepsFirstRecordUntilExpiry) {
  const PathLayout layout{.hops = {1, 2}, .domain_of = {"x", "x"}};
  IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
      .layout = layout, .retain_rounds = 2, .margin_boundaries = 2});
  PathVerifier reference;
  const auto feed = [&](net::HopId hop, std::vector<SampleRecord> records) {
    PathDrain d = samples_drain(std::move(records));
    reference.add_round(hop, d);
    incremental.add_round(hop, std::move(d));
  };
  const auto delays = [&] {
    return incremental.analyze().domains.at(0).delay.sample_delays_ms;
  };
  constexpr net::PacketDigest kD = 21, kU = 22;

  // Rounds 1-2 (pair clock 1-2): D three times, U never matched.
  feed(1, {sample_at(kD, 10), sample_at(kU, 11), sample_at(kD, 12)});
  feed(2, {});
  feed(1, {sample_at(kD, 20)});
  feed(2, {sample_at(kD, 25)});
  EXPECT_EQ(delays(), std::vector<double>{15.0}) << "D's first record";
  EXPECT_EQ(incremental.analyze(), reference.analyze(layout));
  EXPECT_EQ(incremental.resident_stats().pending_ingress_samples, 2u);

  // Clock 4 expires clock 1's entries: matched D and unmatched U.
  for (int round = 3; round <= 4; ++round) {
    feed(1, {});
    feed(2, {});
  }
  IncrementalPathVerifier::ResidentStats stats = incremental.resident_stats();
  EXPECT_EQ(stats.pending_ingress_samples, 0u);
  EXPECT_EQ(stats.expired_unmatched, 1u) << "U only: D was matched";

  // D again: accepted afresh, so its egress twin matches the new record
  // (the materialized verifier, which expires nothing, would still match
  // the first one).
  feed(1, {sample_at(kD, 50)});
  feed(2, {sample_at(kD, 52)});
  EXPECT_EQ(delays(), (std::vector<double>{15.0, 2.0}));
  stats = incremental.resident_stats();
  EXPECT_EQ(stats.pending_ingress_samples, 1u);
  EXPECT_EQ(stats.expired_unmatched, 1u);
}

// A lying downstream HOP can close ~100k empty sampling rounds in one feed
// (an empty marker round is 9 wire bytes).  The link finding still equals
// the batch check's after every round: the first of two downstream rounds
// with one marker wins, whether the repeat comes later in its feed or in a
// later feed; an upstream round whose marker never shows blocks the rounds
// behind it until it expires, and they then match.  The rounds sit sorted
// by marker id and are found by binary search: a linear search per round
// would make this one feed quadratic.
TEST(IncrementalVerifier, ManyDownstreamMarkerRoundsMatchTheBatchCheck) {
  constexpr net::PacketDigest kRounds = 100'000;
  constexpr net::PacketDigest kFirst = 1000;  // downstream markers' base
  const PathLayout layout{.hops = {1, 2}, .domain_of = {"a", "b"}};
  IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
      .layout = layout, .retain_rounds = 2, .margin_boundaries = 2});
  SampleReceipt up_stream;
  SampleReceipt down_stream;
  up_stream.path = down_stream.path = test_path();
  const auto feed = [&](std::vector<SampleRecord> up,
                        std::vector<SampleRecord> down) {
    up_stream.samples.insert(up_stream.samples.end(), up.begin(), up.end());
    down_stream.samples.insert(down_stream.samples.end(), down.begin(),
                               down.end());
    incremental.add_round(1, samples_drain(std::move(up)));
    incremental.add_round(2, samples_drain(std::move(down)));
  };

  // Round 1: marker 7 never shows downstream; the three behind it do, and
  // a 20 ms repeat of one of them (a delay-bound violation if it were
  // used) closes the downstream feed.
  std::vector<SampleRecord> down;
  for (net::PacketDigest i = 0; i < kRounds; ++i) {
    down.push_back(marker_at(kFirst + kRounds - 1 - i, 1));
  }
  down.push_back(marker_at(kFirst + kRounds / 2, 20));
  feed({marker_at(7, 0), marker_at(kFirst + 10, 0),
        marker_at(kFirst + kRounds / 2, 0), marker_at(kFirst + kRounds - 1, 0)},
       std::move(down));
  EXPECT_EQ(incremental.analyze().links.at(0).report.samples,
            check_link_samples(up_stream, down_stream));
  EXPECT_EQ(incremental.resident_stats().pending_sample_rounds, 4 + kRounds);

  // Round 2 repeats a resident marker; round 4 expires marker 7, matches
  // the three behind it and drops the unclaimed rounds.
  feed({}, {marker_at(kFirst + kRounds - 1, 30)});
  for (int round = 3; round <= 4; ++round) {
    EXPECT_EQ(incremental.analyze().links.at(0).report.samples,
              check_link_samples(up_stream, down_stream))
        << "round " << round - 1;
    feed({}, {});
  }
  const LinkSampleCheck live = incremental.analyze().links.at(0).report.samples;
  EXPECT_EQ(live, check_link_samples(up_stream, down_stream));
  EXPECT_EQ(live.rounds_matched, 3u);
  EXPECT_EQ(live.link_delays_ms, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(live.violations,
            (std::vector<Inconsistency>{
                {InconsistencyKind::kMarkerMissing, 7, 0.0}}));
  const IncrementalPathVerifier::ResidentStats stats =
      incremental.resident_stats();
  EXPECT_EQ(stats.pending_sample_rounds, 0u);
  EXPECT_EQ(stats.expired_unmatched, 1 + (kRounds - 3))
      << "marker 7 and every unclaimed downstream round";
}

// A tampered upstream stream that repeats a marker id matches the
// downstream round once, and the repeat surfaces as kMarkerMissing (the
// batch check would check the pair twice) — both while the rounds wait
// behind a blocked head, where analyze() resolves them, and once they
// settle.
TEST(IncrementalVerifier, RepeatedUpstreamMarkerMatchesOnce) {
  const PathLayout layout{.hops = {1, 2}, .domain_of = {"a", "b"}};
  IncrementalPathVerifier incremental(IncrementalPathVerifier::Config{
      .layout = layout, .retain_rounds = 2, .margin_boundaries = 2});
  constexpr net::PacketDigest kLost = 7, kM = 8;
  PathDrain up = samples_drain(
      {marker_at(kLost, 0), marker_at(kM, 0), marker_at(kM, 1)});
  PathDrain down = samples_drain({marker_at(kM, 2)});
  EXPECT_EQ(check_link_samples(up.samples, down.samples).rounds_matched, 2u);

  LinkSampleCheck once;
  once.rounds_matched = 1;
  once.common_samples = 1;
  once.link_delays_ms = {2.0};
  once.violations = {{InconsistencyKind::kMarkerMissing, kLost, 0.0},
                     {InconsistencyKind::kMarkerMissing, kM, 0.0}};
  incremental.add_round(1, std::move(up));
  incremental.add_round(2, std::move(down));
  EXPECT_EQ(incremental.resident_stats().pending_sample_rounds, 4u)
      << "kLost blocks both rounds behind it";
  EXPECT_EQ(incremental.analyze().links.at(0).report.samples, once);

  // Clock 4 expires kLost; the first kM round matches, the repeat expires.
  for (int round = 2; round <= 4; ++round) {
    incremental.add_round(1, samples_drain({}));
    incremental.add_round(2, samples_drain({}));
  }
  EXPECT_EQ(incremental.analyze().links.at(0).report.samples, once);
  const IncrementalPathVerifier::ResidentStats stats =
      incremental.resident_stats();
  EXPECT_EQ(stats.pending_sample_rounds, 0u);
  EXPECT_EQ(stats.expired_unmatched, 2u) << "kLost and the repeated kM";
}

}  // namespace
}  // namespace vpm::core
