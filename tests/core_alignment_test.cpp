// Tests for the receipt-level join and reorder patch-up (Section 6.3):
// hand-built scenarios mirroring the paper's worked examples, plus
// end-to-end checks driven by real aggregators over simulated reordering.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/alignment.hpp"
#include "core/config.hpp"
#include "helpers.hpp"
#include "loss/bernoulli.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::core {
namespace {

AggregateReceipt make_agg(std::uint32_t first, std::uint32_t last,
                          std::uint32_t count, double open_s, double close_s) {
  AggregateReceipt r;
  r.agg = AggId{first, last};
  r.packet_count = count;
  r.opened_at = net::Timestamp{} + net::seconds_f(open_s);
  r.closed_at = net::Timestamp{} + net::seconds_f(close_s);
  return r;
}

// ------------------------------------------------------- hand-built cases

TEST(Alignment, IdenticalSequencesAlignOneToOne) {
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 9, 100, 0.0, 0.9),
      make_agg(10, 19, 200, 1.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const AlignmentResult r = align_aggregates(up, up, false);
  ASSERT_EQ(r.aligned.size(), 3u);
  EXPECT_EQ(r.boundaries_matched, 2u);
  for (const AlignedAggregate& a : r.aligned) {
    EXPECT_EQ(a.lost(), 0);
    EXPECT_EQ(a.up_receipts, 1u);
  }
  EXPECT_NEAR(r.aligned[0].duration_s(), 0.9, 1e-9);
}

TEST(Alignment, NestedPartitionsJoinToCoarser) {
  // Upstream coarse: [1..19][20..29]; downstream finer, extra cut at 10.
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 19, 300, 0.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const std::vector<AggregateReceipt> down = {
      make_agg(1, 9, 100, 0.0, 0.9),
      make_agg(10, 19, 200, 1.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),
  };
  const AlignmentResult r = align_aggregates(up, down, false);
  ASSERT_EQ(r.aligned.size(), 2u);
  EXPECT_EQ(r.aligned[0].up_count, 300u);
  EXPECT_EQ(r.aligned[0].down_count, 300u);
  EXPECT_EQ(r.aligned[0].down_receipts, 2u);
  EXPECT_EQ(r.boundaries_merged_down, 1u);
}

TEST(Alignment, LostCutPacketMergesUpstreamBoundary) {
  // Paper §6.3's loss example: downstream misses the cut at packet 20, so
  // its aggregates merge across it and the join coarsens.
  const std::vector<AggregateReceipt> up = {
      make_agg(1, 19, 300, 0.0, 1.9),
      make_agg(20, 29, 150, 2.0, 2.9),   // cut id 20 lost downstream
      make_agg(30, 39, 100, 3.0, 3.9),
  };
  // Downstream never observed the cut at id 20, so its first aggregate
  // absorbed the survivors of [20..29] (449 = 300 + 150 - 1 lost).
  const std::vector<AggregateReceipt> down = {
      make_agg(1, 29, 449, 0.0, 2.9),
      make_agg(30, 39, 100, 3.0, 3.9),
  };
  const AlignmentResult r = align_aggregates(up, down, false);
  ASSERT_EQ(r.aligned.size(), 2u);
  // Joined aggregate 1 spans up receipts 1+2: 450 offered, 449 delivered.
  EXPECT_EQ(r.aligned[0].up_count, 450u);
  EXPECT_EQ(r.aligned[0].down_count, 449u);
  EXPECT_EQ(r.aligned[0].lost(), 1);
  EXPECT_EQ(r.boundaries_merged_up, 1u);
  EXPECT_NEAR(r.aligned[0].duration_s(), 2.9, 1e-9);  // 0.0 .. 2.9
  // The surviving boundary at id 30 still aligns exactly.
  EXPECT_EQ(r.aligned[1].lost(), 0);
  EXPECT_EQ(r.boundaries_matched, 1u);
}

TEST(Alignment, PaperReorderExampleMigration) {
  // Section 6.3: original sequence p1..p8, HOP-up partitions
  // {p1..p4}{p5..p8}; HOP-down observed <p1,p2,p3,p5,p4,p6,p7,p8> so its
  // receipts put p4 in the second aggregate.  Patch-up migrates p4 back.
  std::vector<AggregateReceipt> up = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(5, 8, 4, 0.4, 0.7),
  };
  up[0].trans.before = {3, 4};
  up[0].trans.after = {5, 6};

  std::vector<AggregateReceipt> down = {
      make_agg(1, 3, 3, 0.0, 0.25),
      make_agg(5, 8, 5, 0.35, 0.7),
  };
  down[0].trans.before = {2, 3};
  down[0].trans.after = {5, 4};  // p4 observed after the cut

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 1u);
  EXPECT_EQ(patched.down[0].packet_count, 4u);
  EXPECT_EQ(patched.down[1].packet_count, 4u);

  const AlignmentResult r = align_aggregates(up, down, true);
  ASSERT_EQ(r.aligned.size(), 2u);
  EXPECT_EQ(r.aligned[0].lost(), 0);
  EXPECT_EQ(r.aligned[1].lost(), 0);
  EXPECT_EQ(r.migrations, 1u);
}

TEST(Alignment, MigrationInOppositeDirection) {
  // Downstream saw a packet BEFORE the cut that upstream saw after it.
  std::vector<AggregateReceipt> up = {
      make_agg(1, 3, 3, 0.0, 0.25),
      make_agg(5, 8, 5, 0.35, 0.7),
  };
  up[0].trans.before = {2, 3};
  up[0].trans.after = {5, 4};

  std::vector<AggregateReceipt> down = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(5, 8, 4, 0.4, 0.7),
  };
  down[0].trans.before = {3, 4};
  down[0].trans.after = {5, 6};

  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 1u);
  EXPECT_EQ(patched.down[0].packet_count, 3u);
  EXPECT_EQ(patched.down[1].packet_count, 5u);
}

TEST(Alignment, PatchupIgnoresUnmatchedBoundaries) {
  std::vector<AggregateReceipt> up = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(9, 12, 4, 0.4, 0.7),  // boundary id 9
  };
  up[0].trans.after = {9};
  std::vector<AggregateReceipt> down = {
      make_agg(1, 4, 4, 0.0, 0.3),
      make_agg(20, 23, 4, 0.4, 0.7),  // different boundary id
  };
  down[0].trans.after = {20};
  const PatchupResult patched = patch_up(up, down);
  EXPECT_EQ(patched.migrations, 0u);
}

TEST(Alignment, EmptyInputsYieldNoAggregates) {
  const std::vector<AggregateReceipt> some = {make_agg(1, 2, 10, 0, 1)};
  const std::vector<AggregateReceipt> none;
  EXPECT_TRUE(align_aggregates(none, some).aligned.empty());
  EXPECT_TRUE(align_aggregates(some, none).aligned.empty());
}

// ------------------------------------------------ end-to-end via sim/core

struct TwoHopAggregates {
  std::vector<AggregateReceipt> up;
  std::vector<AggregateReceipt> down;
  std::size_t trace_size = 0;
  std::uint64_t delivered = 0;
};

TwoHopAggregates run_two_hops(double cut_rate, net::Duration j,
                              net::Duration jitter, loss::LossModel* loss,
                              std::uint64_t seed) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 20'000;
  tcfg.duration = net::seconds(2);
  tcfg.seed = seed;
  const auto trace = trace::generate_trace(tcfg);

  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = seed + 1;
  env.domains[1].loss = loss;
  env.domains[1].jitter = jitter;
  const sim::PathRunResult run = sim::run_path(trace, env);

  ProtocolParams protocol;
  protocol.reorder_window_j = j;
  auto collect = [&](const sim::ObsSeq& obs) {
    auto monitor = test::make_monitor(
        protocol, HopTuning{.cut_rate = cut_rate}, net::kNoHop, net::kNoHop);
    test::feed(monitor, trace, obs);
    return monitor.drain_path(0, /*flush_open=*/true).aggregates;
  };

  TwoHopAggregates out;
  out.up = collect(run.hop_observations[1]);    // domain 1 ingress
  out.down = collect(run.hop_observations[2]);  // domain 1 egress
  out.trace_size = trace.size();
  out.delivered = run.hop_observations[2].size();
  return out;
}

TEST(AlignmentEndToEnd, ExactLossRecoveredUnderGilbertLoss) {
  loss::BernoulliLoss loss(0.1, 99);
  const TwoHopAggregates r = run_two_hops(1e-3, net::milliseconds(10),
                                          net::Duration{0}, &loss, 5);
  const AlignmentResult aligned = align_aggregates(r.up, r.down, true);
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const AlignedAggregate& a : aligned.aligned) {
    offered += a.up_count;
    delivered += a.down_count;
    EXPECT_GE(a.lost(), 0);
  }
  // The join must account for every packet exactly.
  EXPECT_EQ(offered, r.trace_size);
  EXPECT_EQ(delivered, r.delivered);
}

TEST(AlignmentEndToEnd, ReorderWithoutPatchupMiscounts) {
  // With jitter-induced reordering and patch-up disabled, some joined
  // aggregates show phantom loss or negative loss; patch-up repairs them.
  const net::Duration jitter = net::microseconds(400);
  const TwoHopAggregates r = run_two_hops(2e-3, net::milliseconds(10),
                                          jitter, nullptr, 7);
  const AlignmentResult raw = align_aggregates(r.up, r.down, false);
  const AlignmentResult fixed = align_aggregates(r.up, r.down, true);

  auto miscounted = [](const AlignmentResult& a) {
    std::size_t bad = 0;
    for (const AlignedAggregate& x : a.aligned) {
      if (x.lost() != 0) ++bad;
    }
    return bad;
  };
  // No packets were lost: every non-zero entry is a reorder artefact.
  EXPECT_GT(miscounted(raw), 0u) << "jitter did not straddle any boundary";
  EXPECT_EQ(miscounted(fixed), 0u);
  EXPECT_GT(fixed.migrations, 0u);
}

TEST(AlignmentEndToEnd, CountsConservedEvenWithoutPatchup) {
  const TwoHopAggregates r = run_two_hops(2e-3, net::milliseconds(10),
                                          net::microseconds(400), nullptr, 11);
  const AlignmentResult raw = align_aggregates(r.up, r.down, false);
  std::uint64_t up_total = 0;
  std::uint64_t down_total = 0;
  for (const AlignedAggregate& a : raw.aligned) {
    up_total += a.up_count;
    down_total += a.down_count;
  }
  EXPECT_EQ(up_total, r.trace_size);
  EXPECT_EQ(down_total, r.delivered);
}

}  // namespace
}  // namespace vpm::core
