// The fault-soak acceptance matrix: the S -> X -> D scenario pipeline
// (sim/scenario_engine) driven through FaultyTransport and a
// crash-restarted FetchClient fleet, 10 seeds x both digest modes x four
// fault plans — asserting that fully delivered rounds yield findings
// IDENTICAL to the outcome's delivered-round reference (a fault-free
// replay of the same rounds), that every induced loss surfaces as an
// explicitly reported RoundGap anchored at a destroyed sequence, that no
// cursor sticks, and that the store's GC floor advances to the head.  CI
// also runs it as a dedicated ASan+UBSan step, and the concurrent-fetch
// probe runs under TSan.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "scenario_grid.hpp"

namespace vpm {
namespace {

enum class PlanKind { kDropOnly, kDupReorder, kCrashResume, kKitchenSink };

const char* plan_keys(PlanKind kind) {
  switch (kind) {
    case PlanKind::kDropOnly:
      return "fault_drop=0.06";
    case PlanKind::kDupReorder:
      return "fault_duplicate=0.15 fault_reorder=0.15 fault_delay=0.1";
    case PlanKind::kCrashResume:
      // Lossless wire, crashing fleet: the pure crash-resume exercise —
      // divergence here is a cursor/replay bug, nothing else.
      return "fault_duplicate=0.1 fault_reorder=0.1 fault_delay=0.1 "
             "crash_every=5";
    case PlanKind::kKitchenSink:
      return "fault_drop=0.04 fault_corrupt=0.03 fault_duplicate=0.1 "
             "fault_reorder=0.1 fault_delay=0.1 crash_every=7";
  }
  return "";
}

/// Lighter traffic than the grid: the interesting work is on the wire, and
/// small chunks mean several envelopes per round — more fault surface.
sim::ScenarioConfig soak_config(std::uint64_t seed, net::DigestMode mode,
                                PlanKind kind) {
  return sim::parse_scenario(
      "name=fault-soak paths=6 zipf=1.1 pps=15000 rounds=30 chunk_bytes=2048 "
      "seed=" + std::to_string(seed) +
      " fault_seed=" + std::to_string(seed * 7919 + 17) +
      (mode == net::DigestMode::kSingle ? " digest=single " : " ") +
      plan_keys(kind));
}

/// Invariants every run must satisfy, faults or not: cursors caught up,
/// store drained by GC, every ack accepted, nothing expired out of either
/// verifier set's retention window.
void assert_no_stuck_state(const sim::ScenarioOutcome& r,
                           const std::string& what) {
  ASSERT_GT(r.total_packets, 0u) << what;
  for (std::size_t h = 0; h < r.consumer_lag_end.size(); ++h) {
    EXPECT_EQ(r.consumer_lag_end[h], 0u)
        << what << ": hop " << h << ": consumer cursor stuck behind head";
  }
  EXPECT_EQ(r.ack_rejections, 0u) << what << ": a boundary ack was rejected";
  EXPECT_GT(r.groups_delivered, 0u) << what;
  EXPECT_EQ(r.storage_end.envelopes, 0u)
      << what << ": acked envelopes must be garbage-collected";
  EXPECT_GT(r.storage_end.erased, 0u) << what << ": the GC floor never advanced";
  EXPECT_EQ(r.expired_unmatched, 0u) << what;
}

/// Lossless runs match the reference EXACTLY (operator==, gaps empty both
/// sides), and the equality is non-trivial: delays matched, traffic
/// accounted.
void assert_lossless_exact(const sim::ScenarioOutcome& r,
                           const std::string& what) {
  for (std::size_t p = 0; p < r.analysis.size(); ++p) {
    const core::PathAnalysis& a = r.analysis[p];
    ASSERT_EQ(a, r.delivered_reference[p])
        << what << ": path " << p << ": findings diverged on a lossless wire";
    ASSERT_EQ(a.domains.size(), r.transit_domains.size()) << what;
    ASSERT_EQ(a.links.size(), r.transit_domains.size() + 1) << what;
    EXPECT_GT(a.domains[0].delay.common_samples, 0u) << what;
    EXPECT_GT(a.domains[0].loss.offered, 0u) << what;
  }
}

void run_one(std::uint64_t seed, net::DigestMode mode, PlanKind kind) {
  const sim::ScenarioConfig cfg = soak_config(seed, mode, kind);
  const sim::ScenarioOutcome r = sim::run_scenario(cfg);
  const std::string what = "repro: " + r.repro;
  assert_no_stuck_state(r, what);
  // Gaps are exactly the induced losses, and delivered rounds verify as
  // the fault-free reference does: domains and links on any wire, the
  // whole analysis on a lossless one.
  EXPECT_TRUE(test::gaps_match_losses(r));
  EXPECT_TRUE(test::delivered_rounds_verify(r));
  if (cfg.faults.lossless()) assert_lossless_exact(r, what);

  const std::size_t destroyed = r.wire.dropped + r.wire.corrupted;
  switch (kind) {
    case PlanKind::kDropOnly:
      EXPECT_GT(destroyed, 0u) << what << ": plan induced no loss";
      break;
    case PlanKind::kDupReorder:
      EXPECT_EQ(destroyed, 0u) << what;
      EXPECT_GT(r.wire.duplicated, 0u) << what;
      EXPECT_GT(r.wire.reordered + r.wire.delayed, 0u) << what;
      EXPECT_GT(r.store_rejected, 0u)
          << what << ": duplicate copies must be rejected, not re-applied";
      break;
    case PlanKind::kCrashResume:
      EXPECT_EQ(destroyed, 0u) << what;
      EXPECT_GT(r.client_rebuilds, 0u) << what;
      break;
    case PlanKind::kKitchenSink:
      EXPECT_GT(destroyed, 0u) << what;
      EXPECT_GT(r.client_rebuilds, 0u) << what;
      EXPECT_GT(r.store_rejected, 0u)
          << what << ": corrupted envelopes must die at the MAC check";
      break;
  }
}

// The acceptance matrix: 10 seeds × both digest modes per plan, split
// across cases so ctest can parallelize.
void run_matrix(PlanKind kind) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    run_one(seed, net::DigestMode::kSingle, kind);
    run_one(seed, net::DigestMode::kIndependent, kind);
  }
}

TEST(FaultSoakMatrix, DropOnly) { run_matrix(PlanKind::kDropOnly); }
TEST(FaultSoakMatrix, DuplicateAndReorder) {
  run_matrix(PlanKind::kDupReorder);
}
TEST(FaultSoakMatrix, CrashResume) { run_matrix(PlanKind::kCrashResume); }
TEST(FaultSoakMatrix, KitchenSink) { run_matrix(PlanKind::kKitchenSink); }

// Concurrent cursor fetches are read-only: a fleet of consumers draining
// the same producer from distinct cursors must not race (TSan target).
TEST(FaultSoak, ConcurrentFetchAcrossConsumersIsRaceFree) {
  constexpr dissem::DomainKey kKey = 0x7E57;
  constexpr dissem::DomainId kProducer = 9;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kEnvelopes = 64;

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    store.register_consumer("c" + std::to_string(c));
  }
  for (std::uint64_t seq = 1; seq <= kEnvelopes; ++seq) {
    std::vector<std::byte> payload(16 + seq % 7,
                                   static_cast<std::byte>(seq & 0xFF));
    ASSERT_EQ(store.ingest(dissem::seal(kProducer, seq, std::move(payload),
                                        kKey)),
              dissem::IngestResult::kAccepted);
  }
  // Stagger the cursors so the threads walk different suffixes.
  for (std::size_t c = 1; c < kConsumers; ++c) {
    ASSERT_EQ(store.ack("c" + std::to_string(c), kProducer,
                        static_cast<std::uint64_t>(c) * 4),
              dissem::AckResult::kAcked);
  }

  std::array<std::uint64_t, kConsumers> seen{};
  std::array<std::uint64_t, kConsumers> bytes{};
  {
    std::vector<std::thread> threads;
    threads.reserve(kConsumers);
    for (std::size_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&store, &seen, &bytes, c] {
        store.fetch_from("c" + std::to_string(c), kProducer,
                         [&](std::uint64_t seq,
                             std::span<const std::byte> payload) {
                           seen[c] = seq;
                           bytes[c] += payload.size();
                         });
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(seen[c], kEnvelopes);
    EXPECT_GT(bytes[c], 0u);
    // Serial acks afterwards: every consumer saw through the head.
    EXPECT_EQ(store.ack("c" + std::to_string(c), kProducer, kEnvelopes),
              dissem::AckResult::kAcked);
  }
  EXPECT_EQ(store.stored_envelopes(), 0u)
      << "all consumers acked the head; GC must drain the store";
}

}  // namespace
}  // namespace vpm
