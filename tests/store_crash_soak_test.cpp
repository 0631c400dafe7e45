// Crash-durability soak for the disk-backed receipt store, on run_scenario.
//
// The oracle is the memory-store run of the same config: a segment-store
// run whose store dies with the consumer fleet every few rounds
// (optionally with a torn tail cut into the last segment file) must reach
// the same ScenarioOutcome — findings, gaps, the delivered-round
// reference, wire and fleet accounting, even the envelopes the store
// refused off the wire — and may differ only in the store's own
// retention accounting.  The matrix covers 10 seeds x {1,4} producer
// shards x {clean, torn} shutdowns; a 50-round run additionally pins that
// GC'd segments are unlinked from disk (bounded directory size).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "helpers.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

using sim::ScenarioConfig;
using sim::ScenarioOutcome;

std::size_t segment_files_on_disk(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".seg") ++n;
  }
  return n;
}

/// A four-domain chain over a moderately hostile wire whose fleet crashes
/// at rounds 4 and 8.
ScenarioConfig base_config(std::uint64_t seed) {
  ScenarioConfig cfg = sim::parse_scenario(
      "name=store-crash domains=S,X,N,D paths=3 rounds=12 round_us=20000 "
      "pps=8000 marker_rate=0.03125 chunk_bytes=2048 fault_drop=0.03 "
      "fault_delay=0.06 fault_reorder=0.05 fault_duplicate=0.04 "
      "fault_max_delay_ticks=2 crash_every=4");
  cfg.seed = seed;
  cfg.fault_seed = seed * 31 + 7;
  return cfg;
}

/// The outcome without what may depend on where the store keeps its
/// envelopes and how often it died.
ScenarioOutcome without_store_accounting(ScenarioOutcome out) {
  out.repro.clear();
  out.storage_end = {};
  out.torn_tails = 0;
  out.reingest_accepted = 0;
  out.reingest_rejected = 0;
  out.segments_live_peak = 0;
  return out;
}

/// Run `cfg` on a segment store in a fresh directory, and check that the
/// outcome equals `memory`'s and that the directory holds exactly the
/// live segment files.
ScenarioOutcome run_on_disk(ScenarioConfig cfg, const ScenarioOutcome& memory,
                            const std::string& label) {
  test::TempDir tmp("store-crash");
  cfg.segment_store = true;
  const ScenarioOutcome out = sim::run_scenario(cfg, tmp.path());
  EXPECT_EQ(without_store_accounting(out), without_store_accounting(memory))
      << label << ": the segment store changed the outcome; repro: "
      << out.repro;
  EXPECT_EQ(segment_files_on_disk(tmp.path()), out.storage_end.segments_live)
      << label;
  EXPECT_GT(out.storage_end.segments_unlinked, 0u)
      << label << ": GC never unlinked a segment";
  return out;
}

TEST(StoreCrashSoak, CrashDurabilityMatrix) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioOutcome single;  // the one-shard memory run of this seed
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ScenarioConfig cfg = base_config(seed);
      cfg.store_shards = shards;
      const ScenarioOutcome memory = sim::run_scenario(cfg);
      const std::string base = "seed " + std::to_string(seed) + " shards " +
                               std::to_string(shards);
      ASSERT_GT(memory.groups_delivered, 0u) << base;
      ASSERT_EQ(memory.client_rebuilds, 2u * memory.layout.hops.size())
          << base;
      if (shards == 1) {
        single = memory;
      } else {
        // Sharding the store moves nothing either.
        EXPECT_EQ(without_store_accounting(memory),
                  without_store_accounting(single))
            << base;
      }

      for (const bool torn : {false, true}) {
        const std::string label = base + (torn ? " torn" : " clean");
        cfg.torn_tail = torn;
        const ScenarioOutcome out = run_on_disk(cfg, memory, label);
        if (torn) {
          // Both crashes tear.  The store crashes before the fleet polls
          // the round just published, so each tear destroys at least one
          // envelope nobody has acked, and the re-send restores it.
          EXPECT_EQ(out.torn_tails, 2u) << label;
          EXPECT_GE(out.reingest_accepted, out.torn_tails) << label;
        } else {
          // A clean shutdown loses nothing: every re-sent envelope is a
          // duplicate or below the recovered floor.
          EXPECT_EQ(out.torn_tails, 0u) << label;
          EXPECT_EQ(out.reingest_accepted, 0u) << label;
        }
        EXPECT_GT(out.reingest_rejected, 0u) << label;
      }
    }
  }
}

TEST(StoreCrashSoak, SegmentStoreWithoutCrashesMatchesMemory) {
  // Isolates the store swap from the crash machinery: same run, disk
  // segments, no kills.
  ScenarioConfig cfg = base_config(3);
  cfg.crash_every_rounds = 0;
  cfg.store_shards = 4;
  const ScenarioOutcome out =
      run_on_disk(cfg, sim::run_scenario(cfg), "no-crash segment run");
  EXPECT_EQ(out.reingest_accepted + out.reingest_rejected, 0u);
}

TEST(StoreCrashSoak, BoundedDirectoryAcrossChurn) {
  // 50 rounds of traffic with a torn-tail store crash every 10: GC
  // unlinks must keep pace with appends while the outcome still matches
  // the memory run's.
  ScenarioConfig cfg = base_config(99);
  cfg.rounds = 50;
  cfg.packets_per_second = 5000.0;
  cfg.crash_every_rounds = 10;  // crashes at 10, 20, 30, 40
  cfg.store_shards = 4;
  cfg.torn_tail = true;
  ScenarioConfig memory_cfg = cfg;
  memory_cfg.torn_tail = false;
  const ScenarioOutcome out =
      run_on_disk(cfg, sim::run_scenario(memory_cfg), "churn");
  EXPECT_EQ(out.torn_tails, 4u);

  // The directory never held more than a fraction of all segments ever
  // created.
  const std::size_t created =
      out.storage_end.segments_unlinked + out.storage_end.segments_live;
  EXPECT_LT(out.segments_live_peak, created / 2)
      << "GC is not keeping up with segment creation";
}

}  // namespace
}  // namespace vpm
