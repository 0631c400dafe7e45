// ScenarioConfig parsing/round-trip, run_scenario validation, the
// determinism contract, and the checked-in scenario data files.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/receipt_batch.hpp"
#include "helpers.hpp"
#include "scenario_grid.hpp"
#include "sim/scenario_engine.hpp"

namespace vpm {
namespace {

using sim::parse_scenario;
using sim::run_scenario;
using sim::ScenarioConfig;
using sim::ScenarioOutcome;
using test::load_scenario_file;

TEST(ScenarioConfig, DefaultsRoundTripToBareNameAndSeed) {
  const ScenarioConfig cfg;
  EXPECT_EQ(cfg.to_string(), "name=scenario seed=1");
  const ScenarioConfig back = parse_scenario(cfg.to_string());
  EXPECT_EQ(back.to_string(), cfg.to_string());
}

TEST(ScenarioConfig, EventfulConfigRoundTripsExactly) {
  const char* text =
      "name=everything seed=9 domains=A,B,C,D,E paths=5 rounds=9 "
      "round_us=40000 pps=9000 zipf=1.1 digest=single marker_rate=0.02 "
      "sample_rate=0.1 cut_rate=0.004 shards=2 max_diff_us=4000 "
      "domain_delay_us=700 link_delay_us=80 jitter_domain=C jitter_us=900 "
      "loss=ge loss_domain=B loss_rate=0.05 loss_burst=6 "
      "adversary.B=hide_loss adversary.C=cover shave_us=9000 "
      "fake_delay_us=700 link_down=2:3:1 route_flap=1:4:2 churn=2:1:3 "
      "ttl_rounds=3 "
      "chunk_bytes=2048 fault_drop=0.01 fault_corrupt=0.02 "
      "fault_duplicate=0.03 fault_reorder=0.04 fault_delay=0.05 "
      "fault_max_delay_ticks=3 fault_seed=17 crash_every=3 gap_patience=5";
  const ScenarioConfig cfg = parse_scenario(text);
  EXPECT_EQ(cfg.domains.size(), 5u);
  EXPECT_EQ(cfg.adversaries.size(), 2u);
  EXPECT_EQ(cfg.round_length, net::microseconds(40'000));
  EXPECT_EQ(cfg.faults.max_delay_ticks, 3u);
  EXPECT_EQ(cfg.churn,
            (sim::ChurnSchedule{.stable = 2, .live = 1, .lifetime_rounds = 3}));
  // to_string -> parse -> to_string is a fixed point.
  const ScenarioConfig back = parse_scenario(cfg.to_string());
  EXPECT_EQ(back.to_string(), cfg.to_string());
}

TEST(ScenarioConfig, StoreKeysRoundTripExactly) {
  const ScenarioConfig cfg = parse_scenario(
      "name=disk seed=4 store=segment crash_every=3 torn_tail=1");
  EXPECT_TRUE(cfg.segment_store);
  EXPECT_TRUE(cfg.torn_tail);
  const ScenarioConfig back = parse_scenario(cfg.to_string());
  EXPECT_EQ(back.to_string(), cfg.to_string());
  EXPECT_TRUE(back.segment_store);
  EXPECT_TRUE(back.torn_tail);
  // The memory store is the default and stays off the repro line.
  EXPECT_FALSE(parse_scenario("store=memory").segment_store);
  EXPECT_EQ(parse_scenario("store=memory").to_string(), "name=scenario seed=1");
  EXPECT_THROW((void)parse_scenario("store=tape"), std::invalid_argument);
}

// Values set in code need not have a short decimal spelling; the repro
// line must still re-run the identical config.
TEST(ScenarioConfig, ComputedDoublesRoundTripBitForBit) {
  ScenarioConfig cfg;
  cfg.packets_per_second = 1e5 / 7;
  cfg.zipf_s = 1.0 / 3;
  cfg.marker_rate = 1.0 / 3 / 64;
  cfg.tuning.sample_rate = 0.1 + 0.2;
  cfg.tuning.cut_rate = 2e-3 / 3;
  cfg.loss_rate = 0.1 * 3;
  cfg.loss_burst = 4.0 / 3;
  cfg.congestion_bps = 40e6 / 3;
  cfg.faults.drop_rate = 0.1 * 3;
  cfg.faults.corrupt_rate = 0.07 / 3;
  cfg.faults.duplicate_rate = 0.1 / 3;
  cfg.faults.reorder_rate = 0.2 / 3;
  cfg.faults.delay_rate = 0.7 * 0.1;
  const ScenarioConfig back = parse_scenario(cfg.to_string());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(back.packets_per_second), bits(cfg.packets_per_second));
  EXPECT_EQ(bits(back.zipf_s), bits(cfg.zipf_s));
  EXPECT_EQ(bits(back.marker_rate), bits(cfg.marker_rate));
  EXPECT_EQ(bits(back.tuning.sample_rate), bits(cfg.tuning.sample_rate));
  EXPECT_EQ(bits(back.tuning.cut_rate), bits(cfg.tuning.cut_rate));
  EXPECT_EQ(bits(back.loss_rate), bits(cfg.loss_rate));
  EXPECT_EQ(bits(back.loss_burst), bits(cfg.loss_burst));
  EXPECT_EQ(bits(back.congestion_bps), bits(cfg.congestion_bps));
  EXPECT_EQ(bits(back.faults.drop_rate), bits(cfg.faults.drop_rate));
  EXPECT_EQ(bits(back.faults.corrupt_rate), bits(cfg.faults.corrupt_rate));
  EXPECT_EQ(bits(back.faults.duplicate_rate),
            bits(cfg.faults.duplicate_rate));
  EXPECT_EQ(bits(back.faults.reorder_rate), bits(cfg.faults.reorder_rate));
  EXPECT_EQ(bits(back.faults.delay_rate), bits(cfg.faults.delay_rate));
  // Literal values keep their familiar spelling.
  EXPECT_EQ(parse_scenario("congestion_bps=30000000 loss_rate=0.03 "
                           "cut_rate=0.0001 pps=100000")
                .to_string(),
            "name=scenario seed=1 pps=100000 cut_rate=0.0001 "
            "loss_rate=0.03 congestion_bps=30000000");
}

TEST(ScenarioConfig, CommentsAndNewlinesAreOneGrammar) {
  const ScenarioConfig cfg = parse_scenario(
      "# a scenario file\n"
      "name=filed  # trailing comment\n"
      "seed=3\n"
      "loss=bernoulli\n");
  EXPECT_EQ(cfg.name, "filed");
  EXPECT_EQ(cfg.seed, 3u);
  EXPECT_EQ(cfg.loss, sim::LossKind::kBernoulli);
}

TEST(ScenarioConfig, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_scenario("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("seed"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("seed=notanumber"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("seed=1trailing"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("loss=unknownkind"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("digest=both"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("adversary.X=perjury"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("link_down=1:2"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("churn=1:2"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("domains=S,,D"), std::invalid_argument);
  // No sign on an integer: -1 must not wrap to 2^64 - 1.
  EXPECT_THROW((void)parse_scenario("paths=-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("round_us=-5"), std::invalid_argument);
  // No non-finite number: a NaN or infinite rate never ends the traffic.
  EXPECT_THROW((void)parse_scenario("pps=nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario("pps=inf"), std::invalid_argument);
}

// A valid config that hits a limit of the program — here an aggregate
// held open past the receipt wire's 16.7 s offset span — throws the
// codec's WireLimitError, which a caller can tell from a config error
// (example_scenario_run exits 2 on one, 1 on the other).
TEST(ScenarioEngine, ProgramLimitIsNotABadConfig) {
  try {
    (void)run_scenario(parse_scenario(
        "name=slow seed=1 domains=S,X,D paths=1 pps=1000 rounds=17 "
        "round_us=1000000 cut_rate=0.00001"));
    ADD_FAILURE() << "an aggregate open for 17 s reached the wire";
  } catch (const core::WireLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("16.7 s"), std::string::npos);
  }
  try {
    (void)run_scenario(parse_scenario("domains=S,D"));
    ADD_FAILURE() << "a two-domain config ran";
  } catch (const core::WireLimitError&) {
    ADD_FAILURE() << "a config error reported as a program limit";
  } catch (const std::invalid_argument&) {
  }
}

TEST(ScenarioEngine, ValidatesConfigs) {
  const auto cfg_of = [](const char* text) { return parse_scenario(text); };
  // Fewer than three domains: no transit domain to measure.
  EXPECT_THROW((void)run_scenario(cfg_of("domains=S,D")),
               std::invalid_argument);
  // Loss/jitter/adversary domains must name a transit domain.
  EXPECT_THROW((void)run_scenario(cfg_of("loss=bernoulli loss_domain=Q")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("loss=bernoulli loss_domain=S")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("jitter_domain=D jitter_us=100")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("adversary.S=hide_loss")),
               std::invalid_argument);
  // One strategy per domain.
  EXPECT_THROW(
      (void)run_scenario(parse_scenario(
          "domains=S,X,D adversary.X=hide_loss adversary.X=cover")),
      std::invalid_argument);
  // Physical quantities may not be negative: a HOP would see a packet
  // before its upstream sent it, jitter would silently vanish, and a
  // negative max_diff would implicate every honest link.  The parser
  // takes no sign, so only a config built in code reaches this check.
  const auto rejected = [](auto set) {
    ScenarioConfig cfg;
    set(cfg);
    EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument)
        << cfg.to_string();
  };
  rejected([](ScenarioConfig& c) { c.link_delay = net::seconds(-1); });
  rejected([](ScenarioConfig& c) { c.domain_delay = net::seconds(-2); });
  rejected([](ScenarioConfig& c) {
    c.jitter_domain = "X";
    c.jitter = net::microseconds(-100);
  });
  rejected([](ScenarioConfig& c) { c.max_diff = net::microseconds(-5); });
  // A route flap may not withdraw every path.
  EXPECT_THROW((void)run_scenario(cfg_of("paths=2 route_flap=2:1:1")),
               std::invalid_argument);
  // link_down index must name a real link.
  EXPECT_THROW((void)run_scenario(cfg_of("link_down=2:1:1")),
               std::invalid_argument);
  // An event that starts after the last round would never fire.
  EXPECT_THROW((void)run_scenario(cfg_of("link_down=0:100:2")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("route_flap=1:50:3")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("rounds=4 link_down=0:4:1")),
               std::invalid_argument);
  // So would a crash cadence of `rounds` or more: crashes fire at rounds
  // r != 0 with r % crash_every == 0.
  EXPECT_THROW((void)run_scenario(cfg_of("crash_every=6")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("rounds=3 crash_every=7")),
               std::invalid_argument);
  // A churn schedule needs a pool to rotate through and a lifetime.
  EXPECT_THROW((void)run_scenario(cfg_of("paths=4 churn=4:1:2")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("paths=4 churn=1:2:0")),
               std::invalid_argument);
  // A disabled event (no live slots, no duration) with other fields set
  // would run silently and drop out of the repro line.
  for (const char* bad :
       {"churn=2:0:3", "link_down=1:2:0", "route_flap=1:2:0"}) {
    EXPECT_THROW((void)run_scenario(cfg_of(bad)), std::invalid_argument)
        << bad;
  }
  // Fault rates are probabilities: outside [0, 1] a plan faults every
  // envelope or none, whatever it says.  The parser takes no NaN, so only
  // a config built in code reaches that case.
  for (const char* bad : {"fault_drop=-0.5", "fault_reorder=-1",
                          "fault_drop=2", "fault_corrupt=7",
                          "fault_duplicate=1.5", "fault_delay=-0.1"}) {
    EXPECT_THROW((void)run_scenario(cfg_of(bad)), std::invalid_argument)
        << bad;
  }
  rejected([](ScenarioConfig& c) {
    c.faults.drop_rate = std::numeric_limits<double>::quiet_NaN();
  });
  // Fault delays the gap patience cannot cover would deadlock waits.
  EXPECT_THROW((void)run_scenario(cfg_of(
                   "fault_delay=0.1 fault_max_delay_ticks=5 gap_patience=2")),
               std::invalid_argument);
  // The store: a segment store needs an empty directory, and a torn tail
  // needs a segment store that crashes.
  EXPECT_THROW((void)run_scenario(cfg_of("store=segment crash_every=2")),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(cfg_of("torn_tail=1 crash_every=2")),
               std::invalid_argument);
  {
    test::TempDir tmp("validate");
    EXPECT_THROW(
        (void)run_scenario(cfg_of("store=segment torn_tail=1"), tmp.path()),
        std::invalid_argument);
    EXPECT_THROW((void)run_scenario(cfg_of("store=segment torn_tail=1 "
                                           "crash_every=3 rounds=3"),
                                    tmp.path()),
                 std::invalid_argument);
    std::ofstream(tmp.path() / "left-over") << "x";
    EXPECT_THROW((void)run_scenario(cfg_of("store=segment"), tmp.path()),
                 std::invalid_argument);
  }
  // A key no knob answers to fails instead of running a different
  // deployment than the line asked for.
  EXPECT_THROW((void)run_scenario(cfg_of("fed_domains=5")),
               std::invalid_argument);
}

// The determinism contract: identical config => bit-identical outcome,
// and the printed repro line reproduces the run exactly.
TEST(ScenarioEngine, DeterministicAndReproducible) {
  const ScenarioConfig cfg = parse_scenario(
      "name=det seed=12 domains=S,X,N,D loss=ge loss_rate=0.03 "
      "adversary.X=hide_loss fake_delay_us=500 fault_drop=0.03 "
      "crash_every=3 rounds=9 ttl_rounds=2 route_flap=1:3:2");
  const ScenarioOutcome a = run_scenario(cfg);
  const ScenarioOutcome b = run_scenario(cfg);
  EXPECT_EQ(a, b) << "same config diverged; repro: " << a.repro;
  const ScenarioOutcome c = run_scenario(parse_scenario(a.repro));
  EXPECT_EQ(a, c) << "repro line is not self-contained; repro: " << a.repro;
}

TEST(ScenarioEngine, HonestBaselineFile) {
  const ScenarioOutcome out =
      run_scenario(parse_scenario(load_scenario_file("honest_baseline.conf")));
  EXPECT_TRUE(test::is_clean(out));
  EXPECT_TRUE(test::conserves_receipts(out));
  EXPECT_TRUE(test::loss_tracks_truth(out, "X", 1e-9));
  // A loss query names a transit domain: an endpoint or a typo is an
  // error, not zero loss.
  for (const char* name : {"S", "Y"}) {
    EXPECT_THROW((void)out.true_loss(name), std::invalid_argument) << name;
    EXPECT_THROW((void)out.estimated_loss(name), std::invalid_argument)
        << name;
  }
}

// The lie files also run with time-keyed markers, which fire at different
// packets on either side of a lossy domain: the published lies must still
// encode (every sampling round ends with a marker).
TEST(ScenarioEngine, HideLossFile) {
  for (const char* extra : {"", "\nmarker_rate=0.001 marker_max_age_us=5000"}) {
    const ScenarioOutcome out = run_scenario(
        parse_scenario(load_scenario_file("hide_loss.conf") + extra));
    EXPECT_TRUE(test::only_implicates(out, "X", "N"));
    EXPECT_LE(out.estimated_loss("X"), 1e-9) << "repro: " << out.repro;
    EXPECT_GT(out.true_loss("X"), 0.0) << "repro: " << out.repro;
  }
}

TEST(ScenarioEngine, CollusionCongestionFile) {
  for (const char* extra : {"", "\nmarker_rate=0.001 marker_max_age_us=2000"}) {
    const ScenarioOutcome out = run_scenario(parse_scenario(
        load_scenario_file("collusion_congestion.conf") + extra));
    EXPECT_TRUE(test::blame_displaced(out, "X", "N", 1e-9));
    EXPECT_GT(out.true_loss("X"), 0.0) << "repro: " << out.repro;
  }
}

TEST(ScenarioEngine, FaultyWireChurnFile) {
  const std::string file = load_scenario_file("faulty_wire_churn.conf");
  // The file as checked in and nine more traffic and fault schedules, each
  // also with one-round TTL eviction: the withdrawn path then idles out
  // in the round its traffic stops, before the flap rebuild.
  for (std::uint64_t reseed = 0; reseed < 10; ++reseed) {
    for (const bool evict : {false, true}) {
      std::string extra = evict ? "\nttl_rounds=1" : "";
      if (reseed != 0) {
        extra += "\nseed=" + std::to_string(reseed) +
                 " fault_seed=" + std::to_string(reseed);
      }
      const ScenarioOutcome out = run_scenario(parse_scenario(file + extra));
      SCOPED_TRACE("repro: " + out.repro);
      if (evict) {
        EXPECT_GT(out.lifecycle.evicted_paths, 0u);
      }
      // Graceful degradation: the wire destroyed envelopes and the damage is
      // RECORDED as gaps, not silently absorbed into findings.
      EXPECT_GT(out.wire.dropped + out.wire.corrupted, 0u);
      std::size_t gap_count = 0;
      for (const auto& per_hop : out.gaps) gap_count += per_hop.size();
      EXPECT_GT(gap_count, 0u);
      EXPECT_GT(out.client_rebuilds, 0u);
      // Crash-restarts never double-deliver (acks are atomic with delivery)
      // and never leave the fleet stuck.
      EXPECT_EQ(out.ack_rejections, 0u);
      for (const std::size_t lag : out.consumer_lag_end) EXPECT_EQ(lag, 0u);
      EXPECT_EQ(out.storage_end.envelopes, 0u);
      EXPECT_GT(out.storage_end.erased, 0u);
      // The delivered-round oracle holds across the route flap's rebuild
      // drains and the lifecycle passes: gaps are exactly the destroyed
      // sequences, and every delivered round verifies as over a perfect wire.
      EXPECT_TRUE(test::gaps_match_losses(out));
      EXPECT_TRUE(test::delivered_rounds_verify(out));
    }
  }
}

}  // namespace
}  // namespace vpm
