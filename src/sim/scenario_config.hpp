// Declarative scenario description for the config-driven engine
// (sim/scenario_engine): one struct composing the traffic mix and its
// live-path churn, the loss model, topology events, the collector
// lifecycle, dissemination faults, the receipt store, and the adversary
// strategy matrix — everything the §6 evaluation grid and the §7.1
// long-run soak vary.
//
// A scenario is expressible as a one-line `key=value` string (or a text
// file of them under tests/scenarios/), so a failing grid cell prints a
// self-contained repro: paste the line into `example_scenario_run` (or
// parse_scenario in a test) and the exact run re-executes.  to_string()
// emits only the keys that differ from a default-constructed config plus
// name and seed, and parse(to_string(c)) reproduces c's behaviour
// exactly — the round-trip suite pins `to_string` equality.
#ifndef VPM_SIM_SCENARIO_CONFIG_HPP
#define VPM_SIM_SCENARIO_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "dissem/faulty_transport.hpp"
#include "net/digest.hpp"
#include "net/time.hpp"

namespace vpm::sim {

/// Which loss process runs inside `loss_domain`.
enum class LossKind : std::uint8_t {
  kNone,
  kBernoulli,       ///< iid at `loss_rate`
  kGilbertElliott,  ///< bursty at `loss_rate`, mean burst `loss_burst`
  kCongestion,      ///< bottleneck-link queueing: delays always, drops on
                    ///<   overflow (size the bottleneck down to get loss)
};

/// What one domain does to its receipts before publishing
/// (adversary/strategies.hpp transformers).
enum class AdversaryKind : std::uint8_t {
  kHonest,
  kHideLoss,         ///< egress claims delivery of dropped packets
  kUnderstateDelay,  ///< egress sample times shifted earlier by `shave`
  kCoverUpstream,    ///< ingress covers the upstream neighbour's claims
                     ///<   (assign to the liar's downstream neighbour for
                     ///<   the §3.1 collusion pair)
};

struct ScenarioAdversary {
  std::string domain;
  AdversaryKind kind = AdversaryKind::kHonest;
  friend bool operator==(const ScenarioAdversary&,
                         const ScenarioAdversary&) = default;
};

/// A timed inter-domain link failure: link `link` (0 = between domains 0
/// and 1) drops every packet crossing during rounds
/// [round, round + duration_rounds).  duration_rounds == 0 disables.
struct LinkDownEvent {
  std::size_t link = 0;
  std::size_t round = 0;
  std::size_t duration_rounds = 0;
  friend bool operator==(const LinkDownEvent&, const LinkDownEvent&) = default;
};

/// A mid-epoch route flap: the `paths` highest-index paths are withdrawn
/// for rounds [round, round + duration_rounds) — their traffic stops and
/// every HOP's path table is rebuilt without them (open receipts drain
/// first), then rebuilt again with the full table when the routes return.
/// duration_rounds == 0 disables.
struct RouteFlapEvent {
  std::size_t paths = 0;
  std::size_t round = 0;
  std::size_t duration_rounds = 0;
  friend bool operator==(const RouteFlapEvent&, const RouteFlapEvent&) = default;
};

/// A churning live-path population: paths [0, stable) send every round,
/// while `live` slots each host one path of the pool [stable, paths) for
/// `lifetime_rounds` rounds, staggered across slots, then rotate to the
/// next pool member — paths arrive, live, go quiet and, once the pool
/// wraps, revive long after an idle TTL would have evicted them.  Every
/// other path is silent that round.  live == 0 disables.
struct ChurnSchedule {
  std::size_t stable = 0;
  std::size_t live = 0;
  std::size_t lifetime_rounds = 0;
  friend bool operator==(const ChurnSchedule&, const ChurnSchedule&) = default;
};

struct ScenarioConfig {
  std::string name = "scenario";
  std::uint64_t seed = 1;

  /// The domain chain (Fig. 1 shape): first domain exposes only an egress
  /// HOP, the last only an ingress HOP, transit domains both.  HOP ids are
  /// 1..2*(N-1) in path order.
  std::vector<std::string> domains = {"S", "X", "D"};

  // Traffic.
  std::size_t paths = 3;
  std::size_t rounds = 6;
  net::Duration round_length = net::milliseconds(50);
  double packets_per_second = 12'000.0;
  double zipf_s = 0.8;

  // Collector shape.
  net::DigestMode digest_mode = net::DigestMode::kIndependent;
  double marker_rate = 1.0 / 64.0;
  /// Time-keyed marker rule (`marker_max_age_us`; 0 = off).  See
  /// core::ProtocolParams::marker_max_age.
  net::Duration marker_max_age{0};
  core::HopTuning tuning{.sample_rate = 0.05, .cut_rate = 2e-3};
  std::size_t shards = 1;
  net::Duration max_diff = net::milliseconds(5);

  // Propagation.
  net::Duration domain_delay = net::microseconds(500);
  net::Duration link_delay = net::microseconds(50);
  std::string jitter_domain;  ///< empty = no jitter anywhere
  net::Duration jitter;

  // Loss.
  LossKind loss = LossKind::kNone;
  std::string loss_domain;  ///< empty = first transit domain
  double loss_rate = 0.02;
  double loss_burst = 4.0;  ///< GE mean burst length, packets
  double congestion_bps = 40e6;
  std::size_t congestion_buffer = 64 * 1024;  ///< bytes

  // Adversaries (one entry per lying domain; absent = honest).
  std::vector<ScenarioAdversary> adversaries;
  net::Duration shave = net::milliseconds(10);
  net::Duration fake_delay = net::milliseconds(2);

  // Topology events.
  LinkDownEvent link_down;
  RouteFlapEvent route_flap;
  ChurnSchedule churn;
  /// Lifecycle: evict a path idle for this many rounds and compact the
  /// arenas at every round's lifecycle pass (0 = lifecycle machinery off,
  /// a grow-only fleet).  Route flaps rebuild the path tables either way;
  /// this knob adds TTL eviction between flaps.
  std::size_t ttl_rounds = 0;

  // Dissemination.
  std::size_t max_chunk_bytes = 4 * 1024;
  dissem::FaultPlan faults;  ///< all-zero = perfect wire
  std::uint64_t fault_seed = 1;
  /// Fleet crash-restart cadence: every Nth round the FetchClients die
  /// and rebuild from their acked cursors, and a segment store dies and
  /// reopens with them (0 = never).  A nonzero cadence must be below
  /// `rounds`: crashes fire at rounds r != 0 with r % N == 0.
  std::size_t crash_every_rounds = 0;
  std::uint64_t gap_patience_polls = 3;

  // The receipt store (dissem::ReceiptStore).
  /// false: volatile memory store.  true: disk segment store under the
  /// directory passed to run_scenario (a path is runtime state, not
  /// scenario identity, so it never appears in the repro line).
  bool segment_store = false;
  /// Tear a few bytes off the last segment file at each store crash (a
  /// torn tail write the recovery scan must truncate).  Needs
  /// segment_store and crash_every_rounds.
  bool torn_tail = false;

  /// The one-line repro string: `key=value` pairs, space separated, only
  /// keys differing from the defaults (name and seed always included).
  [[nodiscard]] std::string to_string() const;
};

/// Parse the `key=value` text format: tokens separated by any whitespace
/// (so one line and a multi-line file are the same grammar), `#` starts a
/// comment to end of line.  Unknown keys, malformed values (a signed
/// integer, a non-finite number), and malformed compound values
/// (domains=, adversary.*=, link_down=, route_flap=, churn=) throw
/// std::invalid_argument naming the offending token.
[[nodiscard]] ScenarioConfig parse_scenario(std::string_view text);

}  // namespace vpm::sim

#endif  // VPM_SIM_SCENARIO_CONFIG_HPP
