#include "sim/scenario_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "adversary/strategies.hpp"
#include "collector/sharded_collector.hpp"
#include "core/incremental_verifier.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/faulty_transport.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/segment_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "loss/bernoulli.hpp"
#include "loss/gilbert_elliott.hpp"
#include "net/bob_hash.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim {
namespace {

constexpr dissem::DomainKey kKey = 0x5CE7A110;

/// Segment store shape: small segments, so GC unlinks files within a short
/// run, and a short cursor-log snapshot cadence, so runs compact the log.
constexpr std::size_t kSegmentBytes = 1024;
constexpr std::size_t kCursorSnapshotEvery = 512;

/// Merge crash re-declarations: a client killed after reporting a gap but
/// before acking past it re-fetches and re-declares the same gap (same
/// first missing sequence) — keep the widest range and the union of
/// attributed paths.
std::vector<core::RoundGap> dedupe_gaps(std::vector<core::RoundGap> raw) {
  std::map<std::uint64_t, core::RoundGap> by_first;
  for (core::RoundGap& g : raw) {
    auto [it, inserted] = by_first.try_emplace(g.first_sequence, g);
    if (inserted) continue;
    core::RoundGap& kept = it->second;
    kept.last_sequence = std::max(kept.last_sequence, g.last_sequence);
    kept.affected_paths.insert(kept.affected_paths.end(),
                               g.affected_paths.begin(),
                               g.affected_paths.end());
    std::sort(kept.affected_paths.begin(), kept.affected_paths.end());
    kept.affected_paths.erase(std::unique(kept.affected_paths.begin(),
                                          kept.affected_paths.end()),
                              kept.affected_paths.end());
  }
  std::vector<core::RoundGap> out;
  out.reserve(by_first.size());
  for (auto& [first, g] : by_first) out.push_back(std::move(g));
  return out;
}

/// Sum one FetchClient incarnation's stats into an accumulator (crash
/// rebuilds retire several incarnations per hop).
void add_stats(dissem::FetchClient::Stats& acc,
               const dissem::FetchClient::Stats& s) {
  acc.polls += s.polls;
  acc.backoff_skips += s.backoff_skips;
  acc.envelopes_fed += s.envelopes_fed;
  acc.refetch_skips += s.refetch_skips;
  acc.deliveries += s.deliveries;
  acc.groups_delivered += s.groups_delivered;
  acc.gaps_reported += s.gaps_reported;
  acc.transient_retries += s.transient_retries;
  acc.fatal_errors += s.fatal_errors;
  acc.acks += s.acks;
  acc.ack_rejections += s.ack_rejections;
  acc.gap_wait_polls += s.gap_wait_polls;
}

/// Quantise a timestamp to the wire's 1 µs resolution (floor), so drains
/// round-trip `==`-equal through export/import.
net::Timestamp quantize_us(net::Timestamp t) {
  return net::Timestamp{t.nanoseconds() / 1000 * 1000};
}

/// The reporting round an origin time falls in, clamped to the last round
/// (trailing packets emitted exactly at the duration boundary).
std::size_t round_of(net::Timestamp origin, std::int64_t round_ns,
                     std::size_t rounds) {
  auto r = static_cast<std::size_t>(origin.nanoseconds() / round_ns);
  if (r >= rounds) r = rounds - 1;
  return r;
}

/// Cut `1 + rnd % 40`-ish bytes off the lexicographically last segment
/// file under `root` — a torn tail write for recovery to truncate.  The
/// run is deterministic up to the crash, so its directory listing and the
/// choice of file are too.  Returns false when no segment file has bytes
/// to spare past its header.
bool tear_segment_tail(const std::filesystem::path& root, std::uint64_t rnd) {
  std::filesystem::path victim;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".seg") {
      continue;
    }
    if (victim.empty() ||
        entry.path().generic_string() > victim.generic_string()) {
      victim = entry.path();
    }
  }
  if (victim.empty()) return false;
  const std::uintmax_t size = std::filesystem::file_size(victim);
  if (size <= dissem::kSegmentHeaderBytes + 8) return false;
  const std::uintmax_t spare = size - dissem::kSegmentHeaderBytes;
  const std::uintmax_t cut = 1 + rnd % std::min<std::uintmax_t>(spare, 40);
  std::filesystem::resize_file(victim, size - cut);
  return true;
}

/// Position of `name` among the transit domains (throws unless it names
/// a domain with both an ingress and an egress HOP).
std::size_t transit_index(std::span<const std::string> transit,
                          const std::string& name, const char* what) {
  const auto it = std::find(transit.begin(), transit.end(), name);
  if (it == transit.end()) {
    throw std::invalid_argument(std::string("scenario: ") + what + " '" +
                                name + "' is not a transit domain");
  }
  return static_cast<std::size_t>(it - transit.begin());
}

void validate(const ScenarioConfig& cfg,
              const std::filesystem::path& directory) {
  if (cfg.domains.size() < 3) {
    throw std::invalid_argument(
        "scenario: need at least three domains (one transit)");
  }
  for (std::size_t i = 0; i < cfg.domains.size(); ++i) {
    for (std::size_t j = i + 1; j < cfg.domains.size(); ++j) {
      if (cfg.domains[i] == cfg.domains[j]) {
        throw std::invalid_argument("scenario: duplicate domain '" +
                                    cfg.domains[i] + "'");
      }
    }
  }
  if (cfg.paths == 0 || cfg.rounds == 0) {
    throw std::invalid_argument("scenario: empty run");
  }
  if (cfg.round_length <= net::Duration{0}) {
    throw std::invalid_argument("scenario: non-positive round length");
  }
  // A negative delay would have a HOP see a packet before its upstream
  // sent it; a negative jitter or max_diff silently means something else.
  if (cfg.domain_delay < net::Duration{0} ||
      cfg.link_delay < net::Duration{0} || cfg.jitter < net::Duration{0} ||
      cfg.max_diff < net::Duration{0}) {
    throw std::invalid_argument(
        "scenario: negative domain_delay, link_delay, jitter or max_diff");
  }
  if (cfg.route_flap.duration_rounds != 0 &&
      cfg.route_flap.paths >= cfg.paths) {
    throw std::invalid_argument(
        "scenario: route flap would withdraw every path");
  }
  if (cfg.link_down.duration_rounds != 0 &&
      cfg.link_down.link + 1 >= cfg.domains.size()) {
    throw std::invalid_argument("scenario: link_down index out of range");
  }
  // An event that starts after the last round never fires.
  if ((cfg.link_down.duration_rounds != 0 &&
       cfg.link_down.round >= cfg.rounds) ||
      (cfg.route_flap.duration_rounds != 0 &&
       cfg.route_flap.round >= cfg.rounds)) {
    throw std::invalid_argument(
        "scenario: link_down or route_flap starts after the last round");
  }
  // Crashes fire at rounds r != 0 with r % crash_every == 0, so a cadence
  // of `rounds` or more never fires and a torn tail tears nothing.
  if (cfg.crash_every_rounds >= cfg.rounds) {
    throw std::invalid_argument(
        "scenario: crash_every never fires before the last round");
  }
  // A disabled event (no duration, no live slots) with other fields set
  // would run silently and drop out of the repro line.
  if ((cfg.link_down.duration_rounds == 0 &&
       !(cfg.link_down == LinkDownEvent{})) ||
      (cfg.route_flap.duration_rounds == 0 &&
       !(cfg.route_flap == RouteFlapEvent{})) ||
      (cfg.churn.live == 0 && !(cfg.churn == ChurnSchedule{}))) {
    throw std::invalid_argument(
        "scenario: a disabled link_down, route_flap or churn sets other "
        "fields");
  }
  if (cfg.churn.live != 0 && (cfg.churn.stable >= cfg.paths ||
                              cfg.churn.lifetime_rounds == 0)) {
    throw std::invalid_argument(
        "scenario: churn needs stable < paths and a nonzero lifetime");
  }
  // Written so that NaN fails too: a rate above 1 or below 0 would fault
  // every envelope or none, whatever the line says.
  for (const double rate :
       {cfg.faults.drop_rate, cfg.faults.corrupt_rate,
        cfg.faults.duplicate_rate, cfg.faults.reorder_rate,
        cfg.faults.delay_rate}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      throw std::invalid_argument("scenario: fault rate outside [0, 1]");
    }
  }
  if (cfg.faults.delay_rate > 0.0 &&
      cfg.gap_patience_polls < cfg.faults.max_delay_ticks) {
    throw std::invalid_argument(
        "scenario: gap patience below the fault plan's max delay");
  }
  if (cfg.segment_store &&
      (directory.empty() || (std::filesystem::exists(directory) &&
                             !std::filesystem::is_empty(directory)))) {
    // A store reopened over an old run's files would replay that run.
    throw std::invalid_argument(
        "scenario: a segment store needs an empty directory");
  }
  if (cfg.torn_tail && (!cfg.segment_store || cfg.crash_every_rounds == 0)) {
    throw std::invalid_argument(
        "scenario: torn_tail needs a segment store and crash_every");
  }
  const std::span<const std::string> transit(cfg.domains.data() + 1,
                                             cfg.domains.size() - 2);
  for (std::size_t i = 0; i < cfg.adversaries.size(); ++i) {
    (void)transit_index(transit, cfg.adversaries[i].domain,
                        "adversary domain");
    for (std::size_t j = i + 1; j < cfg.adversaries.size(); ++j) {
      if (cfg.adversaries[i].domain == cfg.adversaries[j].domain) {
        throw std::invalid_argument("scenario: duplicate adversary for '" +
                                    cfg.adversaries[i].domain + "'");
      }
    }
  }
  if (!cfg.loss_domain.empty()) {
    (void)transit_index(transit, cfg.loss_domain, "loss domain");
  }
  if (!cfg.jitter_domain.empty()) {
    (void)transit_index(transit, cfg.jitter_domain, "jitter domain");
  }
}

/// One merged observation, pre-sorted per hop/round before collector feed.
struct MergedObs {
  net::Packet packet;
  net::Timestamp when;
};

}  // namespace

bool ScenarioOutcome::honest_clean() const {
  for (const core::PathAnalysis& a : analysis) {
    if (!a.all_links_consistent() || !a.complete()) return false;
  }
  return true;
}

std::vector<std::pair<std::string, std::string>>
ScenarioOutcome::implicated_links() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const core::PathAnalysis& a : analysis) {
    for (const core::LinkFinding& l : a.links) {
      if (l.implicates_pair()) {
        out.emplace_back(l.upstream_domain, l.downstream_domain);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double ScenarioOutcome::estimated_loss(const std::string& domain) const {
  (void)transit_index(transit_domains, domain, "loss query domain");
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const core::PathAnalysis& a : analysis) {
    for (const core::DomainFinding& d : a.domains) {
      if (d.domain != domain) continue;
      offered += d.loss.offered;
      delivered += d.loss.delivered;
    }
  }
  return offered == 0 ? 0.0
                      : 1.0 - static_cast<double>(delivered) /
                                  static_cast<double>(offered);
}

double ScenarioOutcome::true_loss(const std::string& domain) const {
  const std::size_t t =
      transit_index(transit_domains, domain, "loss query domain");
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (const std::vector<DomainTruth>& per_path : truth) {
    offered += per_path[t].offered;
    delivered += per_path[t].delivered;
  }
  return offered == 0 ? 0.0
                      : 1.0 - static_cast<double>(delivered) /
                                  static_cast<double>(offered);
}

ScenarioOutcome run_scenario(const ScenarioConfig& cfg,
                             const std::filesystem::path& directory) {
  validate(cfg, directory);

  const std::size_t n_domains = cfg.domains.size();
  const std::size_t n_hops = 2 * (n_domains - 1);
  const std::int64_t round_ns = cfg.round_length.nanoseconds();

  ScenarioOutcome out;
  out.repro = cfg.to_string();
  out.layout.hops.resize(n_hops);
  out.layout.domain_of.resize(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    out.layout.hops[pos] = static_cast<net::HopId>(pos + 1);
    out.layout.domain_of[pos] = cfg.domains[(pos + 1) / 2];
  }
  out.transit_domains.assign(cfg.domains.begin() + 1, cfg.domains.end() - 1);

  // Domain indices in the chain: transit position + 1.
  const std::size_t loss_d =
      cfg.loss == LossKind::kNone
          ? 0
          : 1 + (cfg.loss_domain.empty()
                     ? 0
                     : transit_index(out.transit_domains, cfg.loss_domain,
                                     "loss domain"));
  const std::size_t jitter_d =
      cfg.jitter_domain.empty()
          ? 0
          : 1 + transit_index(out.transit_domains, cfg.jitter_domain,
                              "jitter domain");

  // --- traffic, filtered by the route-flap window and the churn schedule --
  const trace::MultiPathTrace multi = trace::generate_multi_path(
      trace::MultiPathConfig{
          .path_count = cfg.paths,
          .zipf_s = cfg.zipf_s,
          .total_packets_per_second = cfg.packets_per_second,
          .duration =
              cfg.round_length * static_cast<std::int64_t>(cfg.rounds),
          .seed = cfg.seed});
  const std::size_t flap_first =
      cfg.route_flap.duration_rounds == 0 ? cfg.paths
                                          : cfg.paths - cfg.route_flap.paths;
  const std::size_t flap_start = cfg.route_flap.round;
  const std::size_t flap_end =
      cfg.route_flap.round + cfg.route_flap.duration_rounds;
  // Slot s hosts pool member stable + (gen * live + s) % pool for
  // generation gen, its phase staggered so slots rotate on different
  // rounds.
  const ChurnSchedule& churn = cfg.churn;
  const auto churned_out = [&](std::size_t path, std::size_t r) {
    if (churn.live == 0 || path < churn.stable) return false;
    const std::size_t pool = cfg.paths - churn.stable;
    for (std::size_t s = 0; s < churn.live; ++s) {
      const std::size_t phase = s * churn.lifetime_rounds / churn.live;
      const std::size_t gen = (r + phase) / churn.lifetime_rounds;
      if (churn.stable + (gen * churn.live + s) % pool == path) return false;
    }
    return true;
  };

  std::vector<net::Packet> fg_packets;   // merged, arrival order
  std::vector<std::size_t> fg_path;      // path of fg_packets[i]
  fg_packets.reserve(multi.packets.size());
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    net::Packet p = multi.packets[i];
    p.origin_time = quantize_us(p.origin_time);
    const std::size_t r =
        round_of(p.origin_time, round_ns, cfg.rounds);
    const std::size_t path = multi.path_of[i];
    if (path >= flap_first && r >= flap_start && r < flap_end) continue;
    if (churned_out(path, r)) continue;
    fg_packets.push_back(p);
    fg_path.push_back(path);
  }
  if (fg_packets.empty()) {
    throw std::invalid_argument("scenario: no traffic survives the config");
  }
  out.total_packets = fg_packets.size();

  // --- congestion delay/drop series (over the merged foreground) ----------
  CongestionResult congestion;
  if (cfg.loss == LossKind::kCongestion) {
    CongestionConfig ccfg;
    ccfg.bottleneck_bps = cfg.congestion_bps;
    ccfg.buffer_bytes = cfg.congestion_buffer;
    ccfg.seed = net::mix64(cfg.seed ^ 0xC0963710ull);
    congestion = simulate_congestion(ccfg, fg_packets);
  }

  // --- propagate every path through the chain -----------------------------
  out.truth.assign(cfg.paths,
                   std::vector<DomainTruth>(out.transit_domains.size()));
  out.observed_packets.assign(n_hops,
                              std::vector<std::uint64_t>(cfg.paths, 0));
  out.wire_packets.assign(n_hops, std::vector<std::uint64_t>(cfg.paths, 0));

  // obs_by_round[pos][r]: merged observations, sorted by local time.
  std::vector<std::vector<std::vector<MergedObs>>> obs_by_round(
      n_hops, std::vector<std::vector<MergedObs>>(cfg.rounds));

  for (std::size_t p = 0; p < cfg.paths; ++p) {
    std::vector<net::Packet> path_trace;
    std::vector<std::size_t> to_fg;  // local packet index -> fg index
    for (std::size_t i = 0; i < fg_packets.size(); ++i) {
      if (fg_path[i] != p) continue;
      path_trace.push_back(fg_packets[i]);
      to_fg.push_back(i);
    }

    PathEnvironment env;
    env.seed = net::mix64(cfg.seed ^ (0x9E3779B97F4A7C15ull + p));
    env.domains.resize(n_domains);
    env.links.resize(n_domains - 1);
    std::unique_ptr<loss::LossModel> loss_model;
    for (std::size_t d = 1; d + 1 < n_domains; ++d) {
      env.domains[d].delay_of = [delay = cfg.domain_delay](PacketIndex) {
        return delay;
      };
    }
    if (jitter_d != 0) env.domains[jitter_d].jitter = cfg.jitter;
    switch (cfg.loss) {
      case LossKind::kNone:
        break;
      case LossKind::kBernoulli:
        loss_model = std::make_unique<loss::BernoulliLoss>(
            cfg.loss_rate, net::mix64(cfg.seed ^ (0xB10Bull + p)));
        env.domains[loss_d].loss = loss_model.get();
        break;
      case LossKind::kGilbertElliott:
        loss_model = std::make_unique<loss::GilbertElliott>(
            loss::GilbertElliott::with_target_loss(
                cfg.loss_rate, cfg.loss_burst,
                net::mix64(cfg.seed ^ (0x6EB0ull + p))));
        env.domains[loss_d].loss = loss_model.get();
        break;
      case LossKind::kCongestion:
        env.domains[loss_d].delay_of = [&congestion, &to_fg](PacketIndex i) {
          return congestion.outcomes[to_fg[i]].delay;
        };
        env.domains[loss_d].drop_by_index = [&congestion,
                                             &to_fg](PacketIndex i) {
          return congestion.outcomes[to_fg[i]].dropped;
        };
        break;
    }
    for (std::size_t l = 0; l + 1 < n_domains; ++l) {
      env.links[l].delay = cfg.link_delay;
    }
    if (cfg.link_down.duration_rounds != 0) {
      const net::Timestamp t0{static_cast<std::int64_t>(cfg.link_down.round) *
                              round_ns};
      const net::Timestamp t1{
          static_cast<std::int64_t>(cfg.link_down.round +
                                    cfg.link_down.duration_rounds) *
          round_ns};
      env.links[cfg.link_down.link].targeted_drop =
          [t0, t1](const net::Packet& pkt) {
            return pkt.origin_time >= t0 && pkt.origin_time < t1;
          };
    }

    PathRunResult run = run_path(path_trace, env);
    out.delivered_packets += run.delivered;
    for (std::size_t d = 1; d + 1 < n_domains; ++d) {
      out.truth[p][d - 1].offered =
          run.hop_observations[PathEnvironment::ingress_hop(d)].size();
      out.truth[p][d - 1].delivered =
          run.hop_observations[PathEnvironment::egress_hop(d)].size();
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      out.observed_packets[pos][p] = run.hop_observations[pos].size();
      for (const Obs& o : run.hop_observations[pos]) {
        // Bucket by OBSERVATION time, not origin round: a hop observes in
        // local-clock order, and feeding it anything else (origin-round
        // buckets overlap in `when` once jitter or queueing delay exceeds
        // the inter-packet gap) produces receipts with backward time steps
        // that the wire codec rightly rejects.  Stragglers past the last
        // boundary fold into the final round.
        const net::Timestamp when = quantize_us(o.when);
        const std::size_t r_obs = std::min<std::size_t>(
            cfg.rounds - 1,
            static_cast<std::size_t>(when.nanoseconds() / round_ns));
        obs_by_round[pos][r_obs].push_back(MergedObs{
            .packet = path_trace[o.pkt],
            .when = when,
        });
      }
    }
  }
  for (auto& per_hop : obs_by_round) {
    for (std::vector<MergedObs>& bucket : per_hop) {
      std::sort(bucket.begin(), bucket.end(),
                [](const MergedObs& a, const MergedObs& b) {
                  if (a.when != b.when) return a.when < b.when;
                  return a.packet.sequence < b.packet.sequence;
                });
    }
  }

  // --- collectors (rebuilt on route-flap transitions) ---------------------
  std::vector<collector::MonitoringCache::Config> hop_cfg(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    collector::MonitoringCache::Config c;
    c.protocol.digest_mode = cfg.digest_mode;
    c.protocol.marker_rate = cfg.marker_rate;
    c.protocol.marker_max_age = cfg.marker_max_age;
    c.tuning = cfg.tuning;
    c.previous_hop = pos == 0 ? net::kNoHop : out.layout.hops[pos - 1];
    c.next_hop = pos + 1 == n_hops ? net::kNoHop : out.layout.hops[pos + 1];
    c.max_diff = cfg.max_diff;
    if (cfg.ttl_rounds != 0) {
      c.lifecycle = collector::LifecycleConfig{
          .idle_ttl = cfg.round_length *
                      static_cast<std::int64_t>(cfg.ttl_rounds),
          .compact_garbage_fraction = 0.25,
          .decay_low_occupancy_drains = 2,
      };
    }
    hop_cfg[pos] = c;
  }

  std::vector<std::optional<collector::ShardedCollector>> collectors(n_hops);
  const auto build_collectors = [&](const std::vector<net::PrefixPair>& table) {
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      collector::ShardedCollector::Config scfg;
      scfg.cache = hop_cfg[pos];
      scfg.shard_count = cfg.shards;
      collectors[pos].emplace(scfg, table);
    }
  };
  const std::vector<net::PrefixPair> flap_table(
      multi.paths.begin(),
      multi.paths.begin() + static_cast<std::ptrdiff_t>(flap_first));
  build_collectors(multi.paths);

  // --- the wire: exporters -> faulty transports -> store ------------------
  // Keys are not durable: every store incarnation registers them afresh.
  const auto open_store = [&] {
    auto fresh =
        cfg.segment_store
            ? std::make_unique<dissem::ReceiptStore>(
                  dissem::make_segment_storage({
                      .directory = directory,
                      .max_segment_bytes = kSegmentBytes,
                      .cursor_snapshot_every = kCursorSnapshotEvery,
                  }))
            : std::make_unique<dissem::ReceiptStore>();
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      fresh->register_producer(out.layout.hops[pos], kKey);
    }
    fresh->register_consumer("fleet");
    return fresh;
  };
  std::unique_ptr<dissem::ReceiptStore> store = open_store();

  // archive[pos][s - 1]: HOP pos's envelope s as sealed, before the
  // transport can fault it — the perfect wire the delivered-round
  // reference replays.  accepted[pos][s - 1]: the store accepted it; the
  // store rejects a corrupted copy at the MAC check, so what it accepted
  // is the sealed envelope.  sealed[pos][r]: the last sequence of publish
  // r (every round, route-flap drain and the closing drain).
  std::vector<std::vector<dissem::Envelope>> archive(n_hops);
  std::vector<std::vector<char>> accepted(n_hops);
  std::vector<std::vector<std::uint64_t>> sealed(n_hops);
  const auto ingest = [&store, &accepted](std::size_t pos,
                                          dissem::Envelope&& e) {
    const std::uint64_t sequence = e.sequence;
    if (store->ingest(std::move(e)) == dissem::IngestResult::kAccepted) {
      accepted[pos][sequence - 1] = 1;
    }
  };

  std::vector<std::optional<dissem::FaultyTransport>> transports(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    transports[pos].emplace(cfg.faults, cfg.fault_seed + pos,
                            [&ingest, pos](dissem::Envelope&& e) {
                              ingest(pos, std::move(e));
                            });
  }

  bool faults_on = true;  // the closing drain ships on a clean wire
  std::vector<std::optional<dissem::WireExporter>> exporters(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    exporters[pos].emplace(
        dissem::WireExporter::Config{.producer = out.layout.hops[pos],
                                     .key = kKey,
                                     .max_chunk_bytes = cfg.max_chunk_bytes},
        [&transports, &ingest, &archive, &accepted, &faults_on,
         pos](dissem::Envelope&& e) {
          archive[pos].push_back(e);
          accepted[pos].push_back(0);
          if (faults_on) {
            transports[pos]->send(std::move(e));
          } else {
            ingest(pos, std::move(e));
          }
        });
  }

  // --- verifiers and the consumer fleet -----------------------------------
  // Retention outlasts the run.  A round the fleet receives late, after
  // waiting out a gap in front of it, can arrive more rounds behind its
  // neighbours' counterparts than the library default of 4 keeps; the
  // fleet would then expire state the delivered-round reference matches
  // (the fault soaks' dropping cells do exactly that at 4).
  const core::IncrementalPathVerifier::Config vcfg{
      .layout = out.layout,
      .retain_rounds = cfg.rounds + 16,
      .margin_boundaries = 2,
  };
  std::vector<core::IncrementalPathVerifier> verifiers;
  verifiers.reserve(cfg.paths);
  for (std::size_t p = 0; p < cfg.paths; ++p) verifiers.emplace_back(vcfg);

  std::vector<std::optional<dissem::WireImporter>> importers(n_hops);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    importers[pos].emplace(collector::path_table(hop_cfg[pos], multi.paths));
  }

  std::vector<std::vector<core::RoundGap>> raw_gaps(n_hops);
  std::vector<std::unique_ptr<dissem::FetchClient>> clients(n_hops);
  dissem::FetchClient::Stats fleet_stats;
  const auto build_client = [&](std::size_t pos) {
    dissem::FetchClient::Config ccfg;
    ccfg.consumer = "fleet";
    ccfg.producer = out.layout.hops[pos];
    ccfg.producer_name = out.layout.domain_of[pos];
    ccfg.hop = out.layout.hops[pos];
    ccfg.gap_patience_polls = cfg.gap_patience_polls;
    ccfg.seed = cfg.seed ^ (0xC11E57ull + pos);
    clients[pos] = std::make_unique<dissem::FetchClient>(
        *importers[pos], *store, ccfg,
        [&verifiers, &out, pos](std::vector<core::IndexedPathDrain>&& groups) {
          for (core::IndexedPathDrain& g : groups) {
            for (const core::AggregateReceipt& a : g.drain.aggregates) {
              out.wire_packets[pos][g.path] += a.packet_count;
            }
            verifiers[g.path].add_round(out.layout.hops[pos],
                                        std::move(g.drain));
          }
        },
        [&raw_gaps, pos](core::RoundGap&& gap) {
          raw_gaps[pos].push_back(std::move(gap));
        });
  };
  const auto retire_client = [&](std::size_t pos) {
    add_stats(fleet_stats, clients[pos]->stats());
    clients[pos].reset();
  };
  for (std::size_t pos = 0; pos < n_hops; ++pos) build_client(pos);

  // --- the crash -----------------------------------------------------------
  // After round r is published and before it is polled (no cursor moves in
  // between), the fleet dies and rebuilds from its acked cursors.  A
  // segment store dies with it: destroyed, its last segment optionally
  // torn, reopened from disk and sent every envelope the old store had
  // accepted.  Torn-away envelopes re-accept, collected ones fall at or
  // below the recovered floor and retained ones dedupe, so the reopened
  // store serves what the memory store would.
  std::size_t rejected_before = 0;  // rejections of dead incarnations
  dissem::StorageStats storage_before;
  const auto crash = [&](std::size_t r) {
    for (std::size_t pos = 0; pos < n_hops; ++pos) retire_client(pos);
    if (cfg.segment_store) {
      const dissem::StorageStats s = store->storage_stats();
      storage_before.erased += s.erased;
      storage_before.segments_unlinked += s.segments_unlinked;
      rejected_before += store->rejected_count();
      store.reset();
      if (cfg.torn_tail &&
          tear_segment_tail(directory,
                            net::mix64(cfg.seed ^ (0x7EA5ull * r)))) {
        ++out.torn_tails;
      }
      store = open_store();
      for (std::size_t pos = 0; pos < n_hops; ++pos) {
        for (std::size_t i = 0; i < archive[pos].size(); ++i) {
          if (!accepted[pos][i]) continue;
          if (store->ingest(archive[pos][i]) ==
              dissem::IngestResult::kAccepted) {
            ++out.reingest_accepted;
          } else {
            ++out.reingest_rejected;
          }
        }
      }
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      build_client(pos);
      ++out.client_rebuilds;
    }
  };

  // --- adversary transform plumbing ---------------------------------------
  // adv_at[pos]: what the owning domain does to the drains this HOP
  // publishes.  Lies about traversal live at the egress HOP; a colluding
  // cover-up fabricates at the ingress HOP from the upstream neighbour's
  // PUBLISHED egress (one hop position earlier either way).
  std::vector<AdversaryKind> adv_at(n_hops, AdversaryKind::kHonest);
  for (const ScenarioAdversary& a : cfg.adversaries) {
    const std::size_t d =
        1 + transit_index(out.transit_domains, a.domain, "adversary domain");
    const std::size_t pos = a.kind == AdversaryKind::kCoverUpstream
                                ? PathEnvironment::ingress_hop(d)
                                : PathEnvironment::egress_hop(d);
    adv_at[pos] = a.kind;
  }

  using Stream = std::vector<core::IndexedPathDrain>;
  const auto find_group = [](const Stream& s,
                             std::size_t path) -> const core::PathDrain* {
    for (const core::IndexedPathDrain& g : s) {
      if (g.path == path) return &g.drain;
    }
    return nullptr;
  };
  // Transform hop positions in ascending order, so a cover-up reads the
  // upstream liar's already-transformed (published) stream.
  const auto apply_adversaries = [&](std::vector<Stream>& streams) {
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      if (adv_at[pos] == AdversaryKind::kHonest) continue;
      for (core::IndexedPathDrain& g : streams[pos]) {
        switch (adv_at[pos]) {
          case AdversaryKind::kHideLoss: {
            const core::PathDrain* ingress =
                find_group(streams[pos - 1], g.path);
            if (ingress == nullptr) break;
            g.drain.samples = adversary::hide_loss_samples(
                g.drain.samples, ingress->samples, cfg.fake_delay);
            g.drain.aggregates = adversary::hide_loss_aggregates(
                g.drain.aggregates, ingress->aggregates);
            break;
          }
          case AdversaryKind::kUnderstateDelay:
            g.drain.samples =
                adversary::understate_delay(g.drain.samples, cfg.shave);
            break;
          case AdversaryKind::kCoverUpstream: {
            const core::PathDrain* upstream =
                find_group(streams[pos - 1], g.path);
            if (upstream == nullptr) break;
            g.drain.samples = adversary::cover_neighbor_samples(
                g.drain.samples, upstream->samples, cfg.link_delay);
            g.drain.aggregates = adversary::cover_neighbor_aggregates(
                g.drain.aggregates, upstream->aggregates, cfg.link_delay);
            break;
          }
          case AdversaryKind::kHonest:
            break;
        }
      }
    }
  };
  const auto publish = [&](std::vector<Stream>&& streams) {
    apply_adversaries(streams);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      core::emit_stream(*exporters[pos], std::move(streams[pos]));
      exporters[pos]->end_round();
      exporters[pos]->flush();
      sealed[pos].push_back(exporters[pos]->next_sequence() - 1);
      transports[pos]->tick();
    }
  };
  // Drain every HOP (flush_open): the route-flap rebuild boundary — open
  // receipts ship before the table changes, so nothing is orphaned.
  const auto flush_all = [&] {
    std::vector<Stream> streams(n_hops);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      core::VectorSink sink;
      collectors[pos]->drain(sink, /*flush_open=*/true);
      streams[pos] = std::move(sink).take();
    }
    publish(std::move(streams));
  };

  // --- the rounds ---------------------------------------------------------
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    if (cfg.route_flap.duration_rounds != 0) {
      // Withdraw one round AFTER the traffic stops: observations are
      // bucketed by local time, so packets in flight across the withdraw
      // boundary land in bucket flap_start and must still hit the old
      // table.  The restore needs no such grace — returning traffic is
      // observed strictly after its origin, never before the rebuild.
      if (r == flap_start + 1 && r < flap_end) {
        flush_all();
        build_collectors(flap_table);
      } else if (r == flap_end && flap_end > flap_start + 1) {
        flush_all();
        build_collectors(multi.paths);
      }
    }

    std::vector<Stream> streams(n_hops);
    RoundArenas arenas;
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      const std::vector<MergedObs>& bucket = obs_by_round[pos][r];
      std::vector<net::Packet> packets;
      std::vector<net::Timestamp> when;
      packets.reserve(bucket.size());
      when.reserve(bucket.size());
      for (const MergedObs& o : bucket) {
        packets.push_back(o.packet);
        when.push_back(o.when);
      }
      collectors[pos]->observe_batch(packets, when);

      core::VectorSink sink;
      collectors[pos]->drain(sink, /*flush_open=*/false);
      if (cfg.ttl_rounds != 0) {
        const net::Timestamp now{static_cast<std::int64_t>(r + 1) * round_ns};
        out.lifecycle += collectors[pos]->run_lifecycle(now, sink);
      }
      arenas.bytes += collectors[pos]->arena_bytes();
      arenas.live_bytes += collectors[pos]->arena_live_bytes();
      streams[pos] = std::move(sink).take();
    }
    out.arenas.push_back(arenas);
    publish(std::move(streams));
    if (cfg.crash_every_rounds != 0 && r != 0 &&
        r % cfg.crash_every_rounds == 0) {
      crash(r);
    }
    for (std::size_t pos = 0; pos < n_hops; ++pos) clients[pos]->poll();
    out.segments_live_peak = std::max(out.segments_live_peak,
                                      store->storage_stats().segments_live);
  }

  // --- the clean closing drain --------------------------------------------
  // Tail losses are invisible until something arrives behind them: flush
  // the transports, then ship the final flush_open drain on a perfect
  // wire so every induced gap has a clean round to resync against.
  for (std::size_t pos = 0; pos < n_hops; ++pos) transports[pos]->flush();
  faults_on = false;
  {
    std::vector<Stream> streams(n_hops);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      core::VectorSink sink;
      collectors[pos]->drain(sink, /*flush_open=*/true);
      streams[pos] = std::move(sink).take();
    }
    apply_adversaries(streams);
    for (std::size_t pos = 0; pos < n_hops; ++pos) {
      core::emit_stream(*exporters[pos], std::move(streams[pos]));
      exporters[pos]->finish();
      sealed[pos].push_back(exporters[pos]->next_sequence() - 1);
    }
  }
  const std::size_t settle = cfg.gap_patience_polls + 16;
  for (std::size_t i = 0; i < settle; ++i) {
    for (std::size_t pos = 0; pos < n_hops; ++pos) clients[pos]->poll();
  }
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    clients[pos]->finalize();
    retire_client(pos);
  }

  // --- gap bookkeeping -----------------------------------------------------
  // Wire path keys are hop-agnostic (prefix pair + header spec), so one
  // importer's table attributes every hop's gaps.
  std::unordered_map<std::uint64_t, std::size_t> index_of_key;
  for (std::size_t p = 0; p < cfg.paths; ++p) {
    index_of_key[importers[0]->path_at(p).path_key()] = p;
  }
  out.gaps.assign(n_hops, {});
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    out.gaps[pos] = dedupe_gaps(std::move(raw_gaps[pos]));
    for (const core::RoundGap& g : out.gaps[pos]) {
      for (std::uint64_t key : g.affected_paths) {
        const auto it = index_of_key.find(key);
        if (it != index_of_key.end()) verifiers[it->second].report_gap(g);
      }
    }
  }

  // --- the delivered-round reference --------------------------------------
  // A round is delivered iff no deduplicated gap intersects its sealed
  // sequence range.  Materialized verifiers replay exactly those rounds
  // off the archive, so they hold what a perfect wire yields over the
  // rounds the fleet received, with nothing retired.
  std::vector<core::PathVerifier> reference(cfg.paths);
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    const net::HopId hop = out.layout.hops[pos];
    core::DrainRoundSink sink([&reference, hop](std::size_t path,
                                                core::PathDrain&& drain) {
      reference[path].add_round(hop, std::move(drain));
    });
    dissem::WireImporter::Session session(*importers[pos], sink);
    std::uint64_t first = 1;
    for (const std::uint64_t last : sealed[pos]) {
      const bool delivered = std::none_of(
          out.gaps[pos].begin(), out.gaps[pos].end(),
          [&](const core::RoundGap& g) {
            return g.first_sequence <= last && g.last_sequence >= first;
          });
      for (std::uint64_t s = first; delivered && s <= last; ++s) {
        session.feed(archive[pos][s - 1].payload);
      }
      first = last + 1;
    }
    session.finish();
  }

  // --- analyses and end state ---------------------------------------------
  out.analysis.reserve(cfg.paths);
  out.delivered_reference.reserve(cfg.paths);
  for (std::size_t p = 0; p < cfg.paths; ++p) {
    out.analysis.push_back(verifiers[p].analyze());
    out.delivered_reference.push_back(reference[p].analyze(out.layout));
    out.expired_unmatched += verifiers[p].resident_stats().expired_unmatched;
  }
  for (std::size_t pos = 0; pos < n_hops; ++pos) {
    out.consumer_lag_end.push_back(
        store->consumer_lag("fleet", out.layout.hops[pos]));
    out.lost_sequences.push_back(
        transports[pos]->lost_sequences(out.layout.hops[pos]));
    const dissem::FaultStats& ts = transports[pos]->stats();
    out.wire.offered += ts.offered;
    out.wire.delivered += ts.delivered;
    out.wire.dropped += ts.dropped;
    out.wire.corrupted += ts.corrupted;
    out.wire.duplicated += ts.duplicated;
    out.wire.reordered += ts.reordered;
    out.wire.delayed += ts.delayed;
  }
  out.storage_end = store->storage_stats();
  out.storage_end.erased += storage_before.erased;
  out.storage_end.segments_unlinked += storage_before.segments_unlinked;
  out.segments_live_peak =
      std::max(out.segments_live_peak, out.storage_end.segments_live);
  out.store_rejected =
      rejected_before + store->rejected_count() - out.reingest_rejected;
  out.ack_rejections = fleet_stats.ack_rejections;
  out.gaps_reported = fleet_stats.gaps_reported;
  out.groups_delivered = fleet_stats.groups_delivered;
  return out;
}

}  // namespace vpm::sim
