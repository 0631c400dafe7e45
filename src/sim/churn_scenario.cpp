#include "sim/churn_scenario.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>

#include "collector/sharded_collector.hpp"
#include "core/incremental_verifier.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "sim/scenario_common.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim {
namespace {

using scenario::append_drain;
using scenario::path_table;

constexpr std::size_t kHops = 3;
constexpr dissem::DomainKey kKey = 0xFEEDC0DE;

}  // namespace

ChurnScenarioResult run_churn_scenario(const ChurnScenarioConfig& cfg) {
  if (cfg.stable_paths >= cfg.path_count) {
    throw std::invalid_argument("churn scenario: no churn pool");
  }
  if (cfg.churn_live == 0 || cfg.churn_lifetime_rounds == 0) {
    throw std::invalid_argument("churn scenario: empty churn schedule");
  }
  const std::size_t pool = cfg.path_count - cfg.stable_paths;

  // --- the live-path schedule --------------------------------------------
  // Slot s hosts one churning path for `churn_lifetime_rounds` rounds,
  // staggered across slots, then rotates to the next pool member — paths
  // arrive, live, expire, and (once the pool wraps) revive long after
  // their eviction.
  const auto live_at = [&](std::size_t path, std::size_t round) {
    if (path < cfg.stable_paths) return true;
    for (std::size_t s = 0; s < cfg.churn_live; ++s) {
      const std::size_t phase =
          s * cfg.churn_lifetime_rounds / cfg.churn_live;
      const std::size_t gen = (round + phase) / cfg.churn_lifetime_rounds;
      const std::size_t active =
          cfg.stable_paths + (gen * cfg.churn_live + s) % pool;
      if (active == path) return true;
    }
    return false;
  };

  // --- traffic ------------------------------------------------------------
  const trace::MultiPathTrace multi = trace::generate_multi_path(
      scenario::multi_path_config(cfg.path_count, cfg.zipf_s,
                                  cfg.total_packets_per_second,
                                  cfg.round_length, cfg.rounds, cfg.seed));

  // Per-path, per-hop observation delay (µs-aligned, constant per path so
  // per-path observation order is preserved and the 1 µs wire time
  // quantisation is exact).
  const auto hop_delay = [&](std::size_t path, std::size_t hop) {
    return scenario::spread_hop_delay(cfg.seed, path, hop, cfg.hop_delay,
                                      cfg.delay_spread_us);
  };

  const std::int64_t round_ns = cfg.round_length.nanoseconds();
  std::vector<std::vector<net::Packet>> round_packets(cfg.rounds);
  std::array<std::vector<std::vector<net::Timestamp>>, kHops> round_when;
  for (auto& w : round_when) w.resize(cfg.rounds);
  std::uint64_t total_packets = 0;
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    net::Packet p = multi.packets[i];
    p.origin_time = scenario::quantize_us(p.origin_time);
    const std::size_t r =
        scenario::round_of(p.origin_time, round_ns, cfg.rounds);
    const std::size_t path = multi.path_of[i];
    if (!live_at(path, r)) continue;
    round_packets[r].push_back(p);
    for (std::size_t h = 0; h < kHops; ++h) {
      round_when[h][r].push_back(p.origin_time + hop_delay(path, h));
    }
    ++total_packets;
  }

  // --- the two deployments ------------------------------------------------
  ChurnScenarioResult result;
  result.total_packets = total_packets;
  result.stable_paths = cfg.stable_paths;
  result.layout = scenario::three_hop_layout();

  std::array<collector::MonitoringCache::Config, kHops> hop_cfg;
  for (std::size_t h = 0; h < kHops; ++h) {
    collector::MonitoringCache::Config c;
    c.protocol.digest_mode = cfg.digest_mode;
    c.protocol.marker_rate = cfg.marker_rate;
    c.tuning = cfg.tuning;
    c.self = result.layout.hops[h];
    c.previous_hop = h == 0 ? net::kNoHop : result.layout.hops[h - 1];
    c.next_hop = h + 1 == kHops ? net::kNoHop : result.layout.hops[h + 1];
    hop_cfg[h] = c;
  }

  std::array<std::optional<collector::ShardedCollector>, kHops> churn;
  std::array<std::optional<collector::MonitoringCache>, kHops> ref;
  for (std::size_t h = 0; h < kHops; ++h) {
    collector::ShardedCollector::Config scfg;
    scfg.cache = hop_cfg[h];
    scfg.cache.lifecycle = collector::LifecycleConfig{
        .evict_idle = true,
        .idle_ttl =
            cfg.round_length * static_cast<std::int64_t>(cfg.ttl_rounds),
        .compact_garbage_fraction = cfg.compact_garbage_fraction,
        .decay_low_occupancy_drains = cfg.decay_low_occupancy_drains,
    };
    scfg.shard_count = cfg.shard_count;
    churn[h].emplace(scfg, multi.paths);
    ref[h].emplace(hop_cfg[h], multi.paths);
  }

  // --- dissemination: exporters -> stores (churn GC'd, reference not) ----
  dissem::ReceiptStore store;      // churn: cursors + GC
  dissem::ReceiptStore ref_store;  // same stream, nobody acks
  for (std::size_t h = 0; h < kHops; ++h) {
    store.register_producer(result.layout.hops[h], kKey);
    ref_store.register_producer(result.layout.hops[h], kKey);
  }
  store.register_consumer("verifier");
  store.register_consumer("archiver");

  std::array<std::optional<dissem::WireExporter>, kHops> exporters;
  for (std::size_t h = 0; h < kHops; ++h) {
    exporters[h].emplace(
        dissem::WireExporter::Config{.producer = result.layout.hops[h],
                                     .key = kKey,
                                     .max_chunk_bytes = 16 * 1024},
        [&store, &ref_store](dissem::Envelope&& e) {
          ref_store.ingest(e);
          store.ingest(std::move(e));
        });
  }

  // --- verification: importer sessions -> per-path verifiers -------------
  std::vector<core::IncrementalPathVerifier> churn_verifiers;
  churn_verifiers.reserve(cfg.path_count);
  for (std::size_t p = 0; p < cfg.path_count; ++p) {
    churn_verifiers.emplace_back(core::IncrementalPathVerifier::Config{
        .layout = result.layout,
        .retain_rounds = cfg.retain_rounds,
        .margin_boundaries = cfg.margin_boundaries,
    });
  }
  std::vector<core::PathVerifier> ref_verifiers(cfg.path_count);

  result.churn_concat.assign(
      kHops, std::vector<core::PathDrain>(cfg.path_count));
  result.ref_concat.assign(kHops,
                           std::vector<core::PathDrain>(cfg.path_count));
  std::array<std::vector<char>, kHops> churn_have;
  std::array<std::vector<char>, kHops> ref_have;
  for (std::size_t h = 0; h < kHops; ++h) {
    churn_have[h].assign(cfg.path_count, 0);
    ref_have[h].assign(cfg.path_count, 0);
  }

  std::array<std::optional<dissem::WireImporter>, kHops> importers;
  std::array<std::optional<core::DrainRoundSink>, kHops> round_sinks;
  std::array<std::optional<dissem::WireImporter::Session>, kHops> sessions;
  for (std::size_t h = 0; h < kHops; ++h) {
    importers[h].emplace(path_table(hop_cfg[h], multi.paths));
    const net::HopId hop = result.layout.hops[h];
    round_sinks[h].emplace([&result, &churn_have, &churn_verifiers, h, hop](
                               std::size_t index, core::PathDrain&& drain) {
      append_drain(result.churn_concat[h][index], churn_have[h][index],
                   drain);
      churn_verifiers[index].add_round(hop, std::move(drain));
    });
    sessions[h].emplace(*importers[h], *round_sinks[h]);
  }

  // --- the rounds ---------------------------------------------------------
  std::array<std::vector<std::uint64_t>, kHops> sealed_by_round;
  const auto consume_round = [&] {
    // The "verifier" consumer polls every producer each round, feeding
    // new envelopes through its importer session, then acks.
    for (std::size_t h = 0; h < kHops; ++h) {
      std::uint64_t last = 0;
      store.fetch_from("verifier", result.layout.hops[h],
                       [&](std::uint64_t seq,
                           std::span<const std::byte> payload) {
                         sessions[h]->feed(payload);
                         last = seq;
                       });
      if (last != 0) {
        store.ack("verifier", result.layout.hops[h], last);
      }
    }
  };

  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    for (std::size_t h = 0; h < kHops; ++h) {
      churn[h]->observe_batch(round_packets[r], round_when[h][r]);
      ref[h]->observe_batch(round_packets[r], round_when[h][r]);

      // Periodic drain, then the lifecycle pass (evictions drain through
      // the same exporter — no receipt is lost), then ship the round.
      churn[h]->drain(*exporters[h], /*flush_open=*/false);
      const net::Timestamp now =
          net::Timestamp{static_cast<std::int64_t>(r + 1) * round_ns} +
          cfg.hop_delay * static_cast<std::int64_t>(h);
      result.lifecycle_totals +=
          churn[h]->run_lifecycle(now, *exporters[h]);
      exporters[h]->end_round();
      exporters[h]->flush();
      sealed_by_round[h].push_back(exporters[h]->next_sequence() - 1);

      for (core::IndexedPathDrain& d :
           ref[h]->drain_all(/*flush_open=*/false)) {
        append_drain(result.ref_concat[h][d.path], ref_have[h][d.path],
                     d.drain);
        ref_verifiers[d.path].add_round(result.layout.hops[h],
                                        std::move(d.drain));
      }
    }

    consume_round();
    // The lagging archiver acks what it saw `archiver_lag_rounds` ago —
    // the slowest-consumer bound on retained envelopes.
    if (r >= cfg.archiver_lag_rounds) {
      for (std::size_t h = 0; h < kHops; ++h) {
        const std::uint64_t seq =
            sealed_by_round[h][r - cfg.archiver_lag_rounds];
        if (seq != 0) store.ack("archiver", result.layout.hops[h], seq);
      }
    }

    ChurnRoundMetrics m;
    for (std::size_t h = 0; h < kHops; ++h) {
      m.churn_arena_bytes += churn[h]->arena_bytes();
      m.churn_arena_live_bytes += churn[h]->arena_live_bytes();
      m.ref_arena_bytes += ref[h]->state().arena_bytes();
    }
    m.store_envelopes = store.stored_envelopes();
    m.store_payload_bytes = store.stored_payload_bytes();
    m.ref_store_payload_bytes = ref_store.stored_payload_bytes();
    for (const core::IncrementalPathVerifier& v : churn_verifiers) {
      const auto stats = v.resident_stats();
      m.verifier_tail_receipts += stats.tail_aggregate_receipts;
      m.verifier_pending +=
          stats.pending_ingress_samples + stats.pending_sample_rounds;
    }
    m.evicted_cumulative = result.lifecycle_totals.evicted_paths;
    result.per_round.push_back(m);
  }

  // --- end of run: flush open aggregates, final fetch, analyses -----------
  for (std::size_t h = 0; h < kHops; ++h) {
    churn[h]->drain(*exporters[h], /*flush_open=*/true);
    exporters[h]->finish();

    for (core::IndexedPathDrain& d : ref[h]->drain_all(/*flush_open=*/true)) {
      append_drain(result.ref_concat[h][d.path], ref_have[h][d.path],
                   d.drain);
      ref_verifiers[d.path].add_round(result.layout.hops[h],
                                      std::move(d.drain));
    }
  }
  consume_round();
  for (std::size_t h = 0; h < kHops; ++h) sessions[h]->finish();

  result.churn_analysis.reserve(cfg.path_count);
  result.ref_analysis.reserve(cfg.path_count);
  for (std::size_t p = 0; p < cfg.path_count; ++p) {
    result.churn_analysis.push_back(churn_verifiers[p].analyze());
    result.ref_analysis.push_back(ref_verifiers[p].analyze(result.layout));
    result.verifier_expired_unmatched +=
        churn_verifiers[p].resident_stats().expired_unmatched;
  }
  result.store_accepted = store.accepted_count();
  result.store_gc_erased = store.gc_erased_count();
  return result;
}

}  // namespace vpm::sim
