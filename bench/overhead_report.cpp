// OVH-M / OVH-B — regenerates the Section 7.1 overhead arithmetic from
// the implementation: memory (monitoring cache, temp packet buffer),
// receipt wire sizes, and receipt-dissemination bandwidth.
//
// Every "measured" number below is computed from live data structures or
// the actual serializer — the paper's figures are printed alongside.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/path_state.hpp"
#include "net/sample_batch.hpp"
#include "net/simd_dispatch.hpp"
#include "dissem/envelope.hpp"
#include "dissem/federated_store.hpp"
#include "collector/resource_model.hpp"
#include "core/receipt_batch.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/wire_exporter.hpp"
#include "experiment.hpp"
#include "sim/scenario_engine.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

void memory_section() {
  std::printf("== Memory (paper section 7.1) ==\n\n");

  std::printf("Monitoring cache (open-receipt state per active path):\n");
  std::printf("  paper:    100,000 paths -> 2 MB (~20 B/path)\n");
  std::printf("  model:    100,000 paths -> %.2f MB (%zu B/path)\n",
              static_cast<double>(collector::monitoring_cache_bytes(100'000)) /
                  1e6,
              collector::kOpenReceiptBytes);

  // Measured: build a real cache over 10,000 paths and read the ACTUAL
  // structure-of-arrays footprint (one contiguous 32 B PathHot record per
  // path, warm addressing alongside, arenas on demand) against the
  // paper's 20 B/path estimate.
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 10'000;
  mcfg.total_packets_per_second = 500'000;
  mcfg.duration = net::milliseconds(500);
  const auto multi = trace::generate_multi_path(mcfg);
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = bench::bench_protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  collector::MonitoringCache cache(ccfg, multi.paths);
  cache.observe_batch(multi.packets);
  const core::PathStateSoA& soa = cache.state();
  std::printf(
      "  measured: %zu live paths -> %.2f MB hot-array SRAM (%zu B/path;\n"
      "            + %.2f MB warm arena addressing, %.2f MB arenas\n"
      "            resident after the workload)\n\n",
      cache.path_count(),
      static_cast<double>(cache.modeled_cache_bytes()) / 1e6,
      sizeof(core::PathHot),
      static_cast<double>(soa.slot_bytes() - soa.hot_bytes()) / 1e6,
      static_cast<double>(soa.arena_bytes()) / 1e6);

  std::printf("Temporary packet buffer (7 B per packet within 2J, J=10ms):\n");
  const double pps400 = collector::link_pps(10e9, 400.0);
  const double pps64 = collector::link_pps(10e9, 64.0);
  std::printf("  paper:    OC-192 @400 B avg -> 436 KB;  @64 B worst -> 2.8 MB\n");
  std::printf("  model:    OC-192 @400 B avg -> %.0f KB; @64 B worst -> %.1f MB\n",
              static_cast<double>(collector::temp_buffer_bytes(
                  pps400, net::milliseconds(10))) / 1e3,
              static_cast<double>(collector::temp_buffer_bytes(
                  pps64, net::milliseconds(10))) / 1e6);
  std::printf(
      "  measured: sum of per-path buffer peaks on the 500 kpps workload\n"
      "            above: %zu records -> %.0f KB\n",
      cache.temp_buffer_peak_records(),
      static_cast<double>(cache.temp_buffer_peak_records() *
                          collector::kTempRecordBytes) / 1e3);
  std::printf(
      "  REPRODUCTION FINDING: Algorithm 1 holds per-packet state until\n"
      "  the path's NEXT MARKER, i.e. ~1/marker_rate packets per path\n"
      "  regardless of path rate.  The paper's 436 KB figure implicitly\n"
      "  assumes marker gaps ~ J in *time*, which holds for one busy\n"
      "  path per interface but not for many slow paths: with 100k slow\n"
      "  paths the buffer bound is paths x 1/marker_rate x 7 B, far\n"
      "  above the J-window estimate.  See EXPERIMENTS.md (OVH-M).\n\n");
}

// Dissemination-store retention (measured): a disk-backed FederatedStore
// under six producer streams with consumers of different speeds.  What a
// domain keeps on disk is bounded by its SLOWEST gating consumer — the
// floor frees whole segment files, so bytes lag the floor by at most one
// partially-covered segment per producer.
void dissemination_block() {
  constexpr dissem::DomainKey kKey = 0x0eecd;
  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kSeqs = 3000;
  constexpr std::size_t kPayload = 256;

  bench::ScratchDir scratch("overhead-dissem");
  dissem::FederatedStoreConfig cfg;
  cfg.shards = 4;
  cfg.directory = scratch.path();
  cfg.max_segment_bytes = 64 * 1024;
  dissem::FederatedStore fed(cfg);
  // Three consumer speeds: "fast" drains everything, "slow" trails the
  // head by 500 sequences on every stream, and a per-stream auditor of
  // producer 3 trails by 1500 — producer 3's disk shows the price of one
  // laggard.
  fed.register_consumer("fast");
  fed.register_consumer("slow");
  for (std::size_t p = 1; p <= kProducers; ++p) {
    fed.register_producer(static_cast<dissem::DomainId>(p), kKey);
  }
  fed.subscribe("auditor", 3);
  for (std::size_t p = 1; p <= kProducers; ++p) {
    const auto producer = static_cast<dissem::DomainId>(p);
    for (std::uint64_t s = 1; s <= kSeqs; ++s) {
      std::vector<std::byte> payload(kPayload,
                                     static_cast<std::byte>(s & 0xFF));
      (void)fed.ingest(dissem::seal(producer, s, std::move(payload), kKey));
    }
    (void)fed.ack("fast", producer, kSeqs);
    (void)fed.ack("slow", producer, kSeqs - 500);
    if (p == 3) (void)fed.ack("auditor", producer, kSeqs - 1500);
  }

  std::printf("Dissemination store (disk segments, 4 shards, %zu-byte"
              " payloads, %llu seq/stream):\n",
              kPayload, static_cast<unsigned long long>(kSeqs));
  std::printf("  producer   floor   slowest-lag   segments live/gc'd"
              "   bytes on disk\n");
  for (std::size_t p = 1; p <= kProducers; ++p) {
    const auto producer = static_cast<dissem::DomainId>(p);
    const dissem::StorageStats s = fed.producer_storage_stats(producer);
    std::size_t lag = std::max(fed.consumer_lag("fast", producer),
                               fed.consumer_lag("slow", producer));
    if (p == 3) lag = std::max(lag, fed.consumer_lag("auditor", producer));
    std::printf("  %8zu %7llu %13zu %10zu / %-5zu %11.1f KB\n", p,
                static_cast<unsigned long long>(fed.gc_floor(producer)), lag,
                s.segments_live, s.segments_unlinked,
                static_cast<double>(s.bytes_on_disk) / 1e3);
  }
  const dissem::StorageStats total = fed.storage_stats();
  std::printf("  total: %.1f KB on disk for %zu retained envelopes"
              " (%zu collected); the slowest\n"
              "  gating consumer bounds retention — whole segment files"
              " free at the floor.\n\n",
              static_cast<double>(total.bytes_on_disk) / 1e3,
              total.envelopes, total.erased);
}

void lifecycle_section() {
  std::printf("== Long-running operation (epoch lifecycle, measured) ==\n\n");

  // Arena accounting on the 10k-path workload above: live slice capacity
  // vs relocation garbage, then a TTL pass that retires half the paths.
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 10'000;
  mcfg.total_packets_per_second = 500'000;
  mcfg.duration = net::milliseconds(500);
  const auto multi = trace::generate_multi_path(mcfg);
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = bench::bench_protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  ccfg.lifecycle = collector::LifecycleConfig{
      .evict_idle = true,
      .idle_ttl = net::milliseconds(250),
      .compact_garbage_fraction = 0.25,
  };
  collector::MonitoringCache cache(ccfg, multi.paths);
  cache.observe_batch(multi.packets);

  std::printf("Arena accounting after the 500 ms x 500 kpps workload:\n");
  std::printf("  resident %.2f MB = live slices %.2f MB + garbage %.2f MB"
              " (%.1f%%)\n",
              static_cast<double>(cache.state().arena_bytes()) / 1e6,
              static_cast<double>(cache.arena_live_bytes()) / 1e6,
              static_cast<double>(cache.arena_garbage_bytes()) / 1e6,
              100.0 * static_cast<double>(cache.arena_garbage_bytes()) /
                  static_cast<double>(cache.state().arena_bytes()));

  // Keep the busiest half alive, let the rest idle past the TTL, run the
  // lifecycle pass: evicted paths drain through the sink first, then the
  // all-garbage slices compact away.
  std::vector<net::Packet> keepalive;
  for (std::size_t i = 0; i < multi.packets.size(); ++i) {
    if (multi.path_of[i] >= multi.paths.size() / 2) continue;
    net::Packet p = multi.packets[i];
    p.origin_time += net::milliseconds(500);
    keepalive.push_back(p);
  }
  cache.observe_batch(keepalive);
  core::NullSink sink;
  const collector::LifecycleReport report = cache.run_lifecycle(
      net::Timestamp{net::milliseconds(1000).nanoseconds()}, sink);
  std::printf("Lifecycle pass (TTL 250 ms, watermark 25%%):\n");
  std::printf("  evicted %zu idle paths (drained %zu receipts first),\n"
              "  compacted %zu B away -> resident %.2f MB"
              " (garbage %.1f%%)\n\n",
              report.evicted_paths,
              sink.sample_records() + sink.aggregates(),
              report.reclaimed_arena_bytes,
              static_cast<double>(cache.state().arena_bytes()) / 1e6,
              cache.state().arena_bytes() == 0
                  ? 0.0
                  : 100.0 *
                        static_cast<double>(cache.arena_garbage_bytes()) /
                        static_cast<double>(cache.state().arena_bytes()));

  // The end-to-end bounded-memory claim: the churn soak's default cell
  // (tests/scenarios/churn.conf) through run_scenario, with TTL eviction
  // and as the grow-only fleet (ttl_rounds=0).
  sim::ScenarioConfig scfg = sim::parse_scenario(
      "name=churn seed=1 paths=36 rounds=52 round_us=40000 pps=50000 "
      "zipf=0.6 marker_rate=0.01 shards=4 churn=12:6:6 ttl_rounds=3");
  const sim::ScenarioOutcome churn = sim::run_scenario(scfg);
  scfg.ttl_rounds = 0;
  const sim::ScenarioOutcome grow = sim::run_scenario(scfg);
  const std::size_t mid = scfg.rounds / 2 - 1;
  std::printf("Churn soak (52 rounds, 33%% of live paths churning, 4 HOPs):\n");
  std::printf("  collector arenas, round %zu -> %zu:\n", mid + 1, scfg.rounds);
  std::printf("    TTL eviction:  %6.1f KB -> %6.1f KB\n",
              static_cast<double>(churn.arenas[mid].bytes) / 1e3,
              static_cast<double>(churn.arenas.back().bytes) / 1e3);
  std::printf("    grow-only:     %6.1f KB -> %6.1f KB\n",
              static_cast<double>(grow.arenas[mid].bytes) / 1e3,
              static_cast<double>(grow.arenas.back().bytes) / 1e3);
  std::printf("  lifecycle totals:  %zu evictions, %zu compactions,"
              " %.1f KB reclaimed\n\n",
              churn.lifecycle.evicted_paths, churn.lifecycle.compactions,
              static_cast<double>(churn.lifecycle.reclaimed_arena_bytes) /
                  1e3);

  dissemination_block();
}

void receipt_size_section() {
  std::printf("== Receipt wire sizes (measured from the serializer) ==\n\n");

  // Build a real scenario and serialize the receipts it produced.
  bench::XDomainConfig cfg;
  cfg.packets_per_second = 20'000;
  cfg.duration_s = 5.0;
  cfg.congestion = sim::CongestionKind::kNone;
  const bench::XDomainScenario s = bench::make_x_scenario(cfg);
  const auto protocol = bench::bench_protocol();
  core::HopTuning tuning{.sample_rate = 0.01, .cut_rate = 1e-3};
  const core::HopReceipts hop =
      bench::collect_hop(s, 1, 2, 1, 3, protocol, tuning);

  // The HOP's receipts as one wire entry, sized by the codec: samples
  // alone, then with the aggregates, against a round header carrying the
  // HOP's own thresholds.
  core::PathDrain drain{.samples = hop.samples, .aggregates = {}};
  const core::RoundHeader header{
      .sample_threshold = hop.samples.sample_threshold,
      .marker_threshold = hop.samples.marker_threshold,
      .base = hop.samples.samples.empty() ? net::Timestamp{}
                                          : hop.samples.samples.front().time};
  const std::size_t sample_bytes = core::size_entry(1, drain, header).bytes();
  std::size_t trans_ids = 0;
  for (const auto& a : hop.aggregates) {
    trans_ids += a.trans.before.size() + a.trans.after.size();
  }
  drain.aggregates = hop.aggregates;
  const std::size_t agg_bytes =
      core::size_entry(1, drain, header).bytes() - sample_bytes;

  std::printf("  paper:    receipt size 22 B; temp records 7 B\n");
  std::printf("  measured: aggregate-receipt marginal %zu B (+4 B/AggTrans id);\n",
              core::kAggregateRecordBytes);
  std::printf("            sample-record marginal %zu B\n",
              core::kSampleRecordBytes);
  std::printf("  whole-entry check over a real 5 s x 20 kpps run:\n");
  std::printf("    samples:    %zu records -> %zu B (%.2f B/record w/ framing)\n",
              hop.samples.samples.size(), sample_bytes,
              static_cast<double>(sample_bytes) /
                  static_cast<double>(hop.samples.samples.size()));
  std::printf("    aggregates: %zu receipts (%zu AggTrans ids) -> %zu B\n\n",
              hop.aggregates.size(), trans_ids, agg_bytes);
}

void receipt_egress_section() {
  std::printf("== Receipt egress (measured from the wire exporter) ==\n\n");

  // A real 10k-path workload drained straight through dissem::WireExporter:
  // every byte counted below is an ACTUAL shipped byte — records, entry
  // framing, round headers and closes, chunk headers and envelope
  // authentication included — against the modeled per-record arithmetic
  // the bandwidth section uses.
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 10'000;
  mcfg.total_packets_per_second = 500'000;
  mcfg.duration = net::milliseconds(500);
  const auto multi = trace::generate_multi_path(mcfg);
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = bench::bench_protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  collector::MonitoringCache cache(ccfg, multi.paths);
  cache.observe_batch(multi.packets);

  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = 1,
                                   .key = 0xC0FFEE,
                                   .max_chunk_bytes = 64 * 1024},
      [](dissem::Envelope&& e) { (void)e; });
  cache.drain_all(exporter, /*flush_open=*/true);
  exporter.finish();
  const dissem::WireExporter::Stats& st = exporter.stats();

  const double packets = static_cast<double>(multi.packets.size());
  const double modeled =
      static_cast<double>(st.sample_records * core::kSampleRecordBytes +
                          st.aggregate_receipts * core::kAggregateRecordBytes) /
      packets;
  const double measured = static_cast<double>(st.envelope_bytes) / packets;
  std::printf("  workload: %zu pkts over %zu paths -> %llu sample records,"
              " %llu aggregates\n",
              multi.packets.size(), cache.path_count(),
              static_cast<unsigned long long>(st.sample_records),
              static_cast<unsigned long long>(st.aggregate_receipts));
  std::printf("  shipped:  %llu chunks, %llu payload B, %llu wire B"
              " (peak buffer %zu B)\n",
              static_cast<unsigned long long>(st.chunks),
              static_cast<unsigned long long>(st.payload_bytes),
              static_cast<unsigned long long>(st.envelope_bytes),
              st.peak_buffer_bytes);
  std::printf("  budget:   modeled %.3f B/pkt (%zu B/sample + %zu B/agg"
              " marginals, §7.1)\n",
              modeled, core::kSampleRecordBytes, core::kAggregateRecordBytes);
  std::printf("  measured: %.3f B/pkt on the wire -> +%.3f B/pkt"
              " (%.1f%%) framing delta\n",
              measured, measured - modeled,
              modeled > 0 ? (measured - modeled) / modeled * 100.0 : 0.0);
  // What the payload holds beyond the records, the round headers and
  // closes and the chunk headers is each path's entry framing.
  const double rounds_and_chunks = static_cast<double>(
      st.sample_batches * core::kRoundHeaderBytes +
      st.aggregate_batches * core::kRoundCloseBytes +
      st.chunks * dissem::kChunkHeaderBytes);
  const double entry_framing =
      (static_cast<double>(st.payload_bytes) - modeled * packets -
       rounds_and_chunks) /
      static_cast<double>(st.paths);
  std::printf(
      "  (The delta is each path's entry framing, %.2f B/path here: index\n"
      "  step, length, run counts, epochs and follower counts; plus %zu B\n"
      "  per round header (one per chunk a round spans), %zu B per round\n"
      "  close, %zu B/chunk and %zu B/envelope.  Busier paths or longer\n"
      "  reporting periods amortize it toward the modeled marginal.)\n\n",
      entry_framing, core::kRoundHeaderBytes, core::kRoundCloseBytes,
      dissem::kChunkHeaderBytes, dissem::kEnvelopeOverheadBytes);
}

void bandwidth_section() {
  std::printf("== Bandwidth (paper section 7.1) ==\n\n");
  std::printf(
      "Config: 10-domain path (20 HOPs), 1000 pkts/aggregate, 1%% sampling,\n"
      "400 B average packets.\n");
  collector::BandwidthParams params;
  const collector::BandwidthOverhead o = collector::bandwidth_overhead(params);
  std::printf("  paper:    ~0.2 B/packet for the path -> 0.046%% overhead\n");
  std::printf("  measured: %.3f B/packet/HOP, %.2f B/packet path-wide ->"
              " %.3f%% overhead\n",
              o.bytes_per_packet_per_hop, o.bytes_per_packet_path,
              o.fraction_of_traffic * 100.0);
  std::printf(
      "  (Our per-HOP marginal is 22 B/1000-pkt aggregate + 7 B x 1%%\n"
      "  samples = 0.12 B; the paper's 0.2 B/pkt corresponds to one 22 B\n"
      "  receipt per sampled packet counted once for the path, not per\n"
      "  HOP.  Summed over all 20 HOPs we get ~2.4 B/pkt = 0.6%% — still\n"
      "  negligible against the traffic it reports on.)\n\n");

  std::printf("With AggTrans enabled (reorder patch-up, J=10ms @100kpps):\n");
  collector::BandwidthParams with_trans = params;
  with_trans.trans_ids_per_aggregate = 2000.0;  // 2J x 100 kpps
  with_trans.packets_per_aggregate = 100'000.0; // paper's Fig-3 setting
  const auto ot = collector::bandwidth_overhead(with_trans);
  std::printf("  measured: %.3f B/packet/HOP -> %.3f%% path overhead\n",
              ot.bytes_per_packet_per_hop, ot.fraction_of_traffic * 100.0);
  std::printf(
      "  (AggTrans adds 4 B x window ids per aggregate; with minutes-long\n"
      "  aggregates this stays far below per-packet state, §6.3.)\n\n");
}

void processing_section() {
  std::printf("== Processing (paper section 7.1) ==\n\n");
  const collector::PerPacketOps ops = collector::per_packet_ops();
  std::printf(
      "  paper:    3 memory accesses + 1 hash + 1 timestamp per packet,\n"
      "            +1 amortised access at marker sweeps\n");
  std::printf("  model:    %d + %d hash + %d timestamp, +%.1f sweep access\n",
              ops.memory_accesses, ops.hash_computations, ops.timestamp_reads,
              ops.sweep_accesses);

  // Measured: drive a real cache and read its DataPlaneOps counters — the
  // single-hash fast path makes hash_computations == packets by
  // construction (DigestEngine::decide feeds sampler and aggregator).
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 100'000;
  tcfg.duration = net::seconds(1);
  const auto trace = trace::generate_trace(tcfg);
  const std::vector<net::PrefixPair> paths = {tcfg.prefixes};
  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = bench::bench_protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-5};
  collector::MonitoringCache cache(ccfg, paths);
  cache.observe_batch(trace);
  const collector::DataPlaneOps& live = cache.ops();
  const double n = static_cast<double>(trace.size());
  std::printf(
      "  measured: %.2f + %.2f hash + %.2f timestamp, +%.2f sweep access\n"
      "            per packet over %zu packets\n",
      static_cast<double>(live.memory_accesses) / n,
      static_cast<double>(live.hash_computations) / n,
      static_cast<double>(live.timestamp_reads) / n,
      static_cast<double>(live.marker_sweep_accesses) / n, trace.size());

  // Protocol kernels: the marker sweep (sample_value over every buffered
  // record) is the one super-linear piece of the per-packet pipeline, so
  // report its per-record cost on each tier next to how the driven cache
  // above attributed its sweeps.
  {
    std::vector<core::TimedDigest> slice(4096);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& r : slice) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      r.id = static_cast<net::PacketDigest>(x);
      r.time = net::Timestamp{static_cast<std::int64_t>(x >> 32)};
    }
    std::vector<std::uint32_t> idx(slice.size() + 1);
    const auto ns_per_record = [&](net::detail::SweepSelectFn fn) {
      const auto* bytes = reinterpret_cast<const std::byte*>(slice.data());
      double best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        constexpr int kInner = 64;
        std::size_t sink = 0;
        for (int k = 0; k < kInner; ++k) {
          sink += fn(bytes, sizeof(core::TimedDigest), slice.size(),
                     0xABCD1234u + static_cast<std::uint32_t>(k), 1u << 31,
                     idx.data());
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            (static_cast<double>(kInner) * static_cast<double>(slice.size()));
        if (sink != 0 && (rep == 0 || ns < best)) best = ns;
      }
      return best;
    };
    namespace simd = net::simd;
    std::printf("  kernels:  sweep-select %.2f ns/record scalar",
                ns_per_record(&net::detail::sweep_select_scalar));
    const net::detail::SweepSelectFn avx2 = net::detail::sweep_select_avx2();
    if (avx2 != nullptr && simd::detected_tier() == simd::Tier::kAvx2) {
      std::printf(", %.2f ns/record avx2", ns_per_record(avx2));
    }
    std::printf(" (active tier: %s)\n", simd::tier_name(simd::active_tier()));
    std::printf(
        "            driven cache: %llu scalar / %llu avx2 sweep-kernel\n"
        "            calls, emitted peak %zu records/path\n",
        static_cast<unsigned long long>(live.sweep_kernel_scalar),
        static_cast<unsigned long long>(live.sweep_kernel_avx2),
        cache.emitted_peak_records());
  }
  std::printf("  latency:  see bench/collector_fastpath (ns/packet).\n");
}

}  // namespace

int main() {
  std::printf("OVERHEAD REPORT — regenerating the Section 7.1 numbers\n");
  vpm::bench::rule(64);
  std::printf("\n");
  memory_section();
  lifecycle_section();
  receipt_size_section();
  receipt_egress_section();
  bandwidth_section();
  processing_section();
  return 0;
}
