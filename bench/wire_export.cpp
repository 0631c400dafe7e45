// Receipt-egress throughput: the wire exporter and importer over real
// collector drains.
//
//   * BM_WireExport — replay a materialized drain stream through
//     dissem::WireExporter (path entries under HOP-round headers,
//     size-capped chunks, sealed envelopes).  Reports wire bytes/s and the
//     measured bytes-per-packet-observed (wire_B_per_pkt, recorded in
//     BENCH_wire.json as wire_bytes_per_packet) — the number the §7.1
//     bandwidth budget is about (the overhead_report binary prints the
//     comparison).
//   * BM_WireImport — decode the same sealed chunk stream back out of a
//     ReceiptStore into a NullSink (parse + validate cost, no consumer
//     work).
//
// One iteration = one full drain's worth of receipts.  The drain is
// materialized once up front so iterations are repeatable (collector
// drains are destructive) and the timed region is purely the egress path.
// Items are the packets behind the drain, so BENCH_wire.json records
// egress cost in ns per observed packet.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "experiment.hpp"
#include "trace/synthetic_trace.hpp"

namespace {

using namespace vpm;

struct DrainFixture {
  std::vector<core::IndexedPathDrain> stream;
  std::vector<net::PathId> table;
  std::size_t packets = 0;
};

/// One drain of a `paths`-path cache after ~1 s of 400 kpps traffic.
const DrainFixture& shared_drain(std::size_t paths) {
  static std::map<std::size_t, DrainFixture> cache;
  if (const auto it = cache.find(paths); it != cache.end()) {
    return it->second;
  }
  trace::MultiPathConfig mcfg;
  mcfg.path_count = paths;
  mcfg.total_packets_per_second = 400'000;
  mcfg.duration = net::seconds(1);
  mcfg.seed = 21;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config ccfg;
  ccfg.protocol = bench::bench_protocol();
  ccfg.tuning = core::HopTuning{.sample_rate = 0.01, .cut_rate = 1e-4};
  collector::MonitoringCache collector(ccfg, multi.paths);
  collector.observe_batch(multi.packets);

  DrainFixture f;
  f.packets = multi.packets.size();
  core::VectorSink sink;
  collector.drain_all(sink, /*flush_open=*/true);
  f.stream = std::move(sink).take();
  f.table.reserve(paths);
  for (std::size_t p = 0; p < paths; ++p) {
    f.table.push_back(net::PathId{
        .header_spec_id = ccfg.protocol.header_spec.id(),
        .prefixes = multi.paths[p],
        .previous_hop = ccfg.previous_hop,
        .next_hop = ccfg.next_hop,
        .max_diff = ccfg.max_diff});
  }
  return cache.emplace(paths, std::move(f)).first->second;
}

void BM_WireExport(benchmark::State& state) {
  const auto paths = static_cast<std::size_t>(state.range(0));
  const DrainFixture& f = shared_drain(paths);

  dissem::WireExporter::Stats last{};
  for (auto _ : state) {
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{.producer = 1, .key = 2},
        [](dissem::Envelope&& e) { benchmark::DoNotOptimize(e.mac); });
    core::emit_stream(exporter, f.stream);
    exporter.finish();
    last = exporter.stats();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(last.envelope_bytes) *
      static_cast<std::int64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(f.packets) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["wire_B_per_pkt"] =
      static_cast<double>(last.envelope_bytes) /
      static_cast<double>(f.packets);
  state.counters["chunks"] = static_cast<double>(last.chunks);
  state.counters["peak_buffer_B"] =
      static_cast<double>(last.peak_buffer_bytes);
}
BENCHMARK(BM_WireExport)->Arg(1024)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_WireImport(benchmark::State& state) {
  const auto paths = static_cast<std::size_t>(state.range(0));
  const DrainFixture& f = shared_drain(paths);

  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = 1, .key = 2},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
  core::emit_stream(exporter, f.stream);
  exporter.finish();
  const std::uint64_t wire_bytes = exporter.stats().envelope_bytes;

  const dissem::WireImporter importer(f.table);
  for (auto _ : state) {
    core::NullSink sink;
    importer.import_into(store, 1, sink);
    benchmark::DoNotOptimize(sink.sample_records());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(wire_bytes) *
      static_cast<std::int64_t>(state.iterations()));
  state.SetItemsProcessed(static_cast<std::int64_t>(f.packets) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireImport)->Arg(1024)->Arg(8192)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vpm::bench::run_benchmarks_with_json(argc, argv, "wire",
                                              "BENCH_wire.json");
}
