// Receipt egress end-to-end: the first byte-level round trip
//
//   sharded collector --drain(sink)--> WireExporter (path-entry chunks,
//   sealed envelopes) --> ReceiptStore (authenticity + replay checks) -->
//   WireImporter --> PathVerifier
//
// run side-by-side with the in-memory path (collector drain handed to the
// verifier directly).  Every finding — delay quantiles, loss, link
// consistency — must MATCH: what a remote domain computes from the
// disseminated wire bytes is exactly what the producing domain computes
// from its own receipts.  Observation times are quantized to 1 µs before
// monitoring, the wire format's resolution (§7.1's 3-byte timestamps), so
// the comparison is exact rather than within-tolerance.
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/receipt_sink.hpp"
#include "core/verifier.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

using namespace vpm;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "MISMATCH", what);
  if (!ok) ++g_failures;
}

net::Timestamp quantize_us(net::Timestamp t) {
  return net::Timestamp{t.nanoseconds() / 1000 * 1000};
}

}  // namespace

int main() {
  std::printf("== Receipt egress round trip: collector -> wire -> store -> "
              "verifier ==\n\n");

  // One monitored path through provider X (HOPs 2 and 3), congested and
  // mildly lossy so the findings are non-trivial.
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 50'000;
  tcfg.duration = net::seconds(4);
  tcfg.seed = 7;
  const auto trace = trace::generate_trace(tcfg);

  sim::CongestionConfig cong;
  cong.kind = sim::CongestionKind::kBurstyUdp;
  cong.seed = 8;
  const auto congested = sim::simulate_congestion(cong, trace);

  auto x_loss = loss::GilbertElliott::with_target_loss(0.01, 10.0, 9);
  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.domains[1].delay_of = [&congested](sim::PacketIndex i) {
    return congested.outcomes[i].delay;
  };
  env.domains[1].loss = &x_loss;
  const sim::PathRunResult run = sim::run_path(trace, env);

  core::ProtocolParams protocol;
  core::HopTuning tuning{.sample_rate = 0.01, .cut_rate = 1e-4};
  const std::vector<net::PrefixPair> paths = {tcfg.prefixes};

  core::PathVerifier in_memory;  // receipts handed over directly
  core::PathVerifier from_wire;  // receipts recovered from the store
  dissem::ReceiptStore store;

  for (const auto& [pos, hop] :
       std::vector<std::pair<std::size_t, net::HopId>>{{1, 2}, {2, 3}}) {
    // Each HOP runs a sharded collector over the path table (2 shards:
    // the deployment shape, even though this demo monitors one path).
    collector::ShardedCollector::Config scfg;
    scfg.cache.protocol = protocol;
    scfg.cache.tuning = tuning;
    scfg.cache.self = hop;
    scfg.cache.previous_hop = hop - 1;
    scfg.cache.next_hop = hop + 1;
    scfg.shard_count = 2;
    collector::ShardedCollector hop_collector(scfg, paths);

    std::vector<net::Packet> pkts;
    std::vector<net::Timestamp> when;
    pkts.reserve(run.hop_observations[pos].size());
    when.reserve(run.hop_observations[pos].size());
    for (const sim::Obs& o : run.hop_observations[pos]) {
      pkts.push_back(trace[o.pkt]);
      when.push_back(quantize_us(o.when));
    }
    hop_collector.observe_batch(pkts, when);

    // ONE drain, streamed into a VectorSink; the wire path replays the
    // same stream through the exporter (drains are destructive).
    core::VectorSink drained;
    hop_collector.drain(drained, /*flush_open=*/true);

    // In-memory path: hand the receipts straight to the verifier.
    in_memory.add_hop(core::HopReceipts{
        .hop = hop,
        .samples = drained.stream()[0].drain.samples,
        .aggregates = drained.stream()[0].drain.aggregates});

    // Wire path: HOP = producer domain; encode, seal, publish.
    const dissem::DomainId producer = hop;
    const dissem::DomainKey key = 0xC0FFEE00 + hop;
    store.register_producer(producer, key);
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{
            .producer = producer, .key = key, .max_chunk_bytes = 16 * 1024},
        [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
    core::emit_stream(exporter, std::move(drained).take());
    exporter.finish();

    const auto& st = exporter.stats();
    std::printf("HOP %u exported %llu sample records + %llu aggregates as "
                "%llu chunk(s), %llu wire bytes\n",
                hop, static_cast<unsigned long long>(st.sample_records),
                static_cast<unsigned long long>(st.aggregate_receipts),
                static_cast<unsigned long long>(st.chunks),
                static_cast<unsigned long long>(st.envelope_bytes));

    // Consumer side: recover this producer's receipts from the store.
    const dissem::WireImporter importer({net::PathId{
        .header_spec_id = protocol.header_spec.id(),
        .prefixes = tcfg.prefixes,
        .previous_hop = scfg.cache.previous_hop,
        .next_hop = scfg.cache.next_hop,
        .max_diff = scfg.cache.max_diff}});
    from_wire.add_hop(importer.import_hop(store, producer, hop));
  }

  std::printf("\nStore: %zu envelopes accepted, %zu rejected\n\n",
              store.accepted_count(), store.rejected_count());

  // The findings a customer would hold provider X to, computed twice.
  const auto delay_a = in_memory.domain_delay(2, 3);
  const auto delay_b = from_wire.domain_delay(2, 3);
  const auto loss_a = in_memory.domain_loss(2, 3);
  const auto loss_b = from_wire.domain_loss(2, 3);
  const auto link_a = in_memory.check_link(2, 3);
  const auto link_b = from_wire.check_link(2, 3);

  for (const auto& q : delay_b.quantiles) {
    if (q.quantile == 0.95) {
      std::printf("From the wire: p95 delay %.2f ms (CI [%.2f, %.2f]) over "
                  "%zu common samples; loss %.3f%% over %zu aggregates\n\n",
                  q.value, q.lower, q.upper, delay_b.common_samples,
                  loss_b.loss_rate() * 100.0, loss_b.joined_aggregates);
    }
  }

  std::printf("In-memory vs wire-recovered findings:\n");
  check(delay_a.common_samples == delay_b.common_samples,
        "delay: same common-sample count");
  check(delay_a.sample_delays_ms == delay_b.sample_delays_ms,
        "delay: identical per-packet delays");
  check(delay_a.quantiles.size() == delay_b.quantiles.size(),
        "delay: same quantile set");
  for (std::size_t i = 0; i < delay_a.quantiles.size(); ++i) {
    if (delay_a.quantiles[i].value != delay_b.quantiles[i].value ||
        delay_a.quantiles[i].lower != delay_b.quantiles[i].lower ||
        delay_a.quantiles[i].upper != delay_b.quantiles[i].upper) {
      check(false, "delay: quantile estimate differs");
    }
  }
  check(loss_a.offered == loss_b.offered, "loss: same offered count");
  check(loss_a.delivered == loss_b.delivered, "loss: same delivered count");
  check(loss_a.joined_aggregates == loss_b.joined_aggregates,
        "loss: same joined aggregates");
  check(link_a.consistent() == link_b.consistent(),
        "link 2-3: same consistency verdict");
  check(link_a.violation_count() == link_b.violation_count(),
        "link 2-3: same violation count");

  if (g_failures != 0) {
    std::printf("\n%d finding(s) diverged between the two paths.\n",
                g_failures);
    return EXIT_FAILURE;
  }
  std::printf(
      "\nEvery finding computed from the disseminated wire bytes matches\n"
      "the in-memory receipts: the egress pipeline is lossless end-to-end.\n");
  return EXIT_SUCCESS;
}
