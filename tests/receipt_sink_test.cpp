// The streaming receipt-egress API: the VectorSink adapter the vector
// drains are built on, emit_stream, and the sink-based drain entry points
// at every layer (MonitoringCache, ShardedCollector, Pipeline::report) —
// pinned equal to the vector drains.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "collector/pipeline.hpp"
#include "collector/sharded_collector.hpp"
#include "core/receipt_sink.hpp"
#include "sim/shard_scenario.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

core::SampleReceipt sample_receipt_with(net::PathId path, std::size_t n) {
  core::SampleReceipt r;
  r.path = path;
  r.sample_threshold = 7;
  r.marker_threshold = 9;
  for (std::size_t i = 0; i < n; ++i) {
    r.samples.push_back(core::SampleRecord{
        .pkt_id = static_cast<net::PacketDigest>(i),
        .time = net::Timestamp{} + net::microseconds(static_cast<int>(i)),
        .is_marker = i + 1 == n});
  }
  return r;
}

TEST(ReceiptSink, VectorSinkCollectsStreamInOrder) {
  core::VectorSink sink;
  const net::PathId id{};
  core::PathDrain first;
  first.samples = sample_receipt_with(id, 2);
  core::AggregateReceipt agg;
  agg.path = id;
  agg.packet_count = 11;
  first.aggregates = {agg, agg};
  sink.on_drain(3, first);
  core::PathDrain second;
  second.samples = sample_receipt_with(id, 0);
  sink.on_drain(5, second);

  const auto& stream = sink.stream();
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].path, 3u);
  EXPECT_EQ(stream[0].drain, first);
  EXPECT_EQ(stream[1].path, 5u);
  EXPECT_EQ(stream[1].drain, second);
}

TEST(ReceiptSink, EmitStreamReplaysMaterializedDrains) {
  const net::PathId id{};
  core::PathDrain drain;
  drain.samples = sample_receipt_with(id, 3);
  drain.aggregates.resize(2);
  drain.aggregates[0].path = id;
  drain.aggregates[1].path = id;
  const std::vector<core::IndexedPathDrain> stream = {
      {.path = 42, .drain = drain}, {.path = 43, .drain = {}}};

  core::VectorSink sink;
  core::emit_stream(sink, stream);
  EXPECT_EQ(sink.stream(), stream);
  EXPECT_EQ(std::move(sink).take(), stream);
}

// The sink-based drain is the primary API and the vector drain a
// VectorSink adapter over it; this pins the two equal on a real
// workload, for both the single cache and the sharded collector.
TEST(ReceiptSink, CacheSinkDrainMatchesVectorDrain) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 37;
  mcfg.total_packets_per_second = 40'000.0;
  mcfg.duration = net::milliseconds(300);
  mcfg.seed = 11;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::MonitoringCache::Config ccfg;
  ccfg.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};

  // Twin caches over the same trace: drains are destructive, so the two
  // entry points each get their own producer.
  collector::MonitoringCache a(ccfg, multi.paths);
  collector::MonitoringCache b(ccfg, multi.paths);
  a.observe_batch(multi.packets);
  b.observe_batch(multi.packets);

  core::VectorSink sink;
  a.drain_all(sink, /*flush_open=*/true);
  const std::vector<core::IndexedPathDrain> legacy =
      b.drain_all(/*flush_open=*/true);

  ASSERT_EQ(sink.stream().size(), legacy.size());
  for (std::size_t p = 0; p < legacy.size(); ++p) {
    EXPECT_EQ(sink.stream()[p].path, p);
    EXPECT_EQ(sink.stream()[p], legacy[p]) << "path " << p;
  }
}

TEST(ReceiptSink, ShardedSinkDrainMatchesVectorDrain) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 61;
  mcfg.total_packets_per_second = 40'000.0;
  mcfg.duration = net::milliseconds(300);
  mcfg.seed = 12;
  const auto multi = trace::generate_multi_path(mcfg);

  collector::ShardedCollector::Config scfg;
  scfg.cache.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};
  scfg.shard_count = 4;

  collector::ShardedCollector a(scfg, multi.paths);
  collector::ShardedCollector b(scfg, multi.paths);
  a.observe_batch(multi.packets);
  b.observe_batch(multi.packets);

  core::VectorSink sink;
  a.drain(sink, /*flush_open=*/true);
  const auto legacy = b.drain(/*flush_open=*/true);
  EXPECT_EQ(sink.stream(), legacy);
}

TEST(ReceiptSink, PipelineReportStreamsEveryCollectorElement) {
  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = 20'000.0;
  tcfg.duration = net::milliseconds(400);
  tcfg.seed = 13;
  const auto trace = trace::generate_trace(tcfg);
  const std::vector<net::PrefixPair> paths = {tcfg.prefixes};

  collector::MonitoringCache::Config ccfg;
  ccfg.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};

  collector::Pipeline pipeline;
  pipeline.append(std::make_unique<collector::CheckHeaderElement>());
  pipeline.append(std::make_unique<collector::VpmElement>(ccfg, paths));
  for (const net::Packet& p : trace) {
    pipeline.process(p, p.origin_time);
  }

  // Reference: a twin cache fed identically.
  collector::MonitoringCache twin(ccfg, paths);
  for (const net::Packet& p : trace) {
    twin.observe(p, p.origin_time);
  }

  core::VectorSink sink;
  pipeline.report(sink, /*flush_open=*/true);
  const auto expected = twin.drain_all(/*flush_open=*/true);
  ASSERT_EQ(sink.stream().size(), expected.size());
  EXPECT_EQ(sink.stream()[0], expected[0]);

  // Non-collector elements contribute nothing; a second report after the
  // drain yields the path again, now empty of receipts.
  core::NullSink again;
  pipeline.report(again, /*flush_open=*/true);
  EXPECT_EQ(again.paths(), 1u);
  EXPECT_EQ(again.sample_records(), 0u);
  EXPECT_EQ(again.aggregates(), 0u);
}

}  // namespace
}  // namespace vpm
