// Byte-level receipt egress round trip: collector drain -> WireExporter
// (receipt_batch sections, size-capped chunks, sealed envelopes) ->
// ReceiptStore -> WireImporter -> recovered drains `==` the direct drain.
//
// The wire format carries times as 3-byte microsecond offsets (§7.1), so
// the harness quantizes every observation time to 1 µs — after which the
// round trip must be EXACT, over seeds × digest modes × shard counts,
// chunk caps small enough to straddle paths across chunks, and workloads
// long enough to roll batch epochs.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

constexpr dissem::DomainId kProducer = 7;
constexpr dissem::DomainKey kKey = 0xFEEDFACE;

std::vector<net::Packet> quantize_us(std::vector<net::Packet> packets) {
  for (net::Packet& p : packets) {
    p.origin_time =
        net::Timestamp{p.origin_time.nanoseconds() / 1000 * 1000};
  }
  return packets;
}

/// The consumer's PathId table: same construction as MonitoringCache's.
std::vector<net::PathId> path_table(
    const collector::MonitoringCache::Config& cfg,
    const std::vector<net::PrefixPair>& paths) {
  std::vector<net::PathId> out;
  out.reserve(paths.size());
  for (const net::PrefixPair& pair : paths) {
    out.push_back(net::PathId{
        .header_spec_id = cfg.protocol.header_spec.id(),
        .prefixes = pair,
        .previous_hop = cfg.previous_hop,
        .next_hop = cfg.next_hop,
        .max_diff = cfg.max_diff,
    });
  }
  return out;
}

struct RoundTrip {
  std::vector<core::IndexedPathDrain> direct;
  std::vector<core::IndexedPathDrain> recovered;
  dissem::WireExporter::Stats stats;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

RoundTrip run_round_trip(std::uint64_t seed, net::DigestMode mode,
                         std::size_t shard_count,
                         std::size_t max_chunk_bytes,
                         std::size_t path_count = 32,
                         std::size_t producer_threads = 0) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = path_count;
  mcfg.total_packets_per_second = 30'000.0;
  mcfg.duration = net::milliseconds(250);
  mcfg.seed = seed;
  trace::MultiPathTrace multi = trace::generate_multi_path(mcfg);
  multi.packets = quantize_us(std::move(multi.packets));

  collector::ShardedCollector::Config scfg;
  scfg.cache.protocol.digest_mode = mode;
  scfg.cache.protocol.marker_rate = 1.0 / 200.0;
  scfg.cache.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};
  scfg.shard_count = shard_count;

  // Twin collectors over the identical observation sequence: drains are
  // destructive, so the direct reference and the exported stream each get
  // their own producer.
  collector::ShardedCollector direct(scfg, multi.paths);
  collector::ShardedCollector exported(scfg, multi.paths);
  if (producer_threads == 0) {
    direct.observe_batch(multi.packets);
    exported.observe_batch(multi.packets);
  } else {
    // Threaded ingest, then a stopped-worker export — the TSan coverage
    // for "exporter draining while shard workers stopped".  One producer
    // per collector keeps per-path FIFO order trivially.
    for (collector::ShardedCollector* c : {&direct, &exported}) {
      c->start(producer_threads);
      c->feed(0, multi.packets);
      c->stop();
    }
  }

  RoundTrip r;
  r.direct = direct.drain(/*flush_open=*/true);

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer,
                                   .key = kKey,
                                   .max_chunk_bytes = max_chunk_bytes},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
  exported.drain(exporter, /*flush_open=*/true);
  exporter.finish();
  r.stats = exporter.stats();
  r.accepted = store.accepted_count();
  r.rejected = store.rejected_count();

  const dissem::WireImporter importer(path_table(scfg.cache, multi.paths));
  r.recovered = importer.import(store, kProducer);
  return r;
}

// The acceptance matrix: ≥10 seeds × both digest modes × sharded {1,4}.
TEST(WireRoundTrip, RecoveredDrainsEqualDirectDrains) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const net::DigestMode mode :
         {net::DigestMode::kSingle, net::DigestMode::kIndependent}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        const RoundTrip r = run_round_trip(seed, mode, shards, 64 * 1024);
        ASSERT_EQ(r.rejected, 0u);
        ASSERT_GE(r.accepted, 1u);
        EXPECT_EQ(r.recovered, r.direct)
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " shards " << shards;
        EXPECT_EQ(r.stats.paths, r.direct.size());
      }
    }
  }
}

// A chunk cap far below one drain forces many chunks and paths whose
// sections straddle chunk boundaries; the stream must still reassemble
// exactly, with dense envelope sequences.
TEST(WireRoundTrip, TinyChunksStraddlePathsAndStillRoundTrip) {
  const RoundTrip r =
      run_round_trip(3, net::DigestMode::kIndependent, 4, /*chunk=*/192);
  EXPECT_EQ(r.recovered, r.direct);
  // ~2 sections per path against a cap of 1-2 sections per chunk: the
  // stream must shatter into roughly one chunk per path, which straddles
  // most paths' sections across chunk boundaries.
  EXPECT_GT(r.stats.chunks, r.direct.size() / 2)
      << "a 192 B cap must split the drain into many chunks";
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.accepted, r.stats.chunks);
}

TEST(WireRoundTripSharded, ThreadedIngestThenExportRoundTrips) {
  const RoundTrip r = run_round_trip(5, net::DigestMode::kIndependent,
                                     /*shards=*/4, 4 * 1024,
                                     /*paths=*/32, /*producers=*/2);
  EXPECT_EQ(r.recovered, r.direct);
  EXPECT_EQ(r.rejected, 0u);
}

// The constant-memory claim, measured: the exporter's resident buffer is
// bounded by the chunk cap (+ one section), independent of path count.
TEST(WireRoundTrip, ExporterBufferBoundedByChunkCapNotPathCount) {
  constexpr std::size_t kCap = 2048;
  const RoundTrip small = run_round_trip(6, net::DigestMode::kIndependent, 4,
                                         kCap, /*paths=*/64);
  const RoundTrip large = run_round_trip(6, net::DigestMode::kIndependent, 4,
                                         kCap, /*paths=*/512);
  EXPECT_EQ(small.recovered, small.direct);
  EXPECT_EQ(large.recovered, large.direct);
  EXPECT_GT(large.stats.chunks, small.stats.chunks);
  // Both peaks sit at/under the cap unless a single section overflows it
  // (none does at this tuning), so 8x the paths must not move the bound.
  EXPECT_EQ(small.stats.oversized_sections, 0u);
  EXPECT_EQ(large.stats.oversized_sections, 0u);
  EXPECT_LE(small.stats.peak_buffer_bytes, kCap);
  EXPECT_LE(large.stats.peak_buffer_bytes, kCap);
}

// Drains spanning more than one 3-byte epoch range (16.7 s of µs offsets)
// must split batches at round/receipt boundaries and still round-trip.
TEST(WireRoundTrip, EpochRollOverLongDrains) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();

  core::PathDrain drain;
  drain.samples.path = id;
  drain.samples.sample_threshold = 100;
  drain.samples.marker_threshold = 200;
  // 8 rounds of 3 records, 5 s apart: ~35 s of span, >2 epoch ranges.
  net::Timestamp t{};
  std::uint32_t pkt = 1;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 3; ++i) {
      drain.samples.samples.push_back(core::SampleRecord{
          .pkt_id = pkt++, .time = t, .is_marker = i == 2});
      t += net::milliseconds(1);
    }
    t += net::seconds(5);
  }
  // 6 aggregates opening 5 s apart, each 1 s long.
  net::Timestamp open{net::seconds(100).nanoseconds()};
  for (int i = 0; i < 6; ++i) {
    core::AggregateReceipt agg;
    agg.path = id;
    agg.agg = core::AggId{.first = pkt++, .last = pkt++};
    agg.packet_count = 50 + static_cast<std::uint32_t>(i);
    agg.opened_at = open;
    agg.closed_at = open + net::seconds(1);
    drain.aggregates.push_back(agg);
    open += net::seconds(5);
  }

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
  exporter.on_drain(0, drain);
  exporter.finish();
  EXPECT_GT(exporter.stats().epoch_splits, 0u);
  EXPECT_GT(exporter.stats().sample_batches, 1u);
  EXPECT_GT(exporter.stats().aggregate_batches, 1u);

  const dissem::WireImporter importer({id});
  const auto recovered = importer.import(store, kProducer);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].path, 0u);
  EXPECT_EQ(recovered[0].drain, drain);
}

// A drain the batch codec rejects leaves part of its path buffered; the
// exporter must then refuse every further call rather than seal it.
TEST(WireRoundTrip, RejectedDrainLeavesExporterRefusingEveryCall) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  core::PathDrain drain;
  drain.samples.path = id;
  drain.samples.samples.push_back(core::SampleRecord{
      .pkt_id = 1, .time = net::Timestamp{}, .is_marker = true});
  core::AggregateReceipt agg;
  agg.path = id;
  agg.packet_count = 3;
  agg.opened_at = net::Timestamp{};
  agg.closed_at = agg.opened_at + net::seconds(20);  // past the 16.7 s span
  drain.aggregates.push_back(agg);

  std::size_t sealed = 0;
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      [&sealed](dissem::Envelope&&) { ++sealed; });
  EXPECT_THROW(exporter.on_drain(0, drain), std::invalid_argument);
  EXPECT_THROW(exporter.flush(), std::logic_error);
  EXPECT_THROW(exporter.end_round(), std::logic_error);
  EXPECT_THROW(exporter.finish(), std::logic_error);
  drain.aggregates.clear();
  EXPECT_THROW(exporter.on_drain(1, drain), std::logic_error);
  EXPECT_EQ(sealed, 0u);
}

// Periodic reporting: several drains shipped through one envelope
// sequence import as one round per drain, and the recovered stream
// equals the concatenation of the direct per-period drains.
TEST(WireRoundTrip, PeriodicDrainsImportAsRounds) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = 24;
  mcfg.total_packets_per_second = 30'000.0;
  mcfg.duration = net::milliseconds(300);
  mcfg.seed = 17;
  trace::MultiPathTrace multi = trace::generate_multi_path(mcfg);
  multi.packets = quantize_us(std::move(multi.packets));
  const std::size_t half = multi.packets.size() / 2;
  const std::span<const net::Packet> first(multi.packets.data(), half);
  const std::span<const net::Packet> second(multi.packets.data() + half,
                                            multi.packets.size() - half);

  collector::ShardedCollector::Config scfg;
  scfg.cache.tuning = core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3};
  scfg.shard_count = 4;
  collector::ShardedCollector direct(scfg, multi.paths);
  collector::ShardedCollector exported(scfg, multi.paths);

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });

  std::vector<core::IndexedPathDrain> expected;
  for (const std::span<const net::Packet> period : {first, second}) {
    direct.observe_batch(period);
    exported.observe_batch(period);
    const bool last = period.data() == second.data();
    for (core::IndexedPathDrain& d : direct.drain(last)) {
      expected.push_back(std::move(d));
    }
    exported.drain(exporter, last);
  }
  exporter.finish();
  ASSERT_EQ(store.rejected_count(), 0u);

  const dissem::WireImporter importer(path_table(scfg.cache, multi.paths));
  const auto recovered = importer.import(store, kProducer);
  ASSERT_EQ(recovered.size(), 2 * multi.paths.size());
  EXPECT_EQ(recovered, expected);
}

core::PathDrain single_path_drain(const net::PathId& id,
                                  std::int64_t base_us,
                                  bool with_aggregate) {
  core::PathDrain d;
  d.samples.path = id;
  d.samples.sample_threshold = 10;
  d.samples.marker_threshold = 20;
  d.samples.samples.push_back(core::SampleRecord{
      .pkt_id = static_cast<net::PacketDigest>(base_us),
      .time = net::Timestamp{} + net::microseconds(base_us),
      .is_marker = true});
  if (with_aggregate) {
    core::AggregateReceipt agg;
    agg.path = id;
    agg.agg = core::AggId{.first = 1, .last = 2};
    agg.packet_count = 5;
    agg.opened_at = net::Timestamp{} + net::microseconds(base_us + 100);
    agg.closed_at = agg.opened_at + net::microseconds(50);
    d.aggregates.push_back(agg);
  }
  return d;
}

// A SINGLE-path producer reporting periodically: the first path key of
// round N+1 immediately repeats round N's, so round detection cannot rely
// on a key change.  With aggregates in the round the importer's fallback
// (sample section after the path's aggregates = new round) applies even
// without an explicit mark.
TEST(WireRoundTrip, SinglePathPeriodicRoundsImportSeparately) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  const auto d1 = single_path_drain(id, 100, /*with_aggregate=*/true);
  const auto d2 = single_path_drain(id, 1000, /*with_aggregate=*/true);

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
  exporter.on_drain(0, d1);  // no end_round(): fallback path
  exporter.on_drain(0, d2);
  exporter.finish();

  const dissem::WireImporter importer({id});
  const auto recovered = importer.import(store, kProducer);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].drain, d1);
  EXPECT_EQ(recovered[1].drain, d2);

  // import_hop concatenates the rounds for the verifier.
  const core::HopReceipts hop = importer.import_hop(store, kProducer, 2);
  EXPECT_EQ(hop.samples.samples.size(), 2u);
  EXPECT_EQ(hop.aggregates.size(), 2u);
}

// Sample-only rounds carry no in-round cue at all, so the round boundary
// must be marked explicitly (end_round(), or a per-period exporter whose
// finish() writes the mark); unmarked they merge — the documented wire
// ambiguity with an epoch split.
TEST(WireRoundTrip, SampleOnlyRoundsNeedExplicitRoundMarks) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  const auto d1 = single_path_drain(id, 100, /*with_aggregate=*/false);
  const auto d2 = single_path_drain(id, 1000, /*with_aggregate=*/false);
  const dissem::WireImporter importer({id});

  {
    dissem::ReceiptStore store;
    store.register_producer(kProducer, kKey);
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
        [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
    exporter.on_drain(0, d1);
    exporter.end_round();
    exporter.on_drain(0, d2);
    exporter.finish();
    const auto recovered = importer.import(store, kProducer);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].drain, d1);
    EXPECT_EQ(recovered[1].drain, d2);
  }
  {
    dissem::ReceiptStore store;
    store.register_producer(kProducer, kKey);
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
        [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
    exporter.on_drain(0, d1);  // no mark: indistinguishable from
    exporter.on_drain(0, d2);  // an epoch split, merges
    exporter.finish();
    const auto recovered = importer.import(store, kProducer);
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_EQ(recovered[0].drain.samples.samples.size(), 2u);
  }
}

// A successor exporter continuing the envelope sequence starts after the
// predecessor's closing round mark, so per-period exporters need no
// manual end_round() calls at all.
TEST(WireRoundTrip, PerPeriodExportersChainThroughSequenceNumbers) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  const auto d1 = single_path_drain(id, 100, /*with_aggregate=*/false);
  const auto d2 = single_path_drain(id, 1000, /*with_aggregate=*/false);

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  const auto ship = [&store](dissem::Envelope&& e) {
    store.ingest(std::move(e));
  };
  dissem::WireExporter first(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      ship);
  first.on_drain(0, d1);
  first.finish();
  dissem::WireExporter second(
      dissem::WireExporter::Config{.producer = kProducer,
                                   .key = kKey,
                                   .first_sequence = first.next_sequence()},
      ship);
  second.on_drain(0, d2);
  second.finish();
  ASSERT_EQ(store.rejected_count(), 0u);

  const dissem::WireImporter importer({id});
  const auto recovered = importer.import(store, kProducer);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].drain, d1);
  EXPECT_EQ(recovered[1].drain, d2);
}

/// One hand-built path drain: `rounds` sampling rounds of `followers`
/// followers each, `gap_us` apart, and `aggregates` aggregates
/// `agg_gap_us` apart with AggTrans windows of varying size.
core::PathDrain pinned_drain(const net::PathId& id, std::uint32_t salt,
                             std::int64_t base_us, std::size_t rounds,
                             std::size_t followers, std::int64_t gap_us,
                             std::size_t aggregates, std::int64_t agg_gap_us) {
  const auto id_of = [salt](std::size_t n) {
    return static_cast<net::PacketDigest>((salt * 7919u + n) * 2654435761u);
  };
  core::PathDrain d;
  d.samples.path = id;
  d.samples.sample_threshold = 1000 + salt;
  d.samples.marker_threshold = 2000 + salt;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i <= followers; ++i) {
      d.samples.samples.push_back(core::SampleRecord{
          .pkt_id = id_of(r * 100 + i),
          .time = net::Timestamp{} +
                  net::microseconds(base_us + static_cast<std::int64_t>(r) *
                                                  gap_us +
                                    static_cast<std::int64_t>(i) * 7),
          .is_marker = i == followers});
    }
  }
  for (std::size_t k = 0; k < aggregates; ++k) {
    core::AggregateReceipt a;
    a.path = id;
    a.agg = core::AggId{.first = id_of(10'000 + k), .last = id_of(20'000 + k)};
    a.packet_count = 10 + static_cast<std::uint32_t>(k);
    a.opened_at = net::Timestamp{} +
                  net::microseconds(base_us +
                                    static_cast<std::int64_t>(k) * agg_gap_us);
    a.closed_at = a.opened_at + net::microseconds(900);
    for (std::size_t j = 0; j < k % 3; ++j) {
      a.trans.before.push_back(id_of(30'000 + 10 * k + j));
    }
    for (std::size_t j = 0; j < k % 2; ++j) {
      a.trans.after.push_back(id_of(40'000 + 10 * k + j));
    }
    d.aggregates.push_back(a);
  }
  return d;
}

// Round trips cannot catch an exporter and importer that change together,
// so one fixed stream's envelopes are pinned: sequence, payload size and
// MAC of each, a 64-bit FNV-1a over all payloads, and the exporter's
// stats.  Two rounds of three paths under a 256 B cap: path 1's first
// round spans two batch epochs in both its samples and its aggregates,
// path 2's first sample section alone exceeds the cap, path 1 idles in
// the second round, and each round ends with a mark.
TEST(WireRoundTrip, StreamBytesArePinned) {
  std::vector<net::PathId> table(3);
  for (std::size_t p = 0; p < table.size(); ++p) {
    table[p].prefixes = trace::default_prefix_pair();
    table[p].prefixes.source = net::Prefix(
        net::Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(p) << 16)),
        16);
    table[p].previous_hop = 4;
    table[p].next_hop = 6;
  }
  const std::vector<std::vector<core::PathDrain>> rounds = {
      {pinned_drain(table[0], 1, 100, 2, 1, 1000, 2, 2000),
       pinned_drain(table[1], 2, 200, 3, 0, 9'000'000, 3, 9'000'000),
       pinned_drain(table[2], 3, 300, 40, 0, 500, 1, 0)},
      {pinned_drain(table[0], 4, 20'000'000, 1, 2, 0, 0, 0),
       pinned_drain(table[1], 5, 20'000'000, 0, 0, 0, 0, 0),
       pinned_drain(table[2], 6, 20'000'100, 2, 0, 300, 1, 0)}};

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  std::vector<dissem::Envelope> envelopes;
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{
          .producer = kProducer, .key = kKey, .max_chunk_bytes = 256},
      [&](dissem::Envelope&& e) {
        envelopes.push_back(e);
        store.ingest(std::move(e));
      });
  std::vector<core::IndexedPathDrain> expected;
  for (const std::vector<core::PathDrain>& round : rounds) {
    for (std::size_t p = 0; p < round.size(); ++p) {
      exporter.on_drain(p, round[p]);
      expected.push_back(core::IndexedPathDrain{.path = p, .drain = round[p]});
    }
    exporter.end_round();
  }
  exporter.end_round();  // idempotent at a boundary
  exporter.finish();

  std::ostringstream got;
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (const dissem::Envelope& e : envelopes) {
    got << e.sequence << ' ' << e.payload.size() << ' ' << std::hex << e.mac
        << std::dec << '\n';
    for (const std::byte b : e.payload) {
      fnv = (fnv ^ std::to_integer<std::uint64_t>(b)) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(got.str(),
            "1 225 ea9c0852ef1a341c\n"
            "2 206 c5e00c591a2e094f\n"
            "3 407 8d7faffb19a87654\n"
            "4 241 ff1cb7ca0fb332a7\n"
            "5 74 2d2c76b56077c57\n");
  EXPECT_EQ(fnv, 0x6bee8d599d2e66b3ull) << std::hex << fnv;

  const dissem::WireExporter::Stats& s = exporter.stats();
  std::ostringstream stats;
  stats << s.paths << ' ' << s.sample_records << ' ' << s.aggregate_receipts
        << ' ' << s.sample_batches << ' ' << s.aggregate_batches << ' '
        << s.epoch_splits << ' ' << s.chunks << ' ' << s.payload_bytes << ' '
        << s.envelope_bytes << ' ' << s.oversized_sections << ' '
        << s.peak_buffer_bytes;
  EXPECT_EQ(stats.str(), "6 52 7 7 5 2 5 1153 1278 1 407");

  ASSERT_EQ(store.rejected_count(), 0u);
  const dissem::WireImporter importer(table);
  EXPECT_EQ(importer.import(store, kProducer), expected);
}

// import_hop rebuilds a single-path producer's receipts for the verifier.
TEST(WireRoundTrip, ImportHopRebuildsHopReceipts) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  core::PathDrain drain;
  drain.samples.path = id;
  drain.samples.sample_threshold = 5;
  drain.samples.marker_threshold = 7;
  drain.samples.samples.push_back(core::SampleRecord{
      .pkt_id = 9, .time = net::Timestamp{1000}, .is_marker = true});

  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = kProducer, .key = kKey},
      [&store](dissem::Envelope&& e) { store.ingest(std::move(e)); });
  exporter.on_drain(0, drain);
  exporter.finish();

  const dissem::WireImporter importer({id});
  const core::HopReceipts hop = importer.import_hop(store, kProducer, 4);
  EXPECT_EQ(hop.hop, 4u);
  EXPECT_EQ(hop.samples, drain.samples);
  EXPECT_TRUE(hop.aggregates.empty());
}

}  // namespace
}  // namespace vpm
