// Byte-level receipt egress round trip: collector drain -> WireExporter
// (path entries under HOP-round headers, size-capped chunks, sealed
// envelopes) -> ReceiptStore -> WireImporter -> recovered drains `==` the
// direct drain.
//
// The wire format carries times as 3-byte microsecond offsets (§7.1), so
// the harness quantizes every observation time to 1 µs — after which the
// round trip must be EXACT, over seeds × digest modes × shard counts,
// chunk caps small enough to spread a round over many chunks, workloads
// long enough to roll run epochs, and generated multi-round streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
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

// A chunk cap far below one drain forces many chunks, each opening a
// segment of the one round it carries; the stream must still reassemble
// exactly, with dense envelope sequences.
TEST(WireRoundTrip, TinyChunksStraddlePathsAndStillRoundTrip) {
  const RoundTrip r =
      run_round_trip(3, net::DigestMode::kIndependent, 4, /*chunk=*/192);
  EXPECT_EQ(r.recovered, r.direct);
  // A few entries per chunk: the round shatters into a chunk per two to
  // three paths, and every chunk repeats the round's header.
  EXPECT_GT(r.stats.chunks, r.direct.size() / 4)
      << "a 192 B cap must split the drain into many chunks";
  EXPECT_EQ(r.stats.sample_batches, r.stats.chunks);
  EXPECT_EQ(r.stats.aggregate_batches, 1u);
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
  // Both peaks sit at/under the cap unless a single entry overflows it
  // (none does at this tuning), so 8x the paths must not move the bound.
  EXPECT_EQ(small.stats.oversized_sections, 0u);
  EXPECT_EQ(large.stats.oversized_sections, 0u);
  EXPECT_LE(small.stats.peak_buffer_bytes, kCap);
  EXPECT_LE(large.stats.peak_buffer_bytes, kCap);
}

// Drains spanning more than one 3-byte epoch range (16.7 s of µs offsets)
// must split into runs at round/receipt boundaries and still round-trip.
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
  // Samples: rounds 0-3 in one run, 4-7 in the next.  Aggregates: those
  // opening at 100-115 s in one run, 120 and 125 s in the next.
  EXPECT_EQ(exporter.stats().epoch_splits, 2u);
  EXPECT_EQ(exporter.stats().sample_batches, 1u);
  EXPECT_EQ(exporter.stats().aggregate_batches, 1u);

  const dissem::WireImporter importer({id});
  const auto recovered = importer.import(store, kProducer);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].path, 0u);
  EXPECT_EQ(recovered[0].drain, drain);
}

// A drain the codec rejects would leave its round without the path; the
// exporter must then refuse every further call rather than ship it.
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
  EXPECT_THROW(exporter.on_drain(0, drain), core::WireLimitError);
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

// A SINGLE-path producer reporting periodically: round N+1's first index
// repeats round N's, which closes round N even without end_round().
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
  exporter.on_drain(0, d1);  // no end_round(): the repeat closes it
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

// Sample-only rounds of one path import as separate rounds whether or not
// the producer marks them: end_round() writes a close, and without it the
// repeated index closes the round (an epoch split stays inside its entry,
// so the two cannot be confused).
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
    exporter.on_drain(0, d1);  // no mark: the repeated index closes
    exporter.on_drain(0, d2);  // the first round
    exporter.finish();
    EXPECT_EQ(exporter.stats().aggregate_batches, 2u);
    const auto recovered = importer.import(store, kProducer);
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].drain, d1);
    EXPECT_EQ(recovered[1].drain, d2);
  }
}

// A successor exporter continuing the envelope sequence starts after the
// round close its predecessor's finish() wrote, so per-period exporters
// need no manual end_round() calls at all.
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
// entry spans two run epochs in both its samples and its aggregates, path
// 2's first entry alone exceeds the cap (so round 1's close opens the
// third chunk), path 1 idles in the second round under thresholds of its
// own, and each round ends with a close.
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
            "1 242 61f81e77c420ee1c\n"
            "2 378 43941b8be48610b\n"
            "3 148 70e82e05df5043e8\n");
  EXPECT_EQ(fnv, 0xef1b8b96a5eb6512ull) << std::hex << fnv;

  const dissem::WireExporter::Stats& s = exporter.stats();
  std::ostringstream stats;
  stats << s.paths << ' ' << s.sample_records << ' ' << s.aggregate_receipts
        << ' ' << s.sample_batches << ' ' << s.aggregate_batches << ' '
        << s.epoch_splits << ' ' << s.chunks << ' ' << s.payload_bytes << ' '
        << s.envelope_bytes << ' ' << s.oversized_sections << ' '
        << s.peak_buffer_bytes;
  EXPECT_EQ(stats.str(), "6 52 7 4 2 2 3 768 843 1 378");

  ASSERT_EQ(store.rejected_count(), 0u);
  const dissem::WireImporter importer(table);
  EXPECT_EQ(importer.import(store, kProducer), expected);
}

// --- generated multi-round streams -------------------------------------

/// A seeded stream of reporting rounds over one path table: dense and
/// sparse (eviction-like) rounds, idle paths, rounds of 0-300 followers,
/// run epochs split at the 16.7 s edge, aggregates with AggTrans windows,
/// one path whose thresholds differ from the rest, and rounds that end
/// with end_round(), with a flush(), or with neither (the next round's
/// repeated index closes them).
struct GeneratedStream {
  std::vector<net::PathId> table;
  std::vector<std::vector<core::IndexedPathDrain>> rounds;
  std::vector<bool> marked;
  std::vector<bool> flushed;
};

GeneratedStream generate_stream(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto chance = [&rng](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  constexpr std::int64_t kEdgeUs = 0xFFFFFF;  // the last offset that fits

  GeneratedStream g;
  const auto paths = static_cast<std::size_t>(uniform(1, 40));
  for (std::size_t p = 0; p < paths; ++p) {
    net::PathId id{};
    id.prefixes = trace::default_prefix_pair();
    id.prefixes.source = net::Prefix(
        net::Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(p) << 16)),
        16);
    id.previous_hop = 4;
    id.next_hop = 6;
    id.max_diff = net::milliseconds(5);
    g.table.push_back(id);
  }
  const auto overridden = static_cast<std::size_t>(uniform(0, paths - 1));
  auto pkt = static_cast<std::uint32_t>(seed * 1'000'003u);
  std::int64_t now_us = uniform(0, 1'000'000'000);

  const auto rounds = uniform(1, 6);
  for (std::int64_t r = 0; r < rounds; ++r) {
    std::vector<core::IndexedPathDrain> round;
    const double density = chance(0.5) ? 1.0 : 0.3;
    for (std::size_t p = 0; p < paths; ++p) {
      if (!chance(density)) continue;
      core::PathDrain d;
      d.samples.path = g.table[p];
      d.samples.sample_threshold = p == overridden ? 777 : 1000;
      d.samples.marker_threshold = 2000;
      std::int64_t t = now_us + uniform(0, 50'000);
      const std::int64_t first = t;
      if (chance(0.05)) {
        // A lone record off the microsecond grid: its run's epoch is
        // exact to the nanosecond.
        d.samples.samples.push_back(core::SampleRecord{
            .pkt_id = pkt++,
            .time = net::Timestamp{t * 1000 + uniform(1, 999)},
            .is_marker = true});
      } else if (!chance(0.2)) {
        const auto sampling_rounds = uniform(0, 4);
        for (std::int64_t k = 0; k < sampling_rounds; ++k) {
          if (k > 0) {
            // Mostly short gaps; sometimes a round right at, or one
            // microsecond past, the end of the run's 16.7 s span.
            t = chance(0.15) ? std::max(t, first + kEdgeUs + uniform(0, 1))
                             : t + uniform(100, 50'000);
          }
          const auto followers =
              chance(0.05) ? uniform(100, 300) : uniform(0, 3);
          for (std::int64_t i = 0; i <= followers; ++i) {
            d.samples.samples.push_back(core::SampleRecord{
                .pkt_id = pkt++,
                .time = net::Timestamp{} + net::microseconds(t),
                .is_marker = i == followers});
            t += uniform(0, 200);
          }
        }
        std::int64_t open = first - uniform(0, 20'000'000);
        const auto aggregates = uniform(0, 3);
        for (std::int64_t k = 0; k < aggregates; ++k) {
          core::AggregateReceipt a;
          a.path = g.table[p];
          a.agg = core::AggId{.first = pkt, .last = pkt + 1};
          pkt += 2;
          a.packet_count = static_cast<std::uint32_t>(uniform(1, 5000));
          a.opened_at = net::Timestamp{} + net::microseconds(open);
          a.closed_at = a.opened_at + net::microseconds(
                                          chance(0.1) ? kEdgeUs
                                                      : uniform(0, 100'000));
          const auto window = [&] {
            return chance(0.05) ? std::int64_t{300} : uniform(0, 4);
          };
          for (auto n = window(); n > 0; --n) a.trans.before.push_back(pkt++);
          for (auto n = window(); n > 0; --n) a.trans.after.push_back(pkt++);
          d.aggregates.push_back(std::move(a));
          open += chance(0.2) ? kEdgeUs : uniform(0, 100'000);
        }
      }
      round.push_back(core::IndexedPathDrain{.path = p, .drain = std::move(d)});
    }
    g.rounds.push_back(std::move(round));
    g.marked.push_back(chance(0.6));
    g.flushed.push_back(chance(0.3));
    now_us += uniform(100'000, 20'000'000);
  }
  return g;
}

// Generated streams round-trip `==` at chunk caps from 64 B to 64 KiB; a
// session fed one payload at a time recovers what the one-shot import
// does; and an envelope exceeds its cap only to carry one oversized entry.
TEST(WireRoundTrip, GeneratedStreamsRoundTripAtEveryChunkCap) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const GeneratedStream g = generate_stream(seed);
    std::vector<core::IndexedPathDrain> expected;
    for (const auto& round : g.rounds) {
      expected.insert(expected.end(), round.begin(), round.end());
    }
    const dissem::WireImporter importer(g.table);
    for (const std::size_t cap : {std::size_t{64}, std::size_t{256},
                                  std::size_t{4096}, std::size_t{65536}}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " cap " << cap);
      dissem::ReceiptStore store;
      store.register_producer(kProducer, kKey);
      std::vector<std::vector<std::byte>> payloads;
      dissem::WireExporter exporter(
          dissem::WireExporter::Config{
              .producer = kProducer, .key = kKey, .max_chunk_bytes = cap},
          [&](dissem::Envelope&& e) {
            payloads.push_back(e.payload);
            ASSERT_EQ(store.ingest(std::move(e)),
                      dissem::IngestResult::kAccepted);
          });
      for (std::size_t r = 0; r < g.rounds.size(); ++r) {
        for (const core::IndexedPathDrain& d : g.rounds[r]) {
          exporter.on_drain(d.path, d.drain);
        }
        if (g.marked[r]) exporter.end_round();
        if (g.flushed[r]) exporter.flush();
      }
      exporter.finish();
      EXPECT_EQ(exporter.stats().paths, expected.size());

      const std::vector<core::IndexedPathDrain> one_shot =
          importer.import(store, kProducer);
      EXPECT_EQ(one_shot, expected);

      core::VectorSink sink;
      dissem::WireImporter::Session session(importer, sink);
      for (const std::vector<std::byte>& payload : payloads) {
        const std::size_t before = sink.stream().size();
        session.feed(payload);
        if (payload.size() > cap) {
          EXPECT_EQ(sink.stream().size() - before, 1u)
              << "an over-cap envelope holds one oversized entry";
        }
      }
      EXPECT_TRUE(session.at_round_boundary());
      session.finish();
      EXPECT_EQ(std::move(sink).take(), one_shot);
    }
  }
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
