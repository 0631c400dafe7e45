// Hostile-input hardening for the receipt wire formats: receipts cross
// trust boundaries (§4), so every decoder must treat its input as
// attacker-controlled.  This suite truncates valid encodings at EVERY byte
// offset, corrupts counts and times, and walks the exporter's chunk
// framing with the same malice — proving each malformed input raises
// net::WireError (or std::invalid_argument at encode time) and never
// over-reads or corrupts state (the ASan+UBSan CI job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/receipt_batch.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "net/wire.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm {
namespace {

net::PathId test_path() {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  id.previous_hop = 1;
  id.next_hop = 3;
  return id;
}

const std::uint64_t kKey = test_path().path_key();

core::SampleReceipt valid_samples(std::size_t rounds = 3,
                                  std::size_t followers = 2) {
  core::SampleReceipt r;
  r.path = test_path();
  r.sample_threshold = 1000;
  r.marker_threshold = 2000;
  net::Timestamp t{};
  std::uint32_t pkt = 1;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i <= followers; ++i) {
      r.samples.push_back(core::SampleRecord{
          .pkt_id = pkt++, .time = t, .is_marker = i == followers});
      t += net::microseconds(50);
    }
  }
  return r;
}

std::vector<core::AggregateReceipt> valid_aggregates(std::size_t n = 3) {
  std::vector<core::AggregateReceipt> out;
  net::Timestamp t{};
  std::uint32_t pkt = 100;
  for (std::size_t i = 0; i < n; ++i) {
    core::AggregateReceipt r;
    r.path = test_path();
    r.agg = core::AggId{.first = pkt++, .last = pkt++};
    r.packet_count = 10 + static_cast<std::uint32_t>(i);
    r.opened_at = t;
    r.closed_at = t + net::milliseconds(1);
    r.trans.before = {pkt++, pkt++};
    r.trans.after = {pkt++};
    out.push_back(r);
    t += net::milliseconds(2);
  }
  return out;
}

std::vector<std::byte> encode_sample(const core::SampleReceipt& r) {
  net::ByteWriter w;
  core::encode_sample_batch(r, r.samples, r.path.path_key(), w);
  return std::move(w).take();
}

std::vector<std::byte> encode_aggregates(
    std::span<const core::AggregateReceipt> rs) {
  net::ByteWriter w;
  core::encode_aggregate_batch(rs, rs.front().path.path_key(), w);
  return std::move(w).take();
}

// --- truncation at every byte offset ------------------------------------

TEST(ReceiptWireHostile, SampleBatchTruncationAtEveryOffsetThrows) {
  const auto bytes = encode_sample(valid_samples());
  const net::PathId id = test_path();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::ByteReader in(std::span<const std::byte>(bytes).first(len));
    EXPECT_THROW((void)core::decode_sample_batch(in, id, kKey), net::WireError)
        << "prefix length " << len;
  }
  net::ByteReader whole(bytes);
  EXPECT_EQ(core::decode_sample_batch(whole, id, kKey), valid_samples());
  EXPECT_TRUE(whole.done());
}

TEST(ReceiptWireHostile, AggregateBatchTruncationAtEveryOffsetThrows) {
  const auto aggs = valid_aggregates();
  const auto bytes = encode_aggregates(aggs);
  const net::PathId id = test_path();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::ByteReader in(std::span<const std::byte>(bytes).first(len));
    EXPECT_THROW((void)core::decode_aggregate_batch(in, id, kKey),
                 net::WireError)
        << "prefix length " << len;
  }
  net::ByteReader whole(bytes);
  EXPECT_EQ(core::decode_aggregate_batch(whole, id, kKey), aggs);
}

TEST(ReceiptWireHostile, EnvelopeTruncationAtEveryOffsetThrows) {
  const dissem::Envelope e =
      dissem::seal(9, 4, std::vector<std::byte>(37, std::byte{0x5A}), 123);
  net::ByteWriter w;
  dissem::encode(e, w);
  const std::vector<std::byte> bytes = std::move(w).take();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::ByteReader in(std::span<const std::byte>(bytes).first(len));
    EXPECT_THROW((void)dissem::decode_envelope(in), net::WireError)
        << "prefix length " << len;
  }
}

// --- corrupted counts and fields ----------------------------------------

// Flip every byte of a valid batch: the decoder must either throw
// WireError/still parse — never crash or over-read (ASan enforces the
// latter).  Parsed-but-different results are fine; authenticity is the
// envelope MAC's job, not the batch parser's.
TEST(ReceiptWireHostile, SampleBatchSingleByteCorruptionNeverOverReads) {
  const auto bytes = encode_sample(valid_samples());
  const net::PathId id = test_path();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::byte> mutated = bytes;
    mutated[i] ^= std::byte{0xFF};
    net::ByteReader in(mutated);
    try {
      (void)core::decode_sample_batch(in, id, kKey);
    } catch (const net::WireError&) {
    }
  }
}

TEST(ReceiptWireHostile, AggregateBatchSingleByteCorruptionNeverOverReads) {
  const auto bytes = encode_aggregates(valid_aggregates());
  const net::PathId id = test_path();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::byte> mutated = bytes;
    mutated[i] ^= std::byte{0xFF};
    net::ByteReader in(mutated);
    try {
      (void)core::decode_aggregate_batch(in, id, kKey);
    } catch (const net::WireError&) {
    }
  }
}

TEST(ReceiptWireHostile, AbsurdCountsThrowInsteadOfAllocatingOrOverReading) {
  // Sample batch claiming 2^32-1 rounds: must hit truncation, not loop.
  {
    net::ByteWriter w;
    core::SampleReceipt empty;
    empty.path = test_path();
    core::encode_sample_batch(empty, empty.samples, kKey, w);
    std::vector<std::byte> bytes = std::move(w).take();
    // round count is the last u32 of the empty encoding.
    for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
      bytes[i] = std::byte{0xFF};
    }
    net::ByteReader in(bytes);
    EXPECT_THROW((void)core::decode_sample_batch(in, test_path(), kKey),
                 net::WireError);
  }
  // Aggregate batch claiming 2^32-1 receipts likewise.
  {
    const auto aggs = valid_aggregates(1);
    std::vector<std::byte> bytes = encode_aggregates(aggs);
    // receipt count: u32 after tag(1) + key(8) + epoch(8).
    for (std::size_t i = 17; i < 21; ++i) bytes[i] = std::byte{0xFF};
    net::ByteReader in(bytes);
    EXPECT_THROW((void)core::decode_aggregate_batch(in, test_path(), kKey),
                 net::WireError);
  }
  // AggTrans id counts of 0xFFFF each with no bytes behind them.
  {
    const auto aggs = valid_aggregates(1);
    std::vector<std::byte> bytes = encode_aggregates(aggs);
    // trans counts: two u16s after tag+key+epoch+count(4)+agg(8)+cnt(4)+
    // open(3)+close(3) = 21 + 18 = offset 39.
    bytes[39] = bytes[40] = bytes[41] = bytes[42] = std::byte{0xFF};
    net::ByteReader in(bytes);
    EXPECT_THROW((void)core::decode_aggregate_batch(in, test_path(), kKey),
                 net::WireError);
  }
}

// --- non-monotone times --------------------------------------------------

TEST(ReceiptWireHostile, EncodeRejectsNonMonotoneTimes) {
  core::SampleReceipt r = valid_samples();
  r.samples[1].time = r.samples[0].time - net::microseconds(10);
  net::ByteWriter w;
  EXPECT_THROW(core::encode_sample_batch(r, r.samples, kKey, w),
               std::invalid_argument);

  auto aggs = valid_aggregates();
  aggs[1].opened_at = aggs[0].opened_at - net::milliseconds(1);
  net::ByteWriter w2;
  EXPECT_THROW(core::encode_aggregate_batch(aggs, kKey, w2),
               std::invalid_argument);
}

TEST(ReceiptWireHostile, DecodeRejectsTimeInversions) {
  // Hand-craft a sample batch whose second record steps backwards.
  net::ByteWriter w;
  w.u8(0x11);
  w.u64(test_path().path_key());
  w.u32(1000);
  w.u32(2000);
  w.i64(0);   // epoch
  w.u32(1);   // one round
  w.u16(1);   // one follower + marker
  w.u32(1);   // follower pkt id
  w.u24(500); // follower at +500 µs
  w.u32(2);   // marker pkt id
  w.u24(100); // marker at +100 µs — before its follower
  net::ByteReader in(w.view());
  EXPECT_THROW((void)core::decode_sample_batch(in, test_path(), kKey),
               net::WireError);

  // And an aggregate that closes before it opens.
  net::ByteWriter w2;
  w2.u8(0x12);
  w2.u64(test_path().path_key());
  w2.i64(0);   // epoch
  w2.u32(1);   // one receipt
  w2.u32(1);   // agg.first
  w2.u32(2);   // agg.last
  w2.u32(10);  // packet count
  w2.u24(900); // opened at +900 µs
  w2.u24(100); // closed at +100 µs
  w2.u16(0);
  w2.u16(0);
  net::ByteReader in2(w2.view());
  EXPECT_THROW((void)core::decode_aggregate_batch(in2, test_path(), kKey),
               net::WireError);
}

TEST(ReceiptWireHostile, DecodeRejectsWrongPathKeyAndTag) {
  const auto bytes = encode_sample(valid_samples());
  net::PathId other = test_path();
  other.prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);
  net::ByteReader in(bytes);
  EXPECT_THROW((void)core::decode_sample_batch(in, other, other.path_key()),
               net::WireError);

  net::ByteReader in2(bytes);
  EXPECT_THROW((void)core::decode_aggregate_batch(in2, test_path(), kKey),
               net::WireError);
}

// --- the exporter/importer chunk framing ---------------------------------

class ChunkHostile : public ::testing::Test {
 protected:
  /// One sealed chunk carrying a real one-path drain.
  std::vector<std::byte> valid_chunk_payload() {
    std::vector<std::byte> payload;
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{.producer = 1, .key = 2},
        [&payload](dissem::Envelope&& e) { payload = std::move(e.payload); });
    core::PathDrain drain;
    drain.samples = valid_samples();
    drain.aggregates = valid_aggregates();
    exporter.on_drain(0, drain);
    exporter.finish();
    return payload;
  }

  void expect_import_throws(std::span<const std::byte> payload) {
    dissem::ReceiptStore store;
    store.register_producer(1, 2);
    ASSERT_EQ(store.ingest(dissem::seal(
                  1, 1, std::vector<std::byte>(payload.begin(), payload.end()),
                  2)),
              dissem::IngestResult::kAccepted);
    const dissem::WireImporter importer({test_path()});
    core::NullSink sink;
    EXPECT_THROW(importer.import_into(store, 1, sink), net::WireError);
  }
};

TEST_F(ChunkHostile, TruncationAtEveryOffsetThrows) {
  const auto payload = valid_chunk_payload();
  ASSERT_FALSE(payload.empty());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    expect_import_throws(std::span<const std::byte>(payload).first(len));
  }
}

TEST_F(ChunkHostile, UnknownPathKeySectionKindAndChunkTagThrow) {
  auto payload = valid_chunk_payload();
  // Chunk tag.
  {
    auto p = payload;
    p[0] = std::byte{0x7F};
    expect_import_throws(p);
  }
  // First section kind (offset: tag 1 + count 4).
  {
    auto p = payload;
    p[5] = std::byte{0x7F};
    expect_import_throws(p);
  }
  // First section path key (offset 6..13).
  {
    auto p = payload;
    p[6] ^= std::byte{0xFF};
    expect_import_throws(p);
  }
}

TEST_F(ChunkHostile, SectionLengthMismatchThrows) {
  auto payload = valid_chunk_payload();
  // Section length field sits after kind(1) + key(8) at offset 14..17;
  // shrinking it makes the decoded batch overrun the declared length.
  payload[14] = std::byte{static_cast<unsigned char>(
      std::to_integer<unsigned>(payload[14]) - 1)};
  expect_import_throws(payload);
}

TEST_F(ChunkHostile, AggregateSectionBeforeSamplesThrows) {
  // Build a chunk whose first (and only) section is an aggregate batch.
  net::ByteWriter batch;
  core::encode_aggregate_batch(valid_aggregates(), kKey, batch);
  net::ByteWriter payload;
  payload.u8(dissem::kChunkTag);
  payload.u32(1);
  payload.u8(dissem::kAggregateSectionKind);
  payload.u64(test_path().path_key());
  payload.u32(static_cast<std::uint32_t>(batch.size()));
  payload.bytes(batch.view());
  expect_import_throws(payload.view());
}

TEST_F(ChunkHostile, AggregateSectionRevisitingAClosedPathThrows) {
  // Path A's sections, then path B's, then an AGGREGATE section claiming
  // to continue A: a revisit may only open a new reporting round, and a
  // round must start with the path's sample batch.
  net::PathId path_b = test_path();
  path_b.prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);

  net::ByteWriter empty_a, empty_b, aggs_a;
  core::SampleReceipt sa;
  sa.path = test_path();
  core::encode_sample_batch(sa, sa.samples, kKey, empty_a);
  core::SampleReceipt sb;
  sb.path = path_b;
  core::encode_sample_batch(sb, sb.samples, sb.path.path_key(), empty_b);
  core::encode_aggregate_batch(valid_aggregates(), kKey, aggs_a);

  struct Section {
    std::uint8_t kind;
    std::uint64_t key;
    const net::ByteWriter* batch;
  };
  const Section sections[] = {
      {dissem::kSampleSectionKind, test_path().path_key(), &empty_a},
      {dissem::kSampleSectionKind, path_b.path_key(), &empty_b},
      {dissem::kAggregateSectionKind, test_path().path_key(), &aggs_a}};
  net::ByteWriter payload;
  payload.u8(dissem::kChunkTag);
  payload.u32(3);
  for (const Section& s : sections) {
    payload.u8(s.kind);
    payload.u64(s.key);
    payload.u32(static_cast<std::uint32_t>(s.batch->size()));
    payload.bytes(s.batch->view());
  }

  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  ASSERT_EQ(store.ingest(dissem::seal(
                1, 1,
                std::vector<std::byte>(payload.view().begin(),
                                       payload.view().end()),
                2)),
            dissem::IngestResult::kAccepted);
  const dissem::WireImporter importer({test_path(), path_b});
  core::NullSink sink;
  EXPECT_THROW(importer.import_into(store, 1, sink), net::WireError);
}

TEST_F(ChunkHostile, SeamTimeInversionAcrossSplitBatchesThrows) {
  // Each section is internally monotone, but the seam steps backwards —
  // the reassembled stream must be rejected just like an in-batch
  // inversion would be.
  const auto make_samples = [](std::int64_t first_us) {
    core::SampleReceipt r;
    r.path = test_path();
    r.sample_threshold = 1000;
    r.marker_threshold = 2000;
    r.samples.push_back(core::SampleRecord{
        .pkt_id = 1,
        .time = net::Timestamp{} + net::microseconds(first_us),
        .is_marker = true});
    return r;
  };
  const auto make_agg = [](std::int64_t open_us) {
    core::AggregateReceipt r;
    r.path = test_path();
    r.opened_at = net::Timestamp{} + net::microseconds(open_us);
    r.closed_at = r.opened_at + net::microseconds(10);
    return r;
  };
  const auto build = [](std::initializer_list<
                         std::pair<std::uint8_t, const net::ByteWriter*>>
                            sections) {
    net::ByteWriter payload;
    payload.u8(dissem::kChunkTag);
    payload.u32(static_cast<std::uint32_t>(sections.size()));
    for (const auto& [kind, batch] : sections) {
      payload.u8(kind);
      payload.u64(test_path().path_key());
      payload.u32(static_cast<std::uint32_t>(batch->size()));
      payload.bytes(batch->view());
    }
    return std::vector<std::byte>(payload.view().begin(),
                                  payload.view().end());
  };

  // Split sample batches: [500 µs] then [100 µs].
  {
    net::ByteWriter b1, b2;
    const core::SampleReceipt early = make_samples(500);
    const core::SampleReceipt late = make_samples(100);
    core::encode_sample_batch(early, early.samples, kKey, b1);
    core::encode_sample_batch(late, late.samples, kKey, b2);
    expect_import_throws(build({{dissem::kSampleSectionKind, &b1},
                                {dissem::kSampleSectionKind, &b2}}));
  }
  // Split aggregate batches: opens at 300 µs then 100 µs.
  {
    net::ByteWriter s, b1, b2;
    core::SampleReceipt empty;
    empty.path = test_path();
    core::encode_sample_batch(empty, empty.samples, kKey, s);
    const auto a1 = make_agg(300);
    const auto a2 = make_agg(100);
    core::encode_aggregate_batch({&a1, 1}, kKey, b1);
    core::encode_aggregate_batch({&a2, 1}, kKey, b2);
    expect_import_throws(build({{dissem::kSampleSectionKind, &s},
                                {dissem::kAggregateSectionKind, &b1},
                                {dissem::kAggregateSectionKind, &b2}}));
  }
}

// A fatal decode error part-way through a chunk must leave the sink with
// only the paths completed before it, each whole: a half-decoded path
// (its samples without its aggregates) never reaches the sink.
TEST_F(ChunkHostile, FatalErrorLeavesSinkWithWholePathsOnly) {
  std::vector<net::PathId> table = {test_path(), test_path(), test_path()};
  table[1].prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);
  table[2].prefixes.source = net::Prefix(net::Ipv4Address(0x0C000000), 16);
  std::vector<core::PathDrain> drains(table.size());
  for (std::size_t p = 0; p < table.size(); ++p) {
    drains[p].samples = valid_samples();
    drains[p].samples.path = table[p];
    drains[p].aggregates = valid_aggregates();
    for (core::AggregateReceipt& a : drains[p].aggregates) a.path = table[p];
  }

  std::vector<std::byte> payload;
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{.producer = 1, .key = 2},
      [&payload](dissem::Envelope&& e) { payload = std::move(e.payload); });
  for (std::size_t p = 0; p < drains.size(); ++p) {
    exporter.on_drain(p, drains[p]);
  }
  exporter.finish();

  // Walk the section framing to path 1's aggregate section and flip its
  // batch tag; the framing stays intact, so the error is fatal, not a
  // truncation.
  net::ByteReader in(payload);
  ASSERT_EQ(in.u8(), dissem::kChunkTag);
  const std::uint32_t sections = in.u32();
  std::size_t tag_at = 0;
  for (std::uint32_t s = 0; s < sections && tag_at == 0; ++s) {
    const std::uint8_t kind = in.u8();
    const std::uint64_t key = in.u64();
    const std::uint32_t length = in.u32();
    if (kind == dissem::kAggregateSectionKind &&
        key == table[1].path_key()) {
      tag_at = payload.size() - in.remaining();
    }
    in.skip(length);
  }
  ASSERT_NE(tag_at, 0u);
  payload[tag_at] ^= std::byte{0xFF};

  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  ASSERT_EQ(store.ingest(dissem::seal(1, 1, payload, 2)),
            dissem::IngestResult::kAccepted);
  const dissem::WireImporter importer(table);
  core::VectorSink sink;
  EXPECT_THROW(importer.import_into(store, 1, sink), net::WireError);
  const std::vector<core::IndexedPathDrain> got = std::move(sink).take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].path, 0u);
  EXPECT_EQ(got[0].drain, drains[0]);
}

// A resync walk discards sections without decoding them, but names each
// skipped path key once, ascending — whether the stream repeats a key
// many times or names a key the path table does not hold.
TEST(WireImporterSession, SkipWalkReportsEachKeyOnceAscending) {
  std::vector<net::PathId> table = {test_path(), test_path()};
  table[1].prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);
  const std::uint64_t a = table[0].path_key();
  const std::uint64_t b = table[1].path_key();
  const std::uint64_t stranger = a ^ b ^ 0x5A5A;
  ASSERT_NE(stranger, a);
  ASSERT_NE(stranger, b);

  // 64 sections, mostly `b`, then the round mark that ends the walk.
  std::vector<std::uint64_t> keys(64, b);
  keys[3] = a;
  keys[40] = stranger;
  keys[41] = a;
  net::ByteWriter payload;
  payload.u8(dissem::kChunkTag);
  payload.u32(static_cast<std::uint32_t>(keys.size() + 1));
  for (const std::uint64_t key : keys) {
    payload.u8(dissem::kSampleSectionKind);
    payload.u64(key);
    payload.u32(0);
  }
  payload.u8(dissem::kRoundMarkKind);
  payload.u64(0);
  payload.u32(0);

  const dissem::WireImporter importer(table);
  core::VectorSink sink;
  dissem::WireImporter::Session session(importer, sink);
  session.resync();
  session.feed(payload.view());
  EXPECT_TRUE(session.at_round_boundary());
  std::vector<std::uint64_t> want = {a, b, stranger};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(session.take_skipped_keys(), want);
  EXPECT_TRUE(session.take_skipped_keys().empty()) << "taking resets";
  EXPECT_TRUE(std::move(sink).take().empty());
}

// --- duplicated / reordered envelope sequences ---------------------------
//
// The transport between producer and store is attacker-adjacent too: a
// middlebox (or the FaultyTransport soak) can replay and reorder whole
// sealed envelopes.  The store's sequence discipline must dedupe retained
// replays, file reordered arrivals into place, and reject post-collection
// replays — and the decoded stream must come out IDENTICAL to an in-order
// ingest, never with a round applied twice.
class EnvelopeSequenceHostile : public ::testing::Test {
 protected:
  /// A two-round, two-path exporter stream chunked small enough to span
  /// several envelopes.
  std::vector<dissem::Envelope> make_stream() {
    std::vector<dissem::Envelope> envelopes;
    dissem::WireExporter exporter(
        dissem::WireExporter::Config{
            .producer = 1, .key = 2, .max_chunk_bytes = 160},
        [&envelopes](dissem::Envelope&& e) {
          envelopes.push_back(std::move(e));
        });
    net::PathId path_b = test_path();
    path_b.prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);
    for (int round = 0; round < 2; ++round) {
      core::PathDrain a;
      a.samples = valid_samples();
      a.aggregates = valid_aggregates();
      core::PathDrain b = a;
      b.samples.path = path_b;
      for (auto& agg : b.aggregates) agg.path = path_b;
      exporter.on_drain(0, a);
      exporter.on_drain(1, b);
      exporter.end_round();
      exporter.flush();
    }
    exporter.finish();
    return envelopes;
  }

  dissem::WireImporter importer_for_stream() {
    net::PathId path_b = test_path();
    path_b.prefixes.source = net::Prefix(net::Ipv4Address(0x0B000000), 16);
    return dissem::WireImporter({test_path(), path_b});
  }

  std::vector<core::IndexedPathDrain> import_stream(
      const dissem::ReceiptStore& store) {
    const dissem::WireImporter importer = importer_for_stream();
    core::VectorSink sink;
    importer.import_into(store, 1, sink);
    return std::move(sink).take();
  }

  /// The stream as an in-order ingest decodes it — the double-apply
  /// oracle.
  std::vector<core::IndexedPathDrain> reference_stream(
      const std::vector<dissem::Envelope>& envelopes) {
    dissem::ReceiptStore store;
    store.register_producer(1, 2);
    for (const dissem::Envelope& e : envelopes) {
      EXPECT_EQ(store.ingest(e), dissem::IngestResult::kAccepted);
    }
    return import_stream(store);
  }
};

TEST_F(EnvelopeSequenceHostile, DuplicatedEnvelopesNeverDoubleApplyARound) {
  const auto envelopes = make_stream();
  ASSERT_GT(envelopes.size(), 3u) << "stream must span several envelopes";
  const auto reference = reference_stream(envelopes);

  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  // Replay each envelope immediately after its original...
  for (const dissem::Envelope& e : envelopes) {
    EXPECT_EQ(store.ingest(e), dissem::IngestResult::kAccepted);
    EXPECT_EQ(store.ingest(e), dissem::IngestResult::kDuplicate);
  }
  // ...and the whole stream once more at the end.
  for (const dissem::Envelope& e : envelopes) {
    EXPECT_EQ(store.ingest(e), dissem::IngestResult::kDuplicate);
  }
  EXPECT_EQ(store.stored_envelopes(), envelopes.size());
  EXPECT_EQ(store.accepted_count(), envelopes.size());
  EXPECT_EQ(store.rejected_count(), 2 * envelopes.size());
  EXPECT_EQ(import_stream(store), reference)
      << "a replayed envelope must not contribute a second copy of its round";
}

TEST_F(EnvelopeSequenceHostile, ReorderedEnvelopesReassembleTheIdenticalStream) {
  const auto envelopes = make_stream();
  ASSERT_GT(envelopes.size(), 3u);
  const auto reference = reference_stream(envelopes);

  // Fully reversed arrival — the worst reordering a transport can do.
  dissem::ReceiptStore reversed;
  reversed.register_producer(1, 2);
  for (auto it = envelopes.rbegin(); it != envelopes.rend(); ++it) {
    EXPECT_EQ(reversed.ingest(*it), dissem::IngestResult::kAccepted);
  }
  EXPECT_EQ(import_stream(reversed), reference);

  // An interleaved swap pattern (1,0,3,2,...) with a duplicate riding
  // along mid-stream.
  dissem::ReceiptStore swapped;
  swapped.register_producer(1, 2);
  for (std::size_t i = 0; i + 1 < envelopes.size(); i += 2) {
    EXPECT_EQ(swapped.ingest(envelopes[i + 1]),
              dissem::IngestResult::kAccepted);
    EXPECT_EQ(swapped.ingest(envelopes[i]), dissem::IngestResult::kAccepted);
    EXPECT_EQ(swapped.ingest(envelopes[i + 1]),
              dissem::IngestResult::kDuplicate);
  }
  if (envelopes.size() % 2 != 0) {
    EXPECT_EQ(swapped.ingest(envelopes.back()),
              dissem::IngestResult::kAccepted);
  }
  EXPECT_EQ(import_stream(swapped), reference);
}

TEST_F(EnvelopeSequenceHostile, ReplayAfterCollectionIsRejectedAsStale) {
  const auto envelopes = make_stream();
  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  for (const dissem::Envelope& e : envelopes) {
    ASSERT_EQ(store.ingest(e), dissem::IngestResult::kAccepted);
  }
  store.register_consumer("v");
  ASSERT_EQ(store.ack("v", 1, envelopes.back().sequence),
            dissem::AckResult::kAcked);
  ASSERT_EQ(store.stored_envelopes(), 0u);

  // The envelopes are collected, but their sequences are not forgotten:
  // an authentic replay cannot rewind the stream.
  for (const dissem::Envelope& e : envelopes) {
    EXPECT_EQ(store.ingest(e), dissem::IngestResult::kStaleSequence);
  }
  EXPECT_TRUE(import_stream(store).empty());
}

TEST_F(ChunkHostile, StoreRejectsTamperedChunkBeforeItReachesTheDecoder) {
  auto payload = valid_chunk_payload();
  dissem::Envelope env = dissem::seal(1, 1, payload, 2);
  env.payload[20] ^= std::byte{0x01};
  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  EXPECT_EQ(store.ingest(std::move(env)),
            dissem::IngestResult::kBadAuthenticator);
  EXPECT_EQ(store.accepted_count(), 0u);
}

}  // namespace
}  // namespace vpm
