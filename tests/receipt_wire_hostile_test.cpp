// Hostile-input hardening for the receipt wire formats: receipts cross
// trust boundaries (§4), so every decoder must treat its input as
// attacker-controlled.  This suite truncates valid encodings at EVERY byte
// offset, flips every byte, corrupts counts, times and indices, and feeds
// consumers path tables that are not the producer's — proving each
// malformed input raises net::WireError (or std::invalid_argument at
// encode time) and never over-reads or corrupts state (the ASan+UBSan CI
// job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
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

net::PathId test_path(std::uint32_t source = 0x0A000000u) {
  net::PathId id{};
  id.prefixes = trace::default_prefix_pair();
  id.prefixes.source = net::Prefix(net::Ipv4Address(source), 16);
  id.previous_hop = 1;
  id.next_hop = 3;
  return id;
}

/// Three distinct paths, the table both ends of most streams here hold.
std::vector<net::PathId> test_table() {
  return {test_path(0x0A000000u), test_path(0x0B000000u),
          test_path(0x0C000000u)};
}

core::SampleReceipt valid_samples(const net::PathId& path = test_path(),
                                  std::size_t rounds = 3,
                                  std::size_t followers = 2) {
  core::SampleReceipt r;
  r.path = path;
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

std::vector<core::AggregateReceipt> valid_aggregates(
    const net::PathId& path = test_path(), std::size_t n = 3) {
  std::vector<core::AggregateReceipt> out;
  net::Timestamp t{};
  std::uint32_t pkt = 100;
  for (std::size_t i = 0; i < n; ++i) {
    core::AggregateReceipt r;
    r.path = path;
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

core::PathDrain valid_drain(const net::PathId& path = test_path()) {
  return core::PathDrain{.samples = valid_samples(path),
                         .aggregates = valid_aggregates(path)};
}

const core::RoundHeader kHeader{.sample_threshold = 1000,
                                .marker_threshold = 2000,
                                .base = net::Timestamp{}};

/// `d` as a segment's first entry under kHeader.
std::vector<std::byte> encode_entry(const core::PathDrain& d) {
  net::ByteWriter w;
  core::encode_entry(core::size_entry(1, d, kHeader), d, kHeader, w);
  return std::move(w).take();
}

/// Reads and decodes one entry from `bytes`; throws what the codec does.
core::PathDrain decode_entry(std::span<const std::byte> bytes) {
  net::ByteReader in(bytes);
  const core::Item item = core::read_item(in);
  return core::decode_entry(item, test_path(), kHeader);
}

/// An entry around a hand-built body.
std::vector<std::byte> entry_around(const net::ByteWriter& body) {
  net::ByteWriter w;
  w.varint(1 << 1);
  w.varint(body.size());
  w.bytes(body.view());
  return std::move(w).take();
}

// --- truncation at every byte offset ------------------------------------

void expect_every_prefix_throws(const core::PathDrain& d) {
  const std::vector<std::byte> bytes = encode_entry(d);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_entry(std::span(bytes).first(len)),
                 net::WireError)
        << "prefix length " << len;
  }
  // A body cut short inside a well-framed entry throws too.
  net::ByteReader in(bytes);
  const core::Item whole = core::read_item(in);
  for (std::size_t len = 1; len < whole.body.size(); ++len) {
    core::Item cut = whole;
    cut.body = whole.body.first(len);
    EXPECT_THROW((void)core::decode_entry(cut, test_path(), kHeader),
                 net::WireError)
        << "body length " << len;
  }
  EXPECT_EQ(decode_entry(bytes), d);
}

TEST(ReceiptWireHostile, SampleBatchTruncationAtEveryOffsetThrows) {
  expect_every_prefix_throws(
      core::PathDrain{.samples = valid_samples(), .aggregates = {}});
}

TEST(ReceiptWireHostile, AggregateBatchTruncationAtEveryOffsetThrows) {
  core::SampleReceipt idle = valid_samples();
  idle.samples.clear();
  expect_every_prefix_throws(
      core::PathDrain{.samples = idle, .aggregates = valid_aggregates()});
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

// Flip every byte of a valid entry: the decoder must either throw
// WireError or still parse — never crash or over-read (ASan enforces the
// latter).  Parsed-but-different results are fine; authenticity is the
// envelope MAC's job, not the entry parser's.
void flip_every_byte(const core::PathDrain& d) {
  const std::vector<std::byte> bytes = encode_entry(d);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::byte> mutated = bytes;
    mutated[i] ^= std::byte{0xFF};
    try {
      (void)decode_entry(mutated);
    } catch (const net::WireError&) {
    }
  }
}

TEST(ReceiptWireHostile, SampleBatchSingleByteCorruptionNeverOverReads) {
  flip_every_byte(
      core::PathDrain{.samples = valid_samples(), .aggregates = {}});
}

TEST(ReceiptWireHostile, AggregateBatchSingleByteCorruptionNeverOverReads) {
  flip_every_byte(valid_drain());
}

TEST(ReceiptWireHostile, AbsurdCountsThrowInsteadOfAllocatingOrOverReading) {
  const auto expect_throws = [](const net::ByteWriter& body) {
    EXPECT_THROW((void)decode_entry(entry_around(body)), net::WireError);
  };
  // A sample run claiming 2^62 rounds: must hit truncation, not loop.
  {
    net::ByteWriter body;
    body.varint(std::uint64_t{1} << 63);
    body.varint(0);  // epoch
    body.varint(0);  // one follower count, then nothing
    expect_throws(body);
  }
  // A round claiming 2^64 - 1 followers behind seven bytes.
  {
    net::ByteWriter body;
    body.varint(1 << 1);
    body.varint(0);
    body.varint(~std::uint64_t{0});
    body.u32(1);
    body.u24(0);
    expect_throws(body);
  }
  // An aggregate run claiming 2^62 receipts.
  {
    net::ByteWriter body;
    body.varint(0);
    body.varint(std::uint64_t{1} << 63);
    body.varint(0);
    expect_throws(body);
  }
  // AggTrans id counts of 0xFFFF each with no bytes behind them.
  {
    net::ByteWriter body;
    body.varint(0);
    body.varint(1 << 1);
    body.varint(0);
    body.u32(1);
    body.u32(2);
    body.u32(3);
    body.u24(0);
    body.u24(1);
    body.u16(0xFFFF);
    body.u16(0xFFFF);
    expect_throws(body);
  }
  // An entry whose length claims more than the input holds.
  {
    net::ByteWriter w;
    w.varint(1 << 1);
    w.varint(~std::uint64_t{0} >> 1);
    w.u32(0);
    EXPECT_THROW((void)decode_entry(w.view()), net::WireError);
  }
  // An epoch whose microseconds overflow a timestamp.
  {
    net::ByteWriter body;
    body.varint(1 << 1);
    body.varint(~std::uint64_t{0} - 1);
    body.varint(0);
    body.u32(1);
    body.u24(0);
    body.varint(0);
    expect_throws(body);
  }
}

// --- non-monotone times --------------------------------------------------

TEST(ReceiptWireHostile, EncodeRejectsNonMonotoneTimes) {
  core::PathDrain d = valid_drain();
  d.samples.samples[1].time = d.samples.samples[0].time -
                              net::microseconds(10);
  EXPECT_THROW((void)core::size_entry(1, d, kHeader), std::invalid_argument);

  d = valid_drain();
  d.aggregates[1].opened_at =
      d.aggregates[0].opened_at - net::milliseconds(1);
  EXPECT_THROW((void)core::size_entry(1, d, kHeader), std::invalid_argument);
}

TEST(ReceiptWireHostile, DecodeRejectsTimeInversions) {
  // A sampling round whose marker steps back before its follower.
  {
    net::ByteWriter body;
    body.varint(1 << 1);  // one round, one run
    body.varint(0);       // epoch = base
    body.varint(1);       // one follower + marker
    body.u32(1);
    body.u24(500);  // follower at +500 µs
    body.u32(2);
    body.u24(100);  // marker at +100 µs — before its follower
    body.varint(0);
    EXPECT_THROW((void)decode_entry(entry_around(body)), net::WireError);
  }
  // An aggregate that closes before it opens.
  {
    net::ByteWriter body;
    body.varint(0);
    body.varint(1 << 1);
    body.varint(0);
    body.u32(1);
    body.u32(2);
    body.u32(10);
    body.u24(900);  // opened at +900 µs
    body.u24(100);  // closed at +100 µs
    body.u16(0);
    body.u16(0);
    EXPECT_THROW((void)decode_entry(entry_around(body)), net::WireError);
  }
}

// --- chunks and streams ---------------------------------------------------

/// `rounds` rounds of the three test paths, path 1 idle in odd rounds,
/// through an exporter with `cap`; returns the sealed payloads.
std::vector<std::vector<std::byte>> export_stream(
    const std::vector<net::PathId>& table, std::size_t rounds,
    std::size_t cap) {
  std::vector<std::vector<std::byte>> payloads;
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{
          .producer = 1, .key = 2, .max_chunk_bytes = cap},
      [&payloads](dissem::Envelope&& e) {
        payloads.push_back(std::move(e.payload));
      });
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < table.size(); ++p) {
      core::PathDrain d = valid_drain(table[p]);
      if (p == 1 && r % 2 == 1) {
        d.samples.samples.clear();
        d.aggregates.clear();
      }
      exporter.on_drain(p, std::move(d));
    }
    exporter.end_round();
  }
  exporter.finish();
  return payloads;
}

class ChunkHostile : public ::testing::Test {
 protected:
  /// One sealed chunk carrying two rounds of the three test paths.
  std::vector<std::byte> valid_chunk_payload() {
    const auto payloads = export_stream(test_table(), 2, 64 * 1024);
    EXPECT_EQ(payloads.size(), 1u);
    return payloads.front();
  }

  void expect_import_throws(std::span<const std::byte> payload,
                            std::vector<net::PathId> table = test_table()) {
    dissem::ReceiptStore store;
    store.register_producer(1, 2);
    ASSERT_EQ(store.ingest(dissem::seal(
                  1, 1, std::vector<std::byte>(payload.begin(), payload.end()),
                  2)),
              dissem::IngestResult::kAccepted);
    const dissem::WireImporter importer(std::move(table));
    core::NullSink sink;
    EXPECT_THROW(importer.import_into(store, 1, sink), net::WireError);
  }

  /// Byte offsets of each item of a one-segment-per-round chunk.
  static std::vector<std::size_t> item_offsets(
      std::span<const std::byte> payload) {
    net::ByteReader in(payload);
    (void)in.u8();
    const std::uint32_t items = in.u32();
    std::vector<std::size_t> out;
    bool need_header = true;
    for (std::uint32_t i = 0; i < items; ++i) {
      if (need_header) in.skip(core::kRoundHeaderBytes);
      out.push_back(payload.size() - in.remaining());
      need_header = core::read_item(in).close;
    }
    return out;
  }
};

// Every proper prefix of a chunk is a TRANSIENT error that leaves the
// session exactly as it was: the full payload then decodes normally.
TEST_F(ChunkHostile, TruncationAtEveryOffsetThrows) {
  const auto payload = valid_chunk_payload();
  ASSERT_FALSE(payload.empty());
  const dissem::WireImporter importer(test_table());
  core::VectorSink sink;
  dissem::WireImporter::Session session(importer, sink);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    try {
      session.feed(std::span(payload).first(len));
      ADD_FAILURE() << "prefix length " << len << " decoded";
    } catch (const net::WireError& e) {
      EXPECT_TRUE(e.transient()) << "prefix length " << len;
    }
    ASSERT_TRUE(session.at_round_boundary()) << "prefix length " << len;
    ASSERT_TRUE(sink.stream().empty()) << "prefix length " << len;
  }
  session.feed(payload);
  session.finish();
  EXPECT_EQ(sink.stream().size(), 6u);
}

TEST_F(ChunkHostile, UnknownPathKeySectionKindAndChunkTagThrow) {
  auto payload = valid_chunk_payload();
  // Chunk tag.
  {
    auto p = payload;
    p[0] = std::byte{0x7F};
    expect_import_throws(p);
  }
  // A path index past the consumer's table: the same stream into a
  // two-path table.
  expect_import_throws(payload, {test_path(0x0A000000u),
                                 test_path(0x0B000000u)});
  // A zero index step: the first entry's head varint (one byte).
  {
    const std::size_t at = item_offsets(payload).front();
    auto p = payload;
    p[at] = std::byte{0x00 | 0x01};
    expect_import_throws(p);
  }
}

TEST_F(ChunkHostile, SectionLengthMismatchThrows) {
  auto payload = valid_chunk_payload();
  // The first entry's length varint follows its one-byte head; shrinking
  // it leaves a byte of the body to be read as the next item.
  const std::size_t at = item_offsets(payload).front() + 1;
  payload[at] = std::byte{static_cast<unsigned char>(
      std::to_integer<unsigned>(payload[at]) - 1)};
  expect_import_throws(payload);
}

TEST_F(ChunkHostile, RoundCloseBeforeAnyEntryThrows) {
  // A round that closes before shipping an entry: no exporter writes one.
  net::ByteWriter payload;
  payload.u8(dissem::kChunkTag);
  payload.u32(1);
  core::encode_round_header(kHeader, payload);
  core::encode_round_close(core::kRoundDigestSeed, payload);
  expect_import_throws(payload.view());
}

TEST_F(ChunkHostile, AggregateSectionRevisitingAClosedPathThrows) {
  // Path 1's entry ends the first chunk of an open round; the next chunk
  // continues the round with path 0's: a revisit inside a round, which an
  // exporter would have shipped as a new round after a close.
  const std::vector<net::PathId> table = test_table();
  const auto chunk = [&](std::size_t index) {
    const core::PathDrain d = valid_drain(table[index]);
    net::ByteWriter w;
    w.u8(dissem::kChunkTag);
    w.u32(1);
    core::encode_round_header(kHeader, w);
    core::encode_entry(core::size_entry(index + 1, d, kHeader), d, kHeader,
                       w);
    return std::move(w).take();
  };
  const dissem::WireImporter importer(table);
  core::VectorSink sink;
  dissem::WireImporter::Session session(importer, sink);
  session.feed(chunk(1));
  EXPECT_FALSE(session.at_round_boundary());
  EXPECT_THROW(session.feed(chunk(0)), net::WireError);
  EXPECT_TRUE(session.poisoned());
  EXPECT_EQ(sink.stream().size(), 1u);
}

TEST_F(ChunkHostile, SeamTimeInversionAcrossSplitBatchesThrows) {
  // Each run is internally monotone, but the seam between two runs steps
  // backwards — the reassembled stream must be rejected just like an
  // in-run inversion would be.
  {
    net::ByteWriter body;
    body.varint(1 << 1 | 1);  // one round, another run follows
    body.varint(net::zigzag(500) << 1);
    body.varint(0);
    body.u32(1);
    body.u24(0);              // at +500 µs
    body.varint(1 << 1);      // one round, last run
    body.varint(net::zigzag(100) << 1);
    body.varint(0);
    body.u32(2);
    body.u24(0);              // at +100 µs
    body.varint(0);
    EXPECT_THROW((void)decode_entry(entry_around(body)), net::WireError);
  }
  // Aggregate runs opening at 300 µs, then 100 µs.
  {
    const auto agg = [](net::ByteWriter& w) {
      w.u32(1);
      w.u32(2);
      w.u32(3);
      w.u24(0);
      w.u24(10);
      w.u16(0);
      w.u16(0);
    };
    net::ByteWriter body;
    body.varint(0);
    body.varint(1 << 1 | 1);
    body.varint(net::zigzag(300) << 1);
    agg(body);
    body.varint(1 << 1);
    body.varint(net::zigzag(100) << 1);
    agg(body);
    EXPECT_THROW((void)decode_entry(entry_around(body)), net::WireError);
  }
}

// A fatal decode error part-way through a chunk must leave the sink with
// only the paths completed before it, each whole.
TEST_F(ChunkHostile, FatalErrorLeavesSinkWithWholePathsOnly) {
  auto payload = valid_chunk_payload();
  // Path 1's entry (the second item) ends with its last aggregate's
  // AggTrans window: the u16 "after" count, whose high byte sits 13 bytes
  // before the next item (two "before" ids and one "after" id follow it).
  // Flip that byte: the framing stays intact, so the error is fatal, not a
  // truncation.
  const std::vector<std::size_t> items = item_offsets(payload);
  payload[items[2] - 13] ^= std::byte{0xFF};

  dissem::ReceiptStore store;
  store.register_producer(1, 2);
  ASSERT_EQ(store.ingest(dissem::seal(1, 1, payload, 2)),
            dissem::IngestResult::kAccepted);
  const std::vector<net::PathId> table = test_table();
  const dissem::WireImporter importer(table);
  core::VectorSink sink;
  EXPECT_THROW(importer.import_into(store, 1, sink), net::WireError);
  const std::vector<core::IndexedPathDrain> got = std::move(sink).take();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].path, 0u);
  EXPECT_EQ(got[0].drain, valid_drain(table[0]));
}

// Every single-byte corruption of a whole chunk — headers, heads,
// lengths, bodies, closes and digests — either decodes or throws
// WireError, never over-reads (ASan) or overflows (UBSan).
TEST_F(ChunkHostile, SingleByteCorruptionOfAChunkNeverOverReads) {
  const auto payload = valid_chunk_payload();
  const dissem::WireImporter importer(test_table());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const std::byte flip : {std::byte{0xFF}, std::byte{0x80}}) {
      std::vector<std::byte> mutated = payload;
      mutated[i] ^= flip;
      core::NullSink sink;
      dissem::WireImporter::Session session(importer, sink);
      try {
        session.feed(mutated);
      } catch (const net::WireError&) {
      }
    }
  }
}

// A consumer holding another HOP's path table, or the producer's table
// permuted, resolves the entries' indices to the wrong paths; the round's
// digest exposes it at the first close, as a fatal error.
TEST_F(ChunkHostile, ForeignOrPermutedPathTableFailsAtTheRoundClose) {
  const auto payloads = export_stream(test_table(), 2, 64 * 1024);
  ASSERT_EQ(payloads.size(), 1u);
  std::vector<net::PathId> permuted = test_table();
  std::swap(permuted[0], permuted[2]);
  std::vector<net::PathId> other_hop = test_table();
  for (net::PathId& id : other_hop) id.previous_hop = 2;
  for (const std::vector<net::PathId>& table : {permuted, other_hop}) {
    const dissem::WireImporter importer(table);
    core::VectorSink sink;
    dissem::WireImporter::Session session(importer, sink);
    try {
      session.feed(payloads.front());
      ADD_FAILURE() << "a foreign table decoded the stream";
    } catch (const net::WireError& e) {
      EXPECT_FALSE(e.transient());
      EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos);
    }
    // The error fired at the first round's close.
    EXPECT_EQ(sink.stream().size(), test_table().size());
  }
}

// A resync walk discards entries without decoding them, but names each
// skipped path key once, ascending, however often the stream repeats it.
TEST(WireImporterSession, SkipWalkReportsEachKeyOnceAscending) {
  const std::vector<net::PathId> table = test_table();
  // 48 entries over 32 chunks of one open round — path 2 in every chunk,
  // path 0 in every other one — then the round close.
  const auto chunk = [&](bool with_path_0, bool close) {
    net::ByteWriter w;
    w.reserve(512);
    w.u8(dissem::kChunkTag);
    w.u32((with_path_0 ? 2 : 1) + (close ? 1 : 0));
    core::encode_round_header(kHeader, w);
    std::size_t next = 0;
    for (const std::size_t p : {std::size_t{0}, std::size_t{2}}) {
      if (p == 0 && !with_path_0) continue;
      const core::PathDrain d = valid_drain(table[p]);
      core::encode_entry(core::size_entry(p + 1 - next, d, kHeader), d,
                         kHeader, w);
      next = p + 1;
    }
    if (close) core::encode_round_close(0, w);
    return std::move(w).take();
  };

  const dissem::WireImporter importer(table);
  core::VectorSink sink;
  dissem::WireImporter::Session session(importer, sink);
  session.resync();
  for (int c = 0; c < 32; ++c) {
    session.feed(chunk(c % 2 == 0, c == 31));
    EXPECT_EQ(session.resyncing(), c != 31);
  }
  EXPECT_TRUE(session.at_round_boundary());
  std::vector<std::uint64_t> want = {table[0].path_key(),
                                     table[2].path_key()};
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
    for (int round = 0; round < 2; ++round) {
      exporter.on_drain(0, valid_drain(test_path(0x0A000000u)));
      exporter.on_drain(1, valid_drain(test_path(0x0B000000u)));
      exporter.end_round();
      exporter.flush();
    }
    exporter.finish();
    return envelopes;
  }

  std::vector<core::IndexedPathDrain> import_stream(
      const dissem::ReceiptStore& store) {
    const dissem::WireImporter importer(
        {test_path(0x0A000000u), test_path(0x0B000000u)});
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
  ASSERT_EQ(reference.size(), 4u);

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

// A table whose path at one index has another key than the producer's
// fails at the round close, and a chunk whose tag is not the receipt
// chunk's fails outright.
TEST(ReceiptWireHostile, DecodeRejectsWrongPathKeyAndTag) {
  const auto payloads = export_stream(test_table(), 1, 64 * 1024);
  ASSERT_EQ(payloads.size(), 1u);
  std::vector<net::PathId> wrong = test_table();
  wrong[1] = test_path(0x0D000000u);
  const dissem::WireImporter importer(wrong);
  core::NullSink sink;
  {
    dissem::WireImporter::Session session(importer, sink);
    EXPECT_THROW(session.feed(payloads.front()), net::WireError);
  }
  std::vector<std::byte> retagged = payloads.front();
  retagged[0] = std::byte{0x31};
  const dissem::WireImporter right(test_table());
  dissem::WireImporter::Session session(right, sink);
  EXPECT_THROW(session.feed(retagged), net::WireError);
}

}  // namespace
}  // namespace vpm
