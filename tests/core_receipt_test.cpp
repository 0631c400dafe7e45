// Tests for receipts: combination operators (Section 4) and the wire
// entries whose marginal sizes drive the §7.1 bandwidth accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/receipt.hpp"
#include "core/receipt_batch.hpp"

namespace vpm::core {
namespace {

net::PathId test_path() {
  net::PathId p;
  p.prefixes = net::PrefixPair{net::Prefix::parse("10.1.0.0/16"),
                               net::Prefix::parse("172.16.0.0/16")};
  p.previous_hop = 4;
  p.next_hop = 6;
  p.max_diff = net::milliseconds(5);
  return p;
}

SampleReceipt sample_receipt(std::initializer_list<int> round_sizes) {
  SampleReceipt r;
  r.path = test_path();
  r.sample_threshold = 123456;
  r.marker_threshold = 654321;
  std::uint32_t id = 100;
  net::Timestamp t{1'000'000};
  for (const int followers : round_sizes) {
    for (int i = 0; i < followers; ++i) {
      r.samples.push_back(SampleRecord{id++, t, false});
      t += net::microseconds(250);
    }
    r.samples.push_back(SampleRecord{id++, t, true});
    t += net::microseconds(250);
  }
  return r;
}

AggregateReceipt agg_receipt(std::uint32_t first, std::uint32_t last,
                             std::uint32_t count, std::int64_t open_us,
                             std::int64_t close_us) {
  AggregateReceipt r;
  r.path = test_path();
  r.agg = AggId{first, last};
  r.packet_count = count;
  r.opened_at = net::Timestamp{open_us * 1000};
  r.closed_at = net::Timestamp{close_us * 1000};
  return r;
}

// ------------------------------------------------------------ Combination

TEST(ReceiptCombination, SamplesUnionInTimeOrder) {
  SampleReceipt a = sample_receipt({2});
  SampleReceipt b = sample_receipt({1});
  for (SampleRecord& s : b.samples) s.time += net::milliseconds(10);
  const SampleReceipt receipts[] = {b, a};  // deliberately out of order
  const SampleReceipt combined = combine_samples(receipts);
  EXPECT_EQ(combined.samples.size(), a.samples.size() + b.samples.size());
  for (std::size_t i = 1; i < combined.samples.size(); ++i) {
    EXPECT_LE(combined.samples[i - 1].time, combined.samples[i].time);
  }
}

TEST(ReceiptCombination, SamplesRejectMixedPathsOrThresholds) {
  SampleReceipt a = sample_receipt({1});
  SampleReceipt b = a;
  b.path.max_diff = net::milliseconds(99);
  const SampleReceipt mixed_path[] = {a, b};
  EXPECT_THROW((void)combine_samples(mixed_path), std::invalid_argument);
  SampleReceipt c = a;
  c.sample_threshold += 1;
  const SampleReceipt mixed_thresh[] = {a, c};
  EXPECT_THROW((void)combine_samples(mixed_thresh), std::invalid_argument);
  EXPECT_THROW((void)combine_samples({}), std::invalid_argument);
}

TEST(ReceiptCombination, AggregatesSumCountsAndSpanIds) {
  const AggregateReceipt rs[] = {
      agg_receipt(11, 19, 1000, 0, 900),
      agg_receipt(20, 29, 2000, 901, 1900),
      agg_receipt(30, 39, 500, 1901, 2500),
  };
  const AggregateReceipt combined = combine_aggregates(rs);
  EXPECT_EQ(combined.agg.first, 11u);
  EXPECT_EQ(combined.agg.last, 39u);
  EXPECT_EQ(combined.packet_count, 3500u);
  EXPECT_EQ(combined.opened_at, rs[0].opened_at);
  EXPECT_EQ(combined.closed_at, rs[2].closed_at);
}

TEST(ReceiptCombination, AggregatesRejectEmptyAndMixedPaths) {
  EXPECT_THROW((void)combine_aggregates({}), std::invalid_argument);
  AggregateReceipt a = agg_receipt(1, 2, 10, 0, 10);
  AggregateReceipt b = a;
  b.path.next_hop = 99;
  const AggregateReceipt mixed[] = {a, b};
  EXPECT_THROW((void)combine_aggregates(mixed), std::invalid_argument);
}

// ------------------------------------------------------------ Wire entries

RoundHeader header_for(const SampleReceipt& r) {
  return RoundHeader{.sample_threshold = r.sample_threshold,
                     .marker_threshold = r.marker_threshold,
                     .base = net::Timestamp{1'000'000}};
}

PathDrain drain_of(SampleReceipt samples,
                   std::vector<AggregateReceipt> aggregates = {}) {
  return PathDrain{.samples = std::move(samples),
                   .aggregates = std::move(aggregates)};
}

std::size_t entry_bytes(const PathDrain& d) {
  return size_entry(1, d, header_for(d.samples)).bytes();
}

/// Encodes `d` as a segment's first entry and decodes it back.
PathDrain round_trip(const PathDrain& d, const RoundHeader& h) {
  const SizedEntry e = size_entry(1, d, h);
  net::ByteWriter w;
  encode_entry(e, d, h, w);
  EXPECT_EQ(w.size(), e.bytes());
  net::ByteReader reader(w.view());
  const Item item = read_item(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_FALSE(item.close);
  EXPECT_EQ(item.step, 1u);
  return decode_entry(item, d.samples.path, h);
}

TEST(ReceiptBatch, SampleBatchRoundTrips) {
  const PathDrain d = drain_of(sample_receipt({3, 0, 7, 1}));
  EXPECT_EQ(round_trip(d, header_for(d.samples)), d);
  // A path whose thresholds differ from the round header's carries its
  // own, and only that path pays for them.
  RoundHeader other = header_for(d.samples);
  other.sample_threshold += 1;
  EXPECT_EQ(round_trip(d, other), d);
  EXPECT_EQ(size_entry(1, d, other).bytes(), entry_bytes(d) + 8);
}

TEST(ReceiptBatch, SampleMarginalCostIsSevenBytes) {
  // The paper's 7 B per record (4 B PktID + 3 B time): adding one
  // follower to a round grows the entry by exactly 7 bytes.
  const std::size_t small = entry_bytes(drain_of(sample_receipt({3})));
  const std::size_t bigger = entry_bytes(drain_of(sample_receipt({4})));
  EXPECT_EQ(bigger - small, kSampleRecordBytes);
}

TEST(ReceiptBatch, SampleBatchRejectsTrailingNonMarkers) {
  SampleReceipt r = sample_receipt({2});
  r.samples.push_back(SampleRecord{999, r.samples.back().time, false});
  const PathDrain d = drain_of(r);
  try {
    (void)size_entry(1, d, header_for(r));
    ADD_FAILURE() << "a trailing round without its marker must throw";
  } catch (const WireLimitError&) {
    ADD_FAILURE() << "a malformed receipt is not a program limit";
  } catch (const std::invalid_argument&) {
  }
}

TEST(ReceiptBatch, AggregateBatchRoundTrips) {
  std::vector<AggregateReceipt> rs = {
      agg_receipt(11, 19, 1000, 0, 900),
      agg_receipt(20, 29, 2000, 901, 1900),
  };
  rs[0].trans.before = {7, 8};
  rs[0].trans.after = {20, 21};
  SampleReceipt idle = sample_receipt({});
  const PathDrain d = drain_of(idle, rs);
  EXPECT_EQ(round_trip(d, header_for(idle)), d);
  const PathDrain with_samples = drain_of(sample_receipt({2, 1}), rs);
  EXPECT_EQ(round_trip(with_samples, header_for(with_samples.samples)),
            with_samples);
}

TEST(ReceiptBatch, AggregateMarginalCostIs22Bytes) {
  // The paper quotes 22-byte receipts; the entry layout lands on exactly
  // that marginal size for a basic (no-AggTrans) aggregate receipt.
  std::vector<AggregateReceipt> two = {
      agg_receipt(11, 19, 1000, 0, 900),
      agg_receipt(20, 29, 2000, 901, 1900),
  };
  std::vector<AggregateReceipt> three = two;
  three.push_back(agg_receipt(30, 39, 500, 1901, 2500));
  const SampleReceipt samples = sample_receipt({1});
  EXPECT_EQ(entry_bytes(drain_of(samples, three)) -
                entry_bytes(drain_of(samples, two)),
            kAggregateRecordBytes);
}

TEST(ReceiptBatch, RejectsOverlongSpan) {
  // One sampling round longer than the 16.7 s offset span cannot be
  // split: a program limit, not a malformed receipt.
  SampleReceipt r = sample_receipt({1});
  r.samples.back().time += net::seconds(20);
  EXPECT_THROW((void)size_entry(1, drain_of(r), header_for(r)),
               WireLimitError);
  // An aggregate open for longer likewise.
  const std::vector<AggregateReceipt> long_agg = {
      agg_receipt(1, 2, 10, 0, 20'000'000)};
  EXPECT_THROW((void)size_entry(1, drain_of(sample_receipt({}), long_agg),
                                header_for(r)),
               WireLimitError);
  // Rounds 5 s apart span it together, and split into runs instead.
  SampleReceipt spread = sample_receipt({1, 1, 1, 1, 1});
  for (std::size_t i = 0; i < spread.samples.size(); ++i) {
    const auto round = static_cast<std::int64_t>(i / 2);
    spread.samples[i].time += net::seconds(5 * round);
  }
  const SizedEntry e = size_entry(1, drain_of(spread), header_for(spread));
  EXPECT_EQ(e.epoch_splits, 1u);
  EXPECT_EQ(round_trip(drain_of(spread), header_for(spread)), drain_of(spread));
}

TEST(ReceiptBatch, RejectsEmptyAggregateBatch) {
  // A run of zero aggregates that claims another run follows: no encoder
  // writes it, so the decoder rejects it.
  const SampleReceipt idle = sample_receipt({});
  net::ByteWriter body;
  body.varint(0);  // no sample runs
  body.varint(1);  // an empty aggregate run, "more" set
  body.varint(0);
  net::ByteWriter w;
  w.varint(1 << 1);
  w.varint(body.size());
  w.bytes(body.view());
  net::ByteReader reader(w.view());
  const Item item = read_item(reader);
  EXPECT_THROW((void)decode_entry(item, idle.path, header_for(idle)),
               net::WireError);
}

}  // namespace
}  // namespace vpm::core
