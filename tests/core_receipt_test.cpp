// Tests for receipts: combination operators (Section 4) and the batched
// dissemination format whose marginal sizes drive the §7.1 bandwidth
// accounting.
#include <gtest/gtest.h>

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

// ------------------------------------------------------------ Batch format

TEST(ReceiptBatch, SampleBatchRoundTrips) {
  const SampleReceipt r = sample_receipt({3, 0, 7, 1});
  net::ByteWriter w;
  encode_sample_batch(r, r.samples, r.path.path_key(), w);
  net::ByteReader reader(w.view());
  const SampleReceipt back =
      decode_sample_batch(reader, r.path, r.path.path_key());
  EXPECT_EQ(back.samples, r.samples);
  EXPECT_EQ(back.sample_threshold, r.sample_threshold);
  EXPECT_TRUE(reader.done());
}

TEST(ReceiptBatch, SampleMarginalCostIsSevenBytes) {
  // The paper's 7 B per record (4 B PktID + 3 B time): adding one
  // follower to a round grows the batch by exactly 7 bytes.
  const std::size_t small = sample_batch_size(sample_receipt({3}).samples);
  const std::size_t bigger = sample_batch_size(sample_receipt({4}).samples);
  EXPECT_EQ(bigger - small, kSampleRecordBytes);
}

TEST(ReceiptBatch, SampleBatchRejectsTrailingNonMarkers) {
  SampleReceipt r = sample_receipt({2});
  r.samples.push_back(SampleRecord{999, r.samples.back().time, false});
  net::ByteWriter w;
  EXPECT_THROW(encode_sample_batch(r, r.samples, r.path.path_key(), w),
               std::invalid_argument);
  EXPECT_EQ(w.size(), 0u) << "a rejected batch writes nothing";
}

TEST(ReceiptBatch, AggregateBatchRoundTrips) {
  std::vector<AggregateReceipt> rs = {
      agg_receipt(11, 19, 1000, 0, 900),
      agg_receipt(20, 29, 2000, 901, 1900),
  };
  rs[0].trans.before = {7, 8};
  rs[0].trans.after = {20, 21};
  net::ByteWriter w;
  encode_aggregate_batch(rs, rs[0].path.path_key(), w);
  net::ByteReader reader(w.view());
  const auto back =
      decode_aggregate_batch(reader, rs[0].path, rs[0].path.path_key());
  ASSERT_EQ(back.size(), rs.size());
  EXPECT_EQ(back[0], rs[0]);
  EXPECT_EQ(back[1], rs[1]);
}

TEST(ReceiptBatch, AggregateMarginalCostIs22Bytes) {
  // The paper quotes 22-byte receipts; our batch format lands on exactly
  // that marginal size for a basic (no-AggTrans) aggregate receipt.
  std::vector<AggregateReceipt> two = {
      agg_receipt(11, 19, 1000, 0, 900),
      agg_receipt(20, 29, 2000, 901, 1900),
  };
  std::vector<AggregateReceipt> three = two;
  three.push_back(agg_receipt(30, 39, 500, 1901, 2500));
  EXPECT_EQ(aggregate_batch_size(three) - aggregate_batch_size(two),
            kAggregateRecordBytes);
}

TEST(ReceiptBatch, RejectsOverlongSpan) {
  SampleReceipt r = sample_receipt({1});
  r.samples.back().time += net::seconds(20);  // beyond the 16.7 s u24 span
  net::ByteWriter w;
  EXPECT_THROW(encode_sample_batch(r, r.samples, r.path.path_key(), w),
               std::invalid_argument);
}

TEST(ReceiptBatch, RejectsEmptyAggregateBatch) {
  net::ByteWriter w;
  EXPECT_THROW(encode_aggregate_batch({}, 0, w), std::invalid_argument);
}

}  // namespace
}  // namespace vpm::core
