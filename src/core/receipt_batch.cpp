#include "core/receipt_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vpm::core {
namespace {

constexpr std::uint8_t kSampleBatchTag = 0x11;
constexpr std::uint8_t kAggregateBatchTag = 0x12;
constexpr std::int64_t kMaxOffsetUs = 0xFFFFFF;  // 3-byte time span
/// tag + path key + both thresholds + epoch + round count.
constexpr std::size_t kSampleHeaderBytes = 1 + 8 + 4 + 4 + 8 + 4;
/// tag + path key + epoch + receipt count.
constexpr std::size_t kAggregateHeaderBytes = 1 + 8 + 8 + 4;
constexpr std::size_t kRoundHeaderBytes = 2;  ///< u16 follower count
constexpr std::size_t kTransIdBytes = 4;

std::uint32_t offset_us(net::Timestamp t, net::Timestamp epoch,
                        const char* what) {
  const std::int64_t us = (t - epoch).nanoseconds() / 1000;
  if (us < 0 || us > kMaxOffsetUs) {
    throw std::invalid_argument(std::string{what} +
                                " outside the batch's 16.7 s span; flush "
                                "batches more often");
  }
  return static_cast<std::uint32_t>(us);
}

net::Timestamp epoch_of(std::span<const SampleRecord> samples) {
  return samples.empty() ? net::Timestamp{} : samples.front().time;
}

/// Checks `samples` as the records of one batch and returns its sampling
/// round count: every time fits the epoch range, every round fits its u16
/// follower count, and the last record is a marker.
std::size_t checked_rounds(std::span<const SampleRecord> samples) {
  const net::Timestamp epoch = epoch_of(samples);
  std::size_t rounds = 0;
  std::size_t round_begin = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (void)offset_us(samples[i].time, epoch, "sample time");
    if (!samples[i].is_marker) continue;
    if (i - round_begin > 0xFFFF) {
      throw std::invalid_argument("sampling round too large for batch");
    }
    ++rounds;
    round_begin = i + 1;
  }
  if (round_begin != samples.size()) {
    throw std::invalid_argument(
        "sample batch must end with a marker round (Algorithm 1 only emits "
        "samples when a marker arrives)");
  }
  return rounds;
}

/// Checks `rs` as one aggregate batch and returns its encoded size.
std::size_t checked_aggregate_size(std::span<const AggregateReceipt> rs) {
  if (rs.empty()) {
    throw std::invalid_argument("empty aggregate batch");
  }
  const net::Timestamp epoch = rs.front().opened_at;
  std::size_t bytes = kAggregateHeaderBytes;
  for (const AggregateReceipt& r : rs) {
    if (!(r.path == rs.front().path)) {
      throw std::invalid_argument("aggregate batch mixes paths");
    }
    if (r.trans.before.size() > 0xFFFF || r.trans.after.size() > 0xFFFF) {
      throw std::invalid_argument("AggTrans window too large for batch");
    }
    (void)offset_us(r.opened_at, epoch, "aggregate open time");
    (void)offset_us(r.closed_at, epoch, "aggregate close time");
    bytes += kAggregateRecordBytes +
             kTransIdBytes * (r.trans.before.size() + r.trans.after.size());
  }
  return bytes;
}

}  // namespace

void encode_sample_batch(const SampleReceipt& r,
                         std::span<const SampleRecord> samples,
                         std::uint64_t path_key, net::ByteWriter& out) {
  // One pass checks and counts the rounds, so a rejected batch writes
  // nothing; the second writes each round after its follower count.
  const std::size_t rounds = checked_rounds(samples);
  const net::Timestamp epoch = epoch_of(samples);
  out.u8(kSampleBatchTag);
  out.u64(path_key);
  out.u32(r.sample_threshold);
  out.u32(r.marker_threshold);
  out.i64(epoch.nanoseconds());
  out.u32(static_cast<std::uint32_t>(rounds));
  std::size_t round_begin = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].is_marker) continue;
    out.u16(static_cast<std::uint16_t>(i - round_begin));
    for (std::size_t j = round_begin; j <= i; ++j) {
      out.u32(samples[j].pkt_id);
      out.u24(offset_us(samples[j].time, epoch, "sample time"));
    }
    round_begin = i + 1;
  }
}

SampleReceipt decode_sample_batch(net::ByteReader& in,
                                  const net::PathId& path,
                                  std::uint64_t path_key) {
  if (in.u8() != kSampleBatchTag) {
    throw net::WireError("expected sample batch tag");
  }
  if (in.u64() != path_key) {
    throw net::WireError("sample batch path key mismatch");
  }
  SampleReceipt r;
  r.path = path;
  r.sample_threshold = in.u32();
  r.marker_threshold = in.u32();
  const net::Timestamp epoch{in.i64()};
  const std::uint32_t round_count = in.u32();
  // Every round is a u16 count and its 7-byte records, so the records fit
  // in what the input has left: reserve that, never what a hostile count
  // claims.
  const std::size_t framing = std::min<std::size_t>(
      in.remaining(), kRoundHeaderBytes * std::size_t{round_count});
  r.samples.reserve((in.remaining() - framing) / kSampleRecordBytes);
  for (std::uint32_t round = 0; round < round_count; ++round) {
    const std::uint16_t followers = in.u16();
    in.expect_at_least((static_cast<std::size_t>(followers) + 1) *
                       kSampleRecordBytes);
    for (std::uint32_t i = 0; i <= followers; ++i) {
      SampleRecord s;
      s.pkt_id = in.u32();
      s.time = epoch + net::microseconds(in.u24());
      s.is_marker = (i == followers);
      // Receipts cross trust boundaries: a reporter's emitted stream is in
      // observation order, so reject time inversions here instead of
      // letting them corrupt downstream merges/joins.
      if (!r.samples.empty() && s.time < r.samples.back().time) {
        throw net::WireError("sample batch times not in observation order");
      }
      r.samples.push_back(s);
    }
  }
  return r;
}

void encode_aggregate_batch(std::span<const AggregateReceipt> rs,
                            std::uint64_t path_key, net::ByteWriter& out) {
  (void)checked_aggregate_size(rs);
  const net::Timestamp epoch = rs.front().opened_at;
  out.u8(kAggregateBatchTag);
  out.u64(path_key);
  out.i64(epoch.nanoseconds());
  out.u32(static_cast<std::uint32_t>(rs.size()));
  for (const AggregateReceipt& r : rs) {
    out.u32(r.agg.first);
    out.u32(r.agg.last);
    out.u32(r.packet_count);
    out.u24(offset_us(r.opened_at, epoch, "aggregate open time"));
    out.u24(offset_us(r.closed_at, epoch, "aggregate close time"));
    out.u16(static_cast<std::uint16_t>(r.trans.before.size()));
    out.u16(static_cast<std::uint16_t>(r.trans.after.size()));
    for (const net::PacketDigest id : r.trans.before) out.u32(id);
    for (const net::PacketDigest id : r.trans.after) out.u32(id);
  }
}

std::vector<AggregateReceipt> decode_aggregate_batch(net::ByteReader& in,
                                                     const net::PathId& path,
                                                     std::uint64_t path_key) {
  if (in.u8() != kAggregateBatchTag) {
    throw net::WireError("expected aggregate batch tag");
  }
  if (in.u64() != path_key) {
    throw net::WireError("aggregate batch path key mismatch");
  }
  const net::Timestamp epoch{in.i64()};
  const std::uint32_t count = in.u32();
  std::vector<AggregateReceipt> out;
  out.reserve(std::min<std::size_t>(count,
                                    in.remaining() / kAggregateRecordBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    AggregateReceipt r;
    r.path = path;
    r.agg.first = in.u32();
    r.agg.last = in.u32();
    r.packet_count = in.u32();
    r.opened_at = epoch + net::microseconds(in.u24());
    r.closed_at = epoch + net::microseconds(in.u24());
    // Consecutive aggregates from one HOP open in order and close no
    // earlier than they open; hostile inversions would corrupt the
    // dissemination merge and the verifier's aggregate join.
    if (r.closed_at < r.opened_at) {
      throw net::WireError("aggregate batch closes before it opens");
    }
    if (!out.empty() && r.opened_at < out.back().opened_at) {
      throw net::WireError("aggregate batch receipts not in open order");
    }
    const std::uint16_t n_before = in.u16();
    const std::uint16_t n_after = in.u16();
    in.expect_at_least((static_cast<std::size_t>(n_before) + n_after) * 4);
    r.trans.before.reserve(n_before);
    for (std::uint16_t k = 0; k < n_before; ++k) {
      r.trans.before.push_back(in.u32());
    }
    r.trans.after.reserve(n_after);
    for (std::uint16_t k = 0; k < n_after; ++k) {
      r.trans.after.push_back(in.u32());
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::size_t sample_batch_size(std::span<const SampleRecord> samples) {
  return kSampleHeaderBytes + kRoundHeaderBytes * checked_rounds(samples) +
         kSampleRecordBytes * samples.size();
}

std::size_t aggregate_batch_size(std::span<const AggregateReceipt> rs) {
  return checked_aggregate_size(rs);
}

}  // namespace vpm::core
