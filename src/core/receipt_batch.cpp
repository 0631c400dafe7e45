#include "core/receipt_batch.hpp"

#include <limits>
#include <string>

namespace vpm::core {
namespace {

constexpr std::int64_t kMaxOffsetUs = 0xFFFFFF;  // 3-byte time span
constexpr std::int64_t kNsPerUs = 1000;
/// The latest epoch whose offsets cannot overflow a timestamp.
constexpr std::int64_t kMaxEpochNs =
    std::numeric_limits<std::int64_t>::max() - kMaxOffsetUs * kNsPerUs;
constexpr std::size_t kTransIdBytes = 4;
constexpr std::size_t kMaxTransIds = 0xFFFF;  // u16 window counts

[[noreturn]] void limit(const char* what) {
  throw WireLimitError(std::string{what} +
                       " outside the 16.7 s offset span of the receipt "
                       "wire; drain more often");
}

bool fits(net::Timestamp t, net::Timestamp epoch) noexcept {
  const std::int64_t us = (t - epoch).nanoseconds() / kNsPerUs;
  return us >= 0 && us <= kMaxOffsetUs;
}

std::uint32_t offset_us(net::Timestamp t, net::Timestamp epoch) noexcept {
  return static_cast<std::uint32_t>((t - epoch).nanoseconds() / kNsPerUs);
}

/// splitmix64's finaliser.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Counts what a ByteWriter would write: the sizing pass of the one body
/// coder below, so the size and the bytes cannot disagree.
struct ByteCounter {
  std::size_t n = 0;
  void u16(std::uint16_t) { n += 2; }
  void u24(std::uint32_t) { n += 3; }
  void u32(std::uint32_t) { n += 4; }
  void varint(std::uint64_t v) { n += net::varint_size(v); }
};

template <class Out>
void code_epoch(net::Timestamp epoch, net::Timestamp base, Out& out) {
  std::int64_t d = 0;
  if (__builtin_sub_overflow(epoch.nanoseconds(), base.nanoseconds(), &d)) {
    throw WireLimitError("receipt time too far from its round's base time");
  }
  std::int64_t us = d / kNsPerUs;
  std::int64_t ns = d % kNsPerUs;
  if (ns < 0) {
    --us;
    ns += kNsPerUs;
  }
  out.varint(net::zigzag(us) << 1 | (ns != 0 ? 1u : 0u));
  if (ns != 0) out.varint(static_cast<std::uint64_t>(ns));
}

net::Timestamp decode_epoch(net::ByteReader& in, net::Timestamp base) {
  const std::uint64_t v = in.varint();
  std::int64_t ns = 0;
  if ((v & 1) != 0) {
    const std::uint64_t rest = in.varint();
    if (rest == 0 || rest >= kNsPerUs) {
      throw net::WireError("malformed sub-microsecond epoch part");
    }
    ns = static_cast<std::int64_t>(rest);
  }
  std::int64_t d = 0;
  std::int64_t t = 0;
  if (__builtin_mul_overflow(net::unzigzag(v >> 1), kNsPerUs, &d) ||
      __builtin_add_overflow(d, ns, &d) ||
      __builtin_add_overflow(base.nanoseconds(), d, &t) || t > kMaxEpochNs) {
    throw net::WireError("entry epoch out of range");
  }
  return net::Timestamp{t};
}

/// Sample runs: maximal runs of whole sampling rounds whose times fit the
/// epoch of the run's first record.  Returns the runs past the first.
/// The records are already checked to be in time order and to end with a
/// marker.
template <class Out>
std::size_t code_samples(std::span<const SampleRecord> recs,
                         net::Timestamp base, Out& out) {
  std::size_t runs = 0;
  std::size_t begin = 0;
  do {
    std::size_t end = begin;
    std::uint64_t rounds = 0;
    if (begin < recs.size()) {
      const net::Timestamp epoch = recs[begin].time;
      for (std::size_t i = begin;
           i < recs.size() && fits(recs[i].time, epoch); ++i) {
        if (recs[i].is_marker) {
          end = i + 1;
          ++rounds;
        }
      }
      if (rounds == 0) limit("a sampling round's last record");
    }
    out.varint(rounds << 1 | (end < recs.size() ? 1u : 0u));
    if (rounds > 0) {
      const net::Timestamp epoch = recs[begin].time;
      code_epoch(epoch, base, out);
      std::size_t round_begin = begin;
      for (std::size_t i = begin; i < end; ++i) {
        if (!recs[i].is_marker) continue;
        out.varint(i - round_begin);
        for (std::size_t j = round_begin; j <= i; ++j) {
          out.u32(recs[j].pkt_id);
          out.u24(offset_us(recs[j].time, epoch));
        }
        round_begin = i + 1;
      }
    }
    begin = end;
    ++runs;
  } while (begin < recs.size());
  return runs - 1;
}

/// Aggregate runs, split like the sample runs; already checked to be in
/// open order and each to close no earlier than it opens.
template <class Out>
std::size_t code_aggregates(std::span<const AggregateReceipt> aggs,
                            net::Timestamp base, Out& out) {
  std::size_t runs = 0;
  std::size_t begin = 0;
  do {
    std::size_t end = begin;
    if (begin < aggs.size()) {
      const net::Timestamp epoch = aggs[begin].opened_at;
      while (end < aggs.size() && fits(aggs[end].opened_at, epoch) &&
             fits(aggs[end].closed_at, epoch)) {
        ++end;
      }
      if (end == begin) limit("aggregate close time");
    }
    out.varint(std::uint64_t{end - begin} << 1 |
               (end < aggs.size() ? 1u : 0u));
    if (end > begin) {
      const net::Timestamp epoch = aggs[begin].opened_at;
      code_epoch(epoch, base, out);
      for (std::size_t i = begin; i < end; ++i) {
        const AggregateReceipt& r = aggs[i];
        out.u32(r.agg.first);
        out.u32(r.agg.last);
        out.u32(r.packet_count);
        out.u24(offset_us(r.opened_at, epoch));
        out.u24(offset_us(r.closed_at, epoch));
        out.u16(static_cast<std::uint16_t>(r.trans.before.size()));
        out.u16(static_cast<std::uint16_t>(r.trans.after.size()));
        for (const net::PacketDigest id : r.trans.before) out.u32(id);
        for (const net::PacketDigest id : r.trans.after) out.u32(id);
      }
    }
    begin = end;
    ++runs;
  } while (begin < aggs.size());
  return runs - 1;
}

bool overrides(const PathDrain& d, const RoundHeader& h) noexcept {
  return d.samples.sample_threshold != h.sample_threshold ||
         d.samples.marker_threshold != h.marker_threshold;
}

/// The body of a non-idle entry; returns its epoch splits.
template <class Out>
std::size_t code_body(const PathDrain& d, const RoundHeader& h, Out& out) {
  if (overrides(d, h)) {
    out.u32(d.samples.sample_threshold);
    out.u32(d.samples.marker_threshold);
  }
  return code_samples(d.samples.samples, h.base, out) +
         code_aggregates(d.aggregates, h.base, out);
}

/// Rejects what no collector emits, and AggTrans windows the u16 counts
/// cannot carry.
void check_entry(const PathDrain& d) {
  const std::span<const SampleRecord> recs(d.samples.samples);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    if (recs[i].time < recs[i - 1].time) {
      throw std::invalid_argument("sample times not in observation order");
    }
  }
  if (!recs.empty() && !recs.back().is_marker) {
    throw std::invalid_argument(
        "sample receipt must end with a marker round (Algorithm 1 only "
        "emits samples when a marker arrives)");
  }
  for (std::size_t i = 0; i < d.aggregates.size(); ++i) {
    const AggregateReceipt& r = d.aggregates[i];
    if (r.closed_at < r.opened_at) {
      throw std::invalid_argument("aggregate closes before it opens");
    }
    if (i > 0 && r.opened_at < d.aggregates[i - 1].opened_at) {
      throw std::invalid_argument("aggregate receipts not in open order");
    }
    if (r.trans.before.size() > kMaxTransIds ||
        r.trans.after.size() > kMaxTransIds) {
      throw WireLimitError(
          "AggTrans window of more than 65 535 ids on one side");
    }
  }
}

bool idle(const PathDrain& d, const RoundHeader& h) noexcept {
  return d.samples.samples.empty() && d.aggregates.empty() &&
         !overrides(d, h);
}

void decode_samples(net::ByteReader& in, net::Timestamp base,
                    std::vector<SampleRecord>& out) {
  // Every record takes 7 bytes, so the body bounds the reservation.
  out.reserve(in.remaining() / kSampleRecordBytes);
  for (bool more = true; more;) {
    const std::uint64_t v = in.varint();
    const std::uint64_t rounds = v >> 1;
    more = (v & 1) != 0;
    if (rounds == 0) {
      if (more) throw net::WireError("empty sample run");
      break;
    }
    const net::Timestamp epoch = decode_epoch(in, base);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      const std::uint64_t followers = in.varint();
      if (followers >= in.remaining() / kSampleRecordBytes) {
        throw net::WireError("sampling round longer than its entry");
      }
      for (std::uint64_t i = 0; i <= followers; ++i) {
        SampleRecord s;
        s.pkt_id = in.u32();
        s.time = epoch + net::microseconds(in.u24());
        s.is_marker = i == followers;
        // Receipts cross trust boundaries: a reporter's stream is in
        // observation order, within a run and across runs.
        if (!out.empty() && s.time < out.back().time) {
          throw net::WireError("sample times not in observation order");
        }
        out.push_back(s);
      }
    }
  }
}

void decode_aggregates(net::ByteReader& in, const net::PathId& path,
                       net::Timestamp base,
                       std::vector<AggregateReceipt>& out) {
  for (bool more = true; more;) {
    const std::uint64_t v = in.varint();
    const std::uint64_t count = v >> 1;
    more = (v & 1) != 0;
    if (count == 0) {
      if (more) throw net::WireError("empty aggregate run");
      break;
    }
    const net::Timestamp epoch = decode_epoch(in, base);
    if (count > in.remaining() / kAggregateRecordBytes) {
      throw net::WireError("aggregate run longer than its entry");
    }
    out.reserve(out.size() + count);
    for (std::uint64_t k = 0; k < count; ++k) {
      AggregateReceipt r;
      r.path = path;
      r.agg.first = in.u32();
      r.agg.last = in.u32();
      r.packet_count = in.u32();
      r.opened_at = epoch + net::microseconds(in.u24());
      r.closed_at = epoch + net::microseconds(in.u24());
      // Consecutive aggregates from one HOP open in order and close no
      // earlier than they open; inversions would corrupt the verifier's
      // aggregate join.
      if (r.closed_at < r.opened_at) {
        throw net::WireError("aggregate closes before it opens");
      }
      if (!out.empty() && r.opened_at < out.back().opened_at) {
        throw net::WireError("aggregate receipts not in open order");
      }
      const std::uint16_t n_before = in.u16();
      const std::uint16_t n_after = in.u16();
      in.expect_at_least((std::size_t{n_before} + n_after) * kTransIdBytes);
      r.trans.before.reserve(n_before);
      for (std::uint16_t j = 0; j < n_before; ++j) {
        r.trans.before.push_back(in.u32());
      }
      r.trans.after.reserve(n_after);
      for (std::uint16_t j = 0; j < n_after; ++j) {
        r.trans.after.push_back(in.u32());
      }
      out.push_back(std::move(r));
    }
  }
}

}  // namespace

void encode_round_header(const RoundHeader& h, net::ByteWriter& out) {
  out.u32(h.sample_threshold);
  out.u32(h.marker_threshold);
  out.i64(h.base.nanoseconds());
}

RoundHeader decode_round_header(net::ByteReader& in) {
  RoundHeader h;
  h.sample_threshold = in.u32();
  h.marker_threshold = in.u32();
  h.base = net::Timestamp{in.i64()};
  return h;
}

void encode_round_close(std::uint64_t digest, net::ByteWriter& out) {
  out.varint(0);
  out.u64(digest);
}

std::uint64_t path_identity(const net::PathId& id) noexcept {
  const std::uint64_t hops =
      std::uint64_t{id.previous_hop} << 32 | id.next_hop;
  return mix64(id.path_key() ^
               mix64(hops ^ mix64(static_cast<std::uint64_t>(
                                id.max_diff.nanoseconds()))));
}

std::uint64_t fold_round_digest(std::uint64_t digest, std::size_t index,
                                std::uint64_t identity) noexcept {
  return mix64(digest ^ (identity + 0x9E3779B97F4A7C15ull *
                                        (std::uint64_t{index} + 1)));
}

SizedEntry size_entry(std::size_t step, const PathDrain& d,
                      const RoundHeader& h) {
  if (step == 0 || step >= (std::size_t{1} << 63)) {
    throw std::invalid_argument("entry index step outside [1, 2^63)");
  }
  check_entry(d);
  SizedEntry e;
  e.head = std::uint64_t{step} << 1 | (overrides(d, h) ? 1u : 0u);
  if (!idle(d, h)) {
    ByteCounter count;
    e.epoch_splits = code_body(d, h, count);
    e.body_bytes = count.n;
  }
  return e;
}

void encode_entry(const SizedEntry& e, const PathDrain& d,
                  const RoundHeader& h, net::ByteWriter& out) {
  out.varint(e.head);
  out.varint(e.body_bytes);
  if (e.body_bytes > 0) (void)code_body(d, h, out);
}

Item read_item(net::ByteReader& in) {
  Item item;
  const std::uint64_t head = in.varint();
  if (head == 0) {
    item.close = true;
    item.digest = in.u64();
    return item;
  }
  item.step = head >> 1;
  item.override_thresholds = (head & 1) != 0;
  if (item.step == 0) throw net::WireError("entry with a zero index step");
  item.body = in.bytes(static_cast<std::size_t>(in.varint()));
  return item;
}

PathDrain decode_entry(const Item& item, const net::PathId& path,
                       const RoundHeader& h) {
  PathDrain d;
  d.samples.path = path;
  d.samples.sample_threshold = h.sample_threshold;
  d.samples.marker_threshold = h.marker_threshold;
  if (item.body.empty()) {
    if (item.override_thresholds) {
      throw net::WireError("threshold override without a body");
    }
    return d;
  }
  net::ByteReader in(item.body);
  if (item.override_thresholds) {
    d.samples.sample_threshold = in.u32();
    d.samples.marker_threshold = in.u32();
  }
  decode_samples(in, h.base, d.samples.samples);
  decode_aggregates(in, path, h.base, d.aggregates);
  if (!in.done()) throw net::WireError("entry length does not match its body");
  return d;
}

}  // namespace vpm::core
