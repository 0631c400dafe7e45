// The receipt wire layout: one header per HOP-round, then one self-framing
// entry per drained path (§7.1's bandwidth arithmetic).
//
// A reporting round of one HOP ships as one segment per chunk it spans
// (dissem/wire_exporter cuts the chunks; no entry straddles two):
//
//   segment := header item...      items run to a round close or to the
//                                  chunk's last item
//   header  := u32 sample threshold, u32 marker threshold, i64 base time ns
//   item    := varint 0, u64 digest                          round close
//            | varint (step << 1 | override), varint n, body[n]   entry
//
// An entry names its path by index into the path table both sides hold:
// `step` is the index minus the previous entry's in the segment (the first
// entry of a segment carries index + 1), so indices ascend within a round
// and every chunk decodes on its own.  A round close carries a 64-bit
// digest of the (index, path identity) pairs the round shipped, which a
// consumer holding another table cannot reproduce.
//
// An entry's body is empty for an idle path whose thresholds are the
// header's.  Otherwise:
//
//   [u32 sample threshold, u32 marker threshold]   only when override is set
//   sample runs:    varint (rounds << 1 | more), then, when rounds > 0, an
//                   epoch and per sampling round varint followers and
//                   (followers + 1) x {u32 PktID, u24 µs offset}
//   aggregate runs: varint (count << 1 | more), then, when count > 0, an
//                   epoch and count x {u32 first, u32 last, u32 packets,
//                   u24 open, u24 close, u16 before, u16 after, u32 ids...}
//   epoch := varint (zigzag((epoch - base) / 1 µs) << 1 | has_ns),
//            [varint (epoch - base) mod 1 µs in ns, when has_ns]
//
// Records stay the paper's sizes: 7 B per sample record (4 B PktID + 3 B
// time) and 22 B per aggregate receipt plus 4 B per AggTrans id.  Marker
// records carry no flag: each sampling round is [followers..., marker], so
// marker-ness is positional.  The 3-byte times are microsecond offsets
// from their run's epoch, so a run spans at most ~16.7 s; the encoder
// starts a new run at the first round or aggregate past that span.
#ifndef VPM_CORE_RECEIPT_BATCH_HPP
#define VPM_CORE_RECEIPT_BATCH_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/receipt.hpp"
#include "net/wire.hpp"

namespace vpm::core {

/// A receipt the caller built correctly but the wire layout cannot
/// represent: a sampling round or an aggregate longer than the 16.7 s
/// offset span, an AggTrans window of more than 65 535 ids, or a path
/// index past 2^62.  Derives from std::invalid_argument, so callers that
/// catch that still do; a caller that tells the two apart can report a
/// program limit rather than a bad input.
class WireLimitError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The fields every entry of a segment is coded against.
struct RoundHeader {
  std::uint32_t sample_threshold = 0;
  std::uint32_t marker_threshold = 0;
  net::Timestamp base;  ///< entry epochs are deltas from this time
  friend bool operator==(const RoundHeader&, const RoundHeader&) = default;
};

inline constexpr std::size_t kRoundHeaderBytes = 4 + 4 + 8;
/// The close item: a zero head and the round digest.
inline constexpr std::size_t kRoundCloseBytes = 1 + 8;
/// The marginal per-record / per-receipt costs of the layout.
inline constexpr std::size_t kSampleRecordBytes = 7;
inline constexpr std::size_t kAggregateRecordBytes = 22;
/// A round's digest before its first entry.
inline constexpr std::uint64_t kRoundDigestSeed = 0x56504D526F756E64ull;

void encode_round_header(const RoundHeader& h, net::ByteWriter& out);
[[nodiscard]] RoundHeader decode_round_header(net::ByteReader& in);
void encode_round_close(std::uint64_t digest, net::ByteWriter& out);

/// What a round digest folds for a shipped path: its key and the fields
/// the key leaves out (the HOPs either side and max_diff), so a table
/// built for another HOP fails as surely as a permuted one.
[[nodiscard]] std::uint64_t path_identity(const net::PathId& id) noexcept;
/// Folds one shipped (index, path identity) pair into a round's digest.
[[nodiscard]] std::uint64_t fold_round_digest(std::uint64_t digest,
                                              std::size_t index,
                                              std::uint64_t identity) noexcept;

/// An entry checked and sized for encoding, before any byte is written.
struct SizedEntry {
  std::uint64_t head = 0;        ///< step << 1 | threshold override
  std::size_t body_bytes = 0;
  std::size_t epoch_splits = 0;  ///< runs past the first of each kind
  [[nodiscard]] std::size_t bytes() const noexcept {
    return net::varint_size(head) + net::varint_size(body_bytes) +
           body_bytes;
  }
};

/// Checks `d` as the entry `step` places after the previous one in a
/// segment headed by `h`, and sizes it.  Throws std::invalid_argument on a
/// receipt no collector emits (sample times out of order, a trailing
/// round without its marker, aggregates out of open order or closing
/// before they open) or a step outside [1, 2^63), and WireLimitError on
/// one the layout cannot carry.  The entry names one path: its aggregates
/// decode as that path's.
[[nodiscard]] SizedEntry size_entry(std::size_t step, const PathDrain& d,
                                    const RoundHeader& h);
/// Appends the entry `e` sized for `d` and `h`: exactly e.bytes() bytes.
void encode_entry(const SizedEntry& e, const PathDrain& d,
                  const RoundHeader& h, net::ByteWriter& out);

/// One item of a segment, as read off the wire.
struct Item {
  bool close = false;
  std::uint64_t digest = 0;          ///< a close's round digest
  std::uint64_t step = 0;            ///< an entry's index step (>= 1)
  bool override_thresholds = false;  ///< an entry's body leads with them
  std::span<const std::byte> body;   ///< an entry's body, a view into `in`
};
/// Reads the next item.  Throws a transient net::WireError when `in` ends
/// inside it, a fatal one when its head is malformed.
[[nodiscard]] Item read_item(net::ByteReader& in);

/// Decodes the entry `item` as the drain of `path` in a segment headed by
/// `h`.  Throws net::WireError on a malformed body (times out of order,
/// an aggregate closing before it opens, counts past the body's bytes,
/// trailing bytes); reserves no more records than the body can hold.
[[nodiscard]] PathDrain decode_entry(const Item& item,
                                     const net::PathId& path,
                                     const RoundHeader& h);

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_BATCH_HPP
