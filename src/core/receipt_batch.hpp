// Batched dissemination wire format.
//
// The processor module ships receipts in per-path batches (Section 7.1's
// bandwidth arithmetic assumes this): the batch header carries the path
// key and a shared epoch once, so the marginal cost is 7 bytes per sample
// record (4 B PktID + 3 B time, exactly the paper's temp-buffer record
// size) and 22 bytes per aggregate receipt (the paper's quoted receipt
// size) plus 4 B per AggTrans id.
//
// Marker records carry no flag on the wire: the batch groups each sampling
// round as [follower records..., marker record] with an explicit follower
// count, so marker-ness is positional.  The 3-byte times are microsecond
// offsets from the batch epoch, so one batch spans at most ~16.7 s — the
// processor flushes well before that (the default reporting period is 1 s).
#ifndef VPM_CORE_RECEIPT_BATCH_HPP
#define VPM_CORE_RECEIPT_BATCH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/receipt.hpp"
#include "net/wire.hpp"

namespace vpm::core {

/// Encode `samples` — whole sampling rounds of the sample receipt `r`,
/// usually all of r.samples — as one batch, straight onto the end of
/// `out`.  `path_key` must be r.path.path_key(); a caller encoding several
/// batches of one path computes it once.  Throws std::invalid_argument,
/// before writing anything, if the records span more than the 3-byte
/// epoch range, are not in time order, or end in a round without its
/// marker.
void encode_sample_batch(const SampleReceipt& r,
                         std::span<const SampleRecord> samples,
                         std::uint64_t path_key, net::ByteWriter& out);

/// Encode consecutive aggregate receipts of one path as a batch, straight
/// onto the end of `out`.  `path_key` must be the receipts' path key.
/// Throws std::invalid_argument, before writing anything, on an empty
/// run, mixed paths or an over-long time span.
void encode_aggregate_batch(std::span<const AggregateReceipt> rs,
                            std::uint64_t path_key, net::ByteWriter& out);

/// Decode one batch of the path `path`, whose key the caller has already
/// resolved to `path_key`.  Throws net::WireError on malformed input;
/// reserves no more records than the reader's remaining bytes can hold.
[[nodiscard]] SampleReceipt decode_sample_batch(net::ByteReader& in,
                                                const net::PathId& path,
                                                std::uint64_t path_key);
[[nodiscard]] std::vector<AggregateReceipt> decode_aggregate_batch(
    net::ByteReader& in, const net::PathId& path, std::uint64_t path_key);

/// The exact number of bytes the encoders write, computed before
/// encoding; each throws std::invalid_argument where its encoder would.
/// Also the §7.1 bandwidth accounting.
[[nodiscard]] std::size_t sample_batch_size(
    std::span<const SampleRecord> samples);
[[nodiscard]] std::size_t aggregate_batch_size(
    std::span<const AggregateReceipt> rs);

/// The marginal per-record / per-receipt costs implied by the format
/// (compile-time constants used in the overhead report).
inline constexpr std::size_t kSampleRecordBytes = 7;
inline constexpr std::size_t kAggregateRecordBytes = 22;

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_BATCH_HPP
