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

#include <span>
#include <vector>

#include "core/receipt.hpp"
#include "net/wire.hpp"

namespace vpm::core {

/// Encode one HOP's sample receipt as a batch.  Throws
/// std::invalid_argument if the samples span more than the 3-byte epoch
/// range, are not in time order, or a round has a non-trailing marker.
void encode_sample_batch(const SampleReceipt& r, net::ByteWriter& out);

/// Encode consecutive aggregate receipts from one HOP as a batch.  All
/// receipts must share the sample receipt's path.  Throws
/// std::invalid_argument on mixed paths or an over-long time span.
void encode_aggregate_batch(std::span<const AggregateReceipt> rs,
                            net::ByteWriter& out);

[[nodiscard]] SampleReceipt decode_sample_batch(net::ByteReader& in,
                                                const net::PathId& path);
[[nodiscard]] std::vector<AggregateReceipt> decode_aggregate_batch(
    net::ByteReader& in, const net::PathId& path);

/// Batch wire sizes, for the §7.1 bandwidth accounting.
[[nodiscard]] std::size_t sample_batch_size(const SampleReceipt& r);
[[nodiscard]] std::size_t aggregate_batch_size(
    std::span<const AggregateReceipt> rs);

/// The marginal per-record / per-receipt costs implied by the format
/// (compile-time constants used in the overhead report).
inline constexpr std::size_t kSampleRecordBytes = 7;
inline constexpr std::size_t kAggregateRecordBytes = 22;

}  // namespace vpm::core

#endif  // VPM_CORE_RECEIPT_BATCH_HPP
