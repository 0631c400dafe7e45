#include "core/receipt.hpp"

#include <algorithm>
#include <stdexcept>

namespace vpm::core {
namespace {

void require_same_path(const net::PathId& a, const net::PathId& b,
                       const char* what) {
  if (!(a == b)) {
    throw std::invalid_argument(std::string{"combining "} + what +
                                " from different paths");
  }
}

}  // namespace

SampleReceipt combine_samples(std::span<const SampleReceipt> receipts) {
  if (receipts.empty()) {
    throw std::invalid_argument("combine_samples: empty input");
  }
  SampleReceipt out;
  out.path = receipts.front().path;
  out.sample_threshold = receipts.front().sample_threshold;
  out.marker_threshold = receipts.front().marker_threshold;
  std::size_t total = 0;
  for (const SampleReceipt& r : receipts) {
    require_same_path(out.path, r.path, "sample receipts");
    if (r.sample_threshold != out.sample_threshold ||
        r.marker_threshold != out.marker_threshold) {
      throw std::invalid_argument(
          "combining sample receipts with different thresholds");
    }
    total += r.samples.size();
  }
  out.samples.reserve(total);
  for (const SampleReceipt& r : receipts) {
    out.samples.insert(out.samples.end(), r.samples.begin(), r.samples.end());
  }
  // Union in time order (Section 4: combination is the union of Samples).
  std::stable_sort(out.samples.begin(), out.samples.end(),
                   [](const SampleRecord& a, const SampleRecord& b) {
                     return a.time < b.time;
                   });
  return out;
}

AggregateReceipt combine_aggregates(
    std::span<const AggregateReceipt> receipts) {
  if (receipts.empty()) {
    throw std::invalid_argument("combine_aggregates: empty input");
  }
  AggregateReceipt out;
  out.path = receipts.front().path;
  out.agg.first = receipts.front().agg.first;
  out.agg.last = receipts.back().agg.last;
  out.opened_at = receipts.front().opened_at;
  out.closed_at = receipts.back().closed_at;
  out.trans = receipts.back().trans;
  std::uint64_t count = 0;
  for (const AggregateReceipt& r : receipts) {
    require_same_path(out.path, r.path, "aggregate receipts");
    count += r.packet_count;
  }
  if (count > 0xFFFFFFFFull) {
    throw std::invalid_argument("combined aggregate count overflows 32 bits");
  }
  out.packet_count = static_cast<std::uint32_t>(count);
  return out;
}

}  // namespace vpm::core
