#include "adversary/strategies.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace vpm::adversary {

namespace {

/// Append a lie's record with its time clamped monotone.  A competent liar
/// publishes a WELL-FORMED receipt: fabricated times interleaved with real
/// ones can step backwards, and the wire codec rejects non-monotone sample
/// times outright — a self-incriminating lie not modelled here.  Counts
/// (and hence the aggregate-side detection) are unchanged.
void push_monotone(core::SampleReceipt& lie, core::SampleRecord r) {
  if (!lie.samples.empty()) r.time = std::max(r.time, lie.samples.back().time);
  lie.samples.push_back(r);
}

}  // namespace

core::SampleReceipt hide_loss_samples(const core::SampleReceipt& truthful_egress,
                                      const core::SampleReceipt& own_ingress,
                                      net::Duration fake_delay) {
  // Rebuild the egress receipt in ingress order: every packet the domain
  // sampled on entry is claimed to have left; truly observed egress
  // records keep their real times, dropped ones get fabricated times.
  // Marker flags come from the ingress records, so the lie's sampling
  // rounds are the ingress ones and still end with a marker (time-keyed
  // markers fire at different packets at egress once packets are gone).
  std::unordered_map<net::PacketDigest, const core::SampleRecord*> egress_by_id;
  egress_by_id.reserve(truthful_egress.samples.size() * 2);
  for (const core::SampleRecord& r : truthful_egress.samples) {
    egress_by_id.emplace(r.pkt_id, &r);
  }

  core::SampleReceipt lie;
  lie.path = truthful_egress.path;
  lie.sample_threshold = truthful_egress.sample_threshold;
  lie.marker_threshold = truthful_egress.marker_threshold;
  lie.samples.reserve(own_ingress.samples.size());
  for (const core::SampleRecord& in : own_ingress.samples) {
    const auto it = egress_by_id.find(in.pkt_id);
    push_monotone(lie, core::SampleRecord{
                           .pkt_id = in.pkt_id,
                           .time = it != egress_by_id.end()
                                       ? it->second->time
                                       : in.time + fake_delay,
                           .is_marker = in.is_marker,
                       });
  }
  return lie;
}

std::vector<core::AggregateReceipt> hide_loss_aggregates(
    std::span<const core::AggregateReceipt> truthful_egress,
    std::span<const core::AggregateReceipt> own_ingress) {
  // The strongest count lie available: republish the ingress partition as
  // the egress one ("everything that entered, left").  Times are shifted
  // to look egress-like so the receipt is not trivially absurd.
  net::Duration shift{0};
  if (!truthful_egress.empty() && !own_ingress.empty()) {
    shift = truthful_egress.front().opened_at - own_ingress.front().opened_at;
  }
  std::vector<core::AggregateReceipt> lie(own_ingress.begin(),
                                          own_ingress.end());
  for (core::AggregateReceipt& r : lie) {
    if (!truthful_egress.empty()) r.path = truthful_egress.front().path;
    r.opened_at += shift;
    r.closed_at += shift;
  }
  return lie;
}

core::SampleReceipt understate_delay(const core::SampleReceipt& truthful_egress,
                                     net::Duration shave) {
  core::SampleReceipt lie = truthful_egress;
  for (core::SampleRecord& r : lie.samples) {
    r.time = r.time - shave;
  }
  return lie;
}

core::SampleReceipt cover_neighbor_samples(
    const core::SampleReceipt& own_truthful_ingress,
    const core::SampleReceipt& neighbors_published_egress,
    net::Duration link_delay) {
  std::unordered_map<net::PacketDigest, const core::SampleRecord*> own_by_id;
  own_by_id.reserve(own_truthful_ingress.samples.size() * 2);
  for (const core::SampleRecord& r : own_truthful_ingress.samples) {
    own_by_id.emplace(r.pkt_id, &r);
  }

  core::SampleReceipt cover;
  cover.path = own_truthful_ingress.path;
  cover.sample_threshold = own_truthful_ingress.sample_threshold;
  cover.marker_threshold = own_truthful_ingress.marker_threshold;
  cover.samples.reserve(neighbors_published_egress.samples.size());
  // Packets N really received keep their real times; the rest pretend to
  // have arrived at the neighbour's claimed egress time plus the nominal
  // link delay.  Marker flags follow the claims, whose rounds the cover
  // mirrors record for record.
  for (const core::SampleRecord& claimed : neighbors_published_egress.samples) {
    const auto it = own_by_id.find(claimed.pkt_id);
    push_monotone(cover, core::SampleRecord{
                             .pkt_id = claimed.pkt_id,
                             .time = it != own_by_id.end()
                                         ? it->second->time
                                         : claimed.time + link_delay,
                             .is_marker = claimed.is_marker,
                         });
  }
  return cover;
}

std::vector<core::AggregateReceipt> cover_neighbor_aggregates(
    std::span<const core::AggregateReceipt> own_truthful_ingress,
    std::span<const core::AggregateReceipt> neighbors_published_egress,
    net::Duration link_delay) {
  std::vector<core::AggregateReceipt> cover(
      neighbors_published_egress.begin(), neighbors_published_egress.end());
  for (core::AggregateReceipt& r : cover) {
    if (!own_truthful_ingress.empty()) {
      r.path = own_truthful_ingress.front().path;
    }
    r.opened_at += link_delay;
    r.closed_at += link_delay;
  }
  return cover;
}

SamplePredictor trajectory_predictor(net::DigestEngine engine,
                                     std::uint32_t threshold) {
  return [engine, threshold](const net::Packet& p) {
    return engine.packet_id(p) > threshold;
  };
}

SamplePredictor vpm_marker_predictor(net::DigestEngine engine,
                                     std::uint32_t marker_threshold) {
  return [engine, marker_threshold](const net::Packet& p) {
    return engine.marker_value(p) > marker_threshold;
  };
}

std::vector<net::Duration> bias_delays(
    std::span<const net::Packet> trace,
    std::span<const net::Duration> honest_delays,
    const SamplePredictor& predictable, net::Duration preferred_delay) {
  std::vector<net::Duration> out(honest_delays.begin(), honest_delays.end());
  const std::size_t n = std::min(trace.size(), out.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (predictable(trace[i])) {
      out[i] = std::min(out[i], preferred_delay);
    }
  }
  return out;
}

}  // namespace vpm::adversary
