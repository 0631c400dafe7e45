#include "core/verifier.hpp"

#include <stdexcept>
#include <unordered_map>

namespace vpm::core {

void PathVerifier::add_round(net::HopId hop, PathDrain round) {
  const auto [it, first] = receipts_.try_emplace(hop, std::move(round));
  if (first) return;
  PathDrain& r = it->second;
  r.samples.samples.insert(
      r.samples.samples.end(),
      std::make_move_iterator(round.samples.samples.begin()),
      std::make_move_iterator(round.samples.samples.end()));
  r.aggregates.insert(r.aggregates.end(),
                      std::make_move_iterator(round.aggregates.begin()),
                      std::make_move_iterator(round.aggregates.end()));
}

const PathDrain& PathVerifier::hop(net::HopId id) const {
  const auto it = receipts_.find(id);
  if (it == receipts_.end()) {
    throw std::out_of_range("no receipts for HOP " + std::to_string(id));
  }
  return it->second;
}

DomainDelayReport PathVerifier::domain_delay(net::HopId ingress,
                                             net::HopId egress,
                                             std::span<const double> quantiles,
                                             double confidence) const {
  const SampleReceipt& in = hop(ingress).samples;
  const SampleReceipt& out = hop(egress).samples;

  DomainDelayReport report;
  // Match sampled packets between the domain's own two HOPs by PktID.
  std::unordered_map<net::PacketDigest, net::Timestamp> ingress_times;
  ingress_times.reserve(in.samples.size() * 2);
  for (const SampleRecord& s : in.samples) {
    ingress_times.emplace(s.pkt_id, s.time);
  }
  report.sample_delays_ms.reserve(out.samples.size());
  for (const SampleRecord& s : out.samples) {
    const auto it = ingress_times.find(s.pkt_id);
    if (it == ingress_times.end()) continue;
    report.sample_delays_ms.push_back((s.time - it->second).milliseconds());
  }
  report.common_samples = report.sample_delays_ms.size();
  if (report.common_samples > 0) {
    stats::QuantileEstimator estimator;
    estimator.add_all(report.sample_delays_ms);
    report.quantiles = estimator.estimate_many(quantiles, confidence);
  }
  return report;
}

DomainLossReport PathVerifier::domain_loss(net::HopId ingress,
                                           net::HopId egress) const {
  const std::vector<AggregateReceipt>& in = hop(ingress).aggregates;
  const std::vector<AggregateReceipt>& out = hop(egress).aggregates;

  DomainLossReport report;
  const AlignmentResult aligned = align_aggregates(in, out, true);
  report.joined_aggregates = aligned.aligned.size();
  report.patchup_migrations = aligned.migrations;
  double total_s = 0.0;
  for (const AlignedAggregate& a : aligned.aligned) {
    report.offered += a.up_count;
    report.delivered += a.down_count;
    const double s = a.duration_s();
    total_s += s;
    if (s > report.max_granularity_s) report.max_granularity_s = s;
  }
  if (!aligned.aligned.empty()) {
    report.mean_granularity_s =
        total_s / static_cast<double>(aligned.aligned.size());
  }
  report.details = std::move(aligned.aligned);
  return report;
}

LinkReport PathVerifier::check_link(net::HopId up, net::HopId down) const {
  const PathDrain& u = hop(up);
  const PathDrain& d = hop(down);
  return LinkReport{
      .samples = check_link_samples(u.samples, d.samples),
      .aggregates = check_link_aggregates(u.aggregates, d.aggregates),
  };
}

PathAnalysis PathVerifier::analyze(const PathLayout& layout) const {
  if (layout.hops.size() != layout.domain_of.size()) {
    throw std::invalid_argument("layout hops/domains size mismatch");
  }
  PathAnalysis analysis;

  // Walk consecutive HOP pairs: within one domain they bracket a transit
  // domain; across domains they bracket an inter-domain link.
  for (std::size_t i = 0; i + 1 < layout.hops.size(); ++i) {
    const net::HopId a = layout.hops[i];
    const net::HopId b = layout.hops[i + 1];
    const bool have_both = has_hop(a) && has_hop(b);
    if (layout.domain_of[i] == layout.domain_of[i + 1]) {
      DomainFinding f;
      f.domain = layout.domain_of[i];
      f.ingress = a;
      f.egress = b;
      if (have_both) {
        f.delay = domain_delay(a, b);
        f.loss = domain_loss(a, b);
      }
      analysis.domains.push_back(std::move(f));
    } else {
      LinkFinding f;
      f.upstream_domain = layout.domain_of[i];
      f.downstream_domain = layout.domain_of[i + 1];
      f.upstream_hop = a;
      f.downstream_hop = b;
      if (have_both) {
        f.report = check_link(a, b);
      }
      analysis.links.push_back(std::move(f));
    }
  }
  return analysis;
}

}  // namespace vpm::core
