// Lying-domain strategies (threat model, Section 2.1).
//
// A lying domain constructs receipts from incomplete or fabricated
// information, possibly colluding with neighbours.  Each strategy here is
// a pure receipt transformer: it takes truthful receipts (what the domain
// really observed) and returns what the liar publishes.  The verifier
// never sees which is which — detection must come from consistency
// checking, and the tests/benches measure exactly that.
//
// Traffic-level cheating (treating would-be samples preferentially) is a
// delay-assignment transform used by the bias ablation; see bias_delays().
#ifndef VPM_ADVERSARY_STRATEGIES_HPP
#define VPM_ADVERSARY_STRATEGIES_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/receipt.hpp"
#include "net/digest.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"

namespace vpm::adversary {

/// "Claim delivered what you dropped" (the paper's running example: X
/// drops p but reports having delivered it to N).  Fabricates egress
/// sample records for every packet the domain sampled at ingress but not
/// at egress, with a plausible fake traversal delay.  Markers included:
/// the liar must fake those too, or their absence is immediately caught.
/// The result is encodable: one record per ingress record, marker flags
/// copied from ingress, times clamped monotone.
[[nodiscard]] core::SampleReceipt hide_loss_samples(
    const core::SampleReceipt& truthful_egress,
    const core::SampleReceipt& own_ingress, net::Duration fake_delay);

/// Aggregate-side of the same lie: report egress PktCnt equal to the
/// ingress count for every aggregate (nothing was lost, honest!).
/// AggTrans and AggIDs stay as observed — fabricating ids of packets the
/// egress never saw requires the ingress receipts, which the liar has.
[[nodiscard]] std::vector<core::AggregateReceipt> hide_loss_aggregates(
    std::span<const core::AggregateReceipt> truthful_egress,
    std::span<const core::AggregateReceipt> own_ingress);

/// "We are faster than we are": shift every egress sample time earlier by
/// `shave`.  Exposed by Eq. 2 once the cross-link timestamp difference
/// exceeds MaxDiff.
[[nodiscard]] core::SampleReceipt understate_delay(
    const core::SampleReceipt& truthful_egress, net::Duration shave);

/// Collusion (Section 3.1): neighbour N covers X's false delivery claims
/// by fabricating *ingress* records for packets it never received (copied
/// from X's published egress receipt, plus link delay).  N's problem — the
/// packets now have to disappear somewhere inside N or be pushed onto the
/// next link — is exactly what the liar-exposure cascade detects.  The
/// result is encodable: one record per claim, marker flags copied from the
/// claims, times clamped monotone.
[[nodiscard]] core::SampleReceipt cover_neighbor_samples(
    const core::SampleReceipt& own_truthful_ingress,
    const core::SampleReceipt& neighbors_published_egress,
    net::Duration link_delay);

/// Aggregate-side of the cover-up: N republishes the neighbour's claimed
/// egress partition (counts and all) as its own ingress, shifted by the
/// link delay, so the cross-link count check passes.  The phantom packets
/// now sit on N's own books.
[[nodiscard]] std::vector<core::AggregateReceipt> cover_neighbor_aggregates(
    std::span<const core::AggregateReceipt> own_truthful_ingress,
    std::span<const core::AggregateReceipt> neighbors_published_egress,
    net::Duration link_delay);

/// Predicate for packets an adversary can *predict* will be sampled:
///   - under Trajectory Sampling ++, every sample is predictable;
///   - under VPM delay-sampling, only markers are (Algorithm 1 defers all
///     other decisions to future traffic).
using SamplePredictor = std::function<bool(const net::Packet&)>;

[[nodiscard]] SamplePredictor trajectory_predictor(net::DigestEngine engine,
                                                   std::uint32_t threshold);
[[nodiscard]] SamplePredictor vpm_marker_predictor(net::DigestEngine engine,
                                                   std::uint32_t marker_threshold);

/// The bias attack: give predictable samples the preferential delay and
/// leave everything else on the congested path.  Returns the per-packet
/// delay the cheating domain actually imposes.
[[nodiscard]] std::vector<net::Duration> bias_delays(
    std::span<const net::Packet> trace,
    std::span<const net::Duration> honest_delays,
    const SamplePredictor& predictable, net::Duration preferred_delay);

}  // namespace vpm::adversary

#endif  // VPM_ADVERSARY_STRATEGIES_HPP
