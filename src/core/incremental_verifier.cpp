#include "core/incremental_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "stats/quantile.hpp"

namespace vpm::core {
namespace {

/// Marks a slot for removal.  A delay is a difference of two timestamps,
/// never NaN.
constexpr double kRemovedSlot = std::numeric_limits<double>::quiet_NaN();

/// consume_aligned_prefix, skipped while the tail is idle.  The call is a
/// pure function of the tail, so once it has consumed nothing it consumes
/// nothing again until a receipt joins the tail.
TailConsumeStats consume_unless_idle(AggregateTail& tail, bool& idle,
                                     std::size_t margin_boundaries,
                                     std::vector<AlignedAggregate>& out) {
  if (idle) return {};
  const TailConsumeStats stats =
      consume_aligned_prefix(tail, margin_boundaries, out);
  idle = stats.groups == 0;
  return stats;
}

}  // namespace

IncrementalPathVerifier::IncrementalPathVerifier(Config cfg)
    : cfg_(std::move(cfg)) {
  const PathLayout& layout = cfg_.layout;
  if (layout.hops.size() != layout.domain_of.size()) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: layout hops/domains size mismatch");
  }
  if (cfg_.retain_rounds == 0) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: retain_rounds must be >= 1");
  }
  for (std::size_t i = 0; i < layout.hops.size(); ++i) {
    if (position_of(layout.hops[i]) != i) {
      throw std::invalid_argument(
          "IncrementalPathVerifier: HOP repeated in layout: " +
          std::to_string(layout.hops[i]));
    }
  }
  hops_.resize(layout.hops.size());
  if (!layout.hops.empty()) pairs_.reserve(layout.hops.size() - 1);
  for (std::size_t i = 0; i + 1 < layout.hops.size(); ++i) {
    Pair p;
    p.is_domain = layout.domain_of[i] == layout.domain_of[i + 1];
    p.up_pos = i;
    p.down_pos = i + 1;
    pairs_.push_back(std::move(p));
  }
}

std::size_t IncrementalPathVerifier::position_of(net::HopId hop) const {
  const std::vector<net::HopId>& hops = cfg_.layout.hops;
  return static_cast<std::size_t>(std::find(hops.begin(), hops.end(), hop) -
                                  hops.begin());
}

std::uint64_t IncrementalPathVerifier::rounds_ingested(net::HopId hop) const {
  const std::size_t pos = position_of(hop);
  return pos < hops_.size() ? hops_[pos].rounds : 0;
}

std::uint64_t IncrementalPathVerifier::pair_clock(const Pair& p) const {
  return std::max(hops_[p.up_pos].rounds, hops_[p.down_pos].rounds);
}

void IncrementalPathVerifier::add_round(net::HopId hop, PathDrain round) {
  const std::size_t pos = position_of(hop);
  if (pos == hops_.size()) {
    throw std::invalid_argument(
        "IncrementalPathVerifier: HOP not in layout: " + std::to_string(hop));
  }
  HopState& state = hops_[pos];
  if (state.rounds++ == 0) {
    state.max_diff = round.samples.path.max_diff;
    state.sample_threshold = round.samples.sample_threshold;
  }
  // The HOP is the downstream end of pair pos-1 and the upstream end of
  // pair pos.  Its aggregates are prepared once for both: pair pos takes
  // the entries, pair pos-1 a copy.  A receipt wakes an idle tail.
  const auto feed = [&](Pair& p, bool is_up,
                        std::vector<PreparedAggregate> entries) {
    p.is_domain ? feed_domain(p, is_up, round.samples)
                : feed_link(p, is_up, round.samples);
    if (!entries.empty()) {
      is_up ? p.tail.append_up(std::move(entries))
            : p.tail.append_down(std::move(entries));
      p.tail_idle = false;
    }
    settle_pair(p);
  };
  std::vector<PreparedAggregate> entries =
      prepare_aggregates(std::move(round.aggregates));
  if (pos > 0 && pos < pairs_.size()) {
    feed(pairs_[pos - 1], false, entries);
  } else if (pos > 0) {
    feed(pairs_[pos - 1], false, std::move(entries));
  }
  if (pos < pairs_.size()) feed(pairs_[pos], true, std::move(entries));
}

void IncrementalPathVerifier::feed_domain(Pair& p, bool is_up,
                                          const SampleReceipt& samples) {
  const std::uint64_t clock = pair_clock(p);
  DelayState& ds = p.delay;
  const std::size_t merged = ds.sorted.size();
  if (is_up) {
    // Ingress side: remember every sampled packet's time (markers
    // included — the batch matcher indexes them too; first record wins on
    // a digest collision, as emplace does there).  Records for one digest
    // arrive in stream order, so the first resident record is always the
    // stream-first one — matching against it here gives the same delay
    // the batch matcher computes, whichever side was fed first.
    for (const SampleRecord& s : samples.samples) {
      ds.ingress_times.emplace(s.pkt_id, DelayState::Entry{s.time, clock});
    }
    // Resolve egress samples that were buffered waiting for this side:
    // each fills the slot it reserved.
    std::vector<DelayState::PendingEgress>& pe = ds.pending_egress;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      const auto it = ds.ingress_times.find(pe[i].digest);
      if (it == ds.ingress_times.end()) {
        pe[keep++] = pe[i];
        continue;
      }
      it->second.matched = true;
      const double ms = (pe[i].time - it->second.time).milliseconds();
      ds.slots[pe[i].slot] = ms;
      ds.sorted.push_back(ms);
    }
    pe.resize(keep);
  } else {
    // Egress side: under lockstep feeding (upstream HOPs first within a
    // reporting round) the ingress record is already resident.  When the
    // HOPs' fetch loops drift apart, buffer the sample instead of losing
    // the match — the ingress round is late, not absent.
    for (const SampleRecord& s : samples.samples) {
      const auto it = ds.ingress_times.find(s.pkt_id);
      if (it == ds.ingress_times.end()) {
        ds.pending_egress.push_back(DelayState::PendingEgress{
            s.pkt_id, s.time, ds.slots.size(), clock});
        ds.slots.push_back(0.0);
        continue;
      }
      it->second.matched = true;
      const double ms = (s.time - it->second.time).milliseconds();
      ds.slots.push_back(ms);
      ds.sorted.push_back(ms);
    }
  }
  // Merge the round's matches into the sorted view: the few new delays
  // sort on their own, then one merge; values below the smallest new one
  // stay where they are.
  const auto fresh = ds.sorted.begin() + static_cast<std::ptrdiff_t>(merged);
  std::sort(fresh, ds.sorted.end());
  std::inplace_merge(ds.sorted.begin(), fresh, ds.sorted.end());
}

void IncrementalPathVerifier::feed_link(Pair& p, bool is_up,
                                        const SampleReceipt& samples) {
  const std::uint64_t clock = pair_clock(p);
  LinkSamplesState& ls = p.link_samples;
  if (is_up) {
    ls.up_splitter.feed(samples.samples, [&](SampleRound&& r) {
      ls.pending_up.push_back(
          LinkSamplesState::Stamped{std::move(r), clock});
    });
  } else {
    ls.down_splitter.feed(samples.samples, [&](SampleRound&& r) {
      const net::PacketDigest marker = r.marker_id;
      ls.down_by_marker.emplace(
          marker, LinkSamplesState::Stamped{std::move(r), clock});
    });
  }
}

void IncrementalPathVerifier::settle_pair(Pair& p) {
  const std::uint64_t clock = pair_clock(p);
  const auto expired = [&](std::uint64_t seen) {
    return clock > seen && clock - seen > cfg_.retain_rounds;
  };

  if (p.is_domain) {
    // Finalize aligned aggregates past the stability margin.
    const TailConsumeStats consumed =
        consume_unless_idle(p.tail, p.tail_idle, cfg_.margin_boundaries,
                            p.loss.groups);
    p.loss.consumed_migrations += consumed.migrations;
    // Expire ingress sample entries past retention (matched entries must
    // linger the same window: a later duplicate egress sample matches
    // again in the batch semantics).
    auto& map = p.delay.ingress_times;
    for (auto it = map.begin(); it != map.end();) {
      if (expired(it->second.round)) {
        if (!it->second.matched) ++p.delay.expired;
        it = map.erase(it);
      } else {
        ++it;
      }
    }
    // Buffered egress samples age out on the same clock: an upstream
    // round still absent past retention is a gap, not a late fetch.  An
    // expired sample's slot is marked, then removed; the slots of those
    // still pending move down past the removed ones.
    std::vector<DelayState::PendingEgress>& pe = p.delay.pending_egress;
    std::vector<double>& slots = p.delay.slots;
    std::size_t keep = 0;
    std::size_t first_removed = slots.size();
    for (std::size_t i = 0; i < pe.size(); ++i) {
      if (expired(pe[i].round)) {
        ++p.delay.expired;
        slots[pe[i].slot] = kRemovedSlot;
        first_removed = std::min(first_removed, pe[i].slot);
        continue;
      }
      pe[i].slot -= i - keep;
      pe[keep++] = pe[i];
    }
    pe.resize(keep);
    slots.erase(std::remove_if(slots.begin() +
                                   static_cast<std::ptrdiff_t>(first_removed),
                               slots.end(),
                               [](double ms) { return std::isnan(ms); }),
                slots.end());
    return;
  }

  LinkSamplesState& ls = p.link_samples;
  const HopState& up_info = hops_[p.up_pos];
  const HopState& down_info = hops_[p.down_pos];
  // Resolve pending upstream rounds strictly FIFO — the batch check walks
  // upstream rounds in stream order, so a blocked head must stall its
  // successors to keep the accumulated output identical.
  while (!ls.pending_up.empty()) {
    LinkSamplesState::Stamped& head = ls.pending_up.front();
    const auto match = ls.down_by_marker.find(head.round.marker_id);
    if (match != ls.down_by_marker.end()) {
      check_sample_round_pair(head.round, match->second.round,
                              up_info.max_diff, up_info.sample_threshold,
                              down_info.sample_threshold, ls.accumulated);
      ls.down_by_marker.erase(match);
      ls.pending_up.pop_front();
      continue;
    }
    if (!expired(head.seen)) break;
    // §5.3: a marker the upstream HOP delivered that the downstream HOP
    // has not reported within the retention window is a link loss or a
    // lie — the same verdict the batch check reaches over full streams.
    // Still counted as a retention expiry: a LATER-than-window downstream
    // round would have matched in the batch check.
    ls.accumulated.violations.push_back(Inconsistency{
        InconsistencyKind::kMarkerMissing, head.round.marker_id, 0.0});
    ++ls.expired;
    ls.pending_up.pop_front();
  }
  // Downstream rounds nobody claimed: the batch check silently ignores
  // them; drop past retention to bound the map.
  for (auto it = ls.down_by_marker.begin(); it != ls.down_by_marker.end();) {
    if (expired(it->second.seen)) {
      it = ls.down_by_marker.erase(it);
      ++ls.expired;
    } else {
      ++it;
    }
  }

  std::vector<AlignedAggregate> fresh;
  (void)consume_unless_idle(p.tail, p.tail_idle, cfg_.margin_boundaries,
                            fresh);
  p.link_aggregates.checked += fresh.size();
  for (const AlignedAggregate& g : fresh) {
    check_aligned_counts(g, p.link_aggregates.violations);
  }
}

void IncrementalPathVerifier::report_gap(RoundGap gap) {
  gaps_.push_back(std::move(gap));
}

PathAnalysis IncrementalPathVerifier::analyze() const {
  const PathLayout& layout = cfg_.layout;
  PathAnalysis analysis;
  analysis.gaps = gaps_;

  for (const Pair& p : pairs_) {
    const net::HopId a = layout.hops[p.up_pos];
    const net::HopId b = layout.hops[p.down_pos];
    const bool have_both =
        hops_[p.up_pos].rounds > 0 && hops_[p.down_pos].rounds > 0;

    if (p.is_domain) {
      DomainFinding f;
      f.domain = layout.domain_of[p.up_pos];
      f.ingress = a;
      f.egress = b;
      if (have_both) {
        // The delays in egress observation order (the order the batch
        // matcher reports): every slot but those still reserved for a
        // buffered egress sample.
        const DelayState& ds = p.delay;
        std::vector<double>& delays = f.delay.sample_delays_ms;
        delays.reserve(ds.sorted.size());
        std::size_t from = 0;
        for (const DelayState::PendingEgress& e : ds.pending_egress) {
          delays.insert(delays.end(), ds.slots.begin() + from,
                        ds.slots.begin() + e.slot);
          from = e.slot + 1;
        }
        delays.insert(delays.end(), ds.slots.begin() + from, ds.slots.end());
        f.delay.common_samples = ds.sorted.size();
        if (f.delay.common_samples > 0) {
          f.delay.quantiles.reserve(stats::kDelayQuantiles.size());
          for (const double q : stats::kDelayQuantiles) {
            f.delay.quantiles.push_back(
                stats::sorted_estimate(ds.sorted, q, 0.95));
          }
        }

        const AlignmentResult tail = align_tail(p.tail);
        f.loss.details.reserve(p.loss.groups.size() + tail.aligned.size());
        f.loss.details = p.loss.groups;
        f.loss.details.insert(f.loss.details.end(), tail.aligned.begin(),
                              tail.aligned.end());
        f.loss.joined_aggregates = f.loss.details.size();
        f.loss.patchup_migrations =
            p.loss.consumed_migrations + tail.migrations;
        double total_s = 0.0;
        for (const AlignedAggregate& g : f.loss.details) {
          f.loss.offered += g.up_count;
          f.loss.delivered += g.down_count;
          const double s = g.duration_s();
          total_s += s;
          if (s > f.loss.max_granularity_s) f.loss.max_granularity_s = s;
        }
        if (!f.loss.details.empty()) {
          f.loss.mean_granularity_s =
              total_s / static_cast<double>(f.loss.details.size());
        }
      }
      analysis.domains.push_back(std::move(f));
      continue;
    }

    LinkFinding f;
    f.upstream_domain = layout.domain_of[p.up_pos];
    f.downstream_domain = layout.domain_of[p.down_pos];
    f.upstream_hop = a;
    f.downstream_hop = b;
    if (have_both) {
      const HopState& up_info = hops_[p.up_pos];
      const HopState& down_info = hops_[p.down_pos];

      LinkSampleCheck samples;
      // Batch order: the Eq.-1 MaxDiff verdict first, then per-round
      // output in upstream stream order (the finalized rounds, then the
      // still-pending ones resolved against everything seen so far).
      if (up_info.max_diff != down_info.max_diff) {
        samples.violations.push_back(Inconsistency{
            InconsistencyKind::kMaxDiffMismatch, 0,
            (up_info.max_diff - down_info.max_diff).milliseconds()});
      }
      const LinkSamplesState& ls = p.link_samples;
      samples.rounds_matched = ls.accumulated.rounds_matched;
      samples.common_samples = ls.accumulated.common_samples;
      samples.link_delays_ms = ls.accumulated.link_delays_ms;
      samples.violations.insert(samples.violations.end(),
                                ls.accumulated.violations.begin(),
                                ls.accumulated.violations.end());
      // Match-once semantics without copying the pending rounds: a
      // consumed-marker set stands in for the settle-time erase.
      std::unordered_set<net::PacketDigest> consumed;
      for (const LinkSamplesState::Stamped& pending : ls.pending_up) {
        const auto match = ls.down_by_marker.find(pending.round.marker_id);
        if (match == ls.down_by_marker.end() ||
            consumed.contains(pending.round.marker_id)) {
          samples.violations.push_back(Inconsistency{
              InconsistencyKind::kMarkerMissing, pending.round.marker_id,
              0.0});
          continue;
        }
        check_sample_round_pair(pending.round, match->second.round,
                                up_info.max_diff, up_info.sample_threshold,
                                down_info.sample_threshold, samples);
        consumed.insert(pending.round.marker_id);
      }
      f.report.samples = std::move(samples);

      LinkAggregateCheck aggregates;
      const AlignmentResult tail = align_tail(p.tail);
      aggregates.aggregates_checked =
          p.link_aggregates.checked + tail.aligned.size();
      aggregates.violations = p.link_aggregates.violations;
      for (const AlignedAggregate& g : tail.aligned) {
        check_aligned_counts(g, aggregates.violations);
      }
      f.report.aggregates = std::move(aggregates);
    }
    analysis.links.push_back(std::move(f));
  }
  return analysis;
}

IncrementalPathVerifier::ResidentStats
IncrementalPathVerifier::resident_stats() const {
  ResidentStats out;
  for (const Pair& p : pairs_) {
    if (p.is_domain) {
      out.pending_ingress_samples += p.delay.ingress_times.size();
      out.pending_egress_samples += p.delay.pending_egress.size();
      out.retained_delays += p.delay.sorted.size();
      out.tail_aggregate_receipts += p.tail.receipt_count();
      out.retained_aligned_groups += p.loss.groups.size();
      out.expired_unmatched += p.delay.expired;
    } else {
      out.pending_sample_rounds += p.link_samples.pending_up.size() +
                                   p.link_samples.down_by_marker.size();
      out.tail_aggregate_receipts += p.tail.receipt_count();
      out.expired_unmatched += p.link_samples.expired;
    }
  }
  return out;
}

}  // namespace vpm::core
