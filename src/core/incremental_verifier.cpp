#include "core/incremental_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/small_sort.hpp"
#include "stats/quantile.hpp"

namespace vpm::core {
namespace {

/// Marks a slot for removal.  A delay is a difference of two timestamps,
/// never NaN.
constexpr double kRemovedSlot = std::numeric_limits<double>::quiet_NaN();

/// Sort keys of the flat indexes: ingress entries by packet digest,
/// downstream sampling rounds by marker id.
constexpr auto kDigest = [](const auto& entry) { return entry.digest; };
constexpr auto kMarker = [](const auto& stamped) {
  return stamped.round.marker_id;
};

/// The entry of the `key`-sorted `index` whose key is `k`, or index.end().
template <typename Index, typename Key>
auto find_key(Index& index, net::PacketDigest k, Key key) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), k,
      [&](const auto& e, net::PacketDigest v) { return key(e) < v; });
  return it != index.end() && key(*it) == k ? it : index.end();
}

/// Merges the entries appended past `resident` into the `key`-sorted
/// index: each key's first appended entry joins unless the key is already
/// resident, and the rest are dropped.
template <typename Entry, typename Key>
void merge_round(std::vector<Entry>& index, std::size_t resident, Key key) {
  const auto by_key = [&](const Entry& a, const Entry& b) {
    return key(a) < key(b);
  };
  const auto split = static_cast<std::ptrdiff_t>(resident);
  auto fresh = index.begin() + split;
  // Stable, so a key's first entry in stream order leads its run.
  stable_sort_fresh(fresh, index.end(), by_key);
  auto old = index.begin();
  auto keep = fresh;
  for (auto it = fresh; it != index.end(); ++it) {
    if (keep != fresh && key(*std::prev(keep)) == key(*it)) continue;
    while (old != fresh && key(*old) < key(*it)) ++old;
    if (old != fresh && key(*old) == key(*it)) continue;
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  index.erase(keep, index.end());
  merge_fresh(index.begin(), index.begin() + split, index.end(), by_key);
}

/// Replaces the open suffix that `findings` got on the last analyze()
/// with the results settled since (`settled`, emptied), which join the
/// kept prefix.
template <typename T>
void keep_settled(std::vector<T>& findings, std::size_t& kept,
                  std::vector<T>& settled) {
  findings.resize(kept);
  findings.insert(findings.end(), settled.begin(), settled.end());
  settled.clear();
  kept = findings.size();
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
  const std::size_t pairs = layout.hops.empty() ? 0 : layout.hops.size() - 1;
  const auto same_domain = [&](std::size_t i) {
    return layout.domain_of[i] == layout.domain_of[i + 1];
  };
  std::size_t domains = 0;
  for (std::size_t i = 0; i < pairs; ++i) domains += same_domain(i) ? 1 : 0;
  domain_pairs_.reserve(domains);
  link_pairs_.reserve(pairs - domains);
  for (std::size_t i = 0; i < pairs; ++i) {
    if (same_domain(i)) {
      domain_pairs_.emplace_back().up_pos = i;
    } else {
      link_pairs_.emplace_back().up_pos = i;
    }
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

std::uint64_t IncrementalPathVerifier::pair_clock(const PairBase& p) const {
  return std::max(hops_[p.up_pos].rounds, hops_[p.up_pos + 1].rounds);
}

bool IncrementalPathVerifier::both_reported(const PairBase& p) const {
  return hops_[p.up_pos].rounds > 0 && hops_[p.up_pos + 1].rounds > 0;
}

template <typename F>
void IncrementalPathVerifier::with_pair(std::size_t up_pos, F&& f) {
  for (DomainPair& p : domain_pairs_) {
    if (p.up_pos == up_pos) return f(p);
  }
  for (LinkPair& p : link_pairs_) {
    if (p.up_pos == up_pos) return f(p);
  }
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
    // A link whose other HOP has reported now has both MaxDiffs: the
    // Eq.-1 verdict is final, and it leads the link's violations, ahead
    // of any upstream round that expired while the link had one end.
    for (LinkPair& p : link_pairs_) {
      if ((p.up_pos == pos || p.up_pos + 1 == pos) && both_reported(p)) {
        const net::Duration up = hops_[p.up_pos].max_diff;
        const net::Duration down = hops_[p.up_pos + 1].max_diff;
        if (up == down) continue;
        std::vector<Inconsistency>& v = p.samples.settled.violations;
        v.insert(v.begin(),
                 Inconsistency{InconsistencyKind::kMaxDiffMismatch, 0,
                               (up - down).milliseconds()});
      }
    }
  }
  // The HOP is the downstream end of pair pos-1 and the upstream end of
  // pair pos.  Its aggregates are prepared once for both: pair pos takes
  // the entries, pair pos-1 a copy.
  const auto feed = [&](auto& p, bool is_up,
                        std::vector<PreparedAggregate> entries) {
    feed_samples(p, is_up, round.samples);
    const bool tail_grew = !entries.empty();
    if (tail_grew) {
      is_up ? p.tail.append_up(std::move(entries))
            : p.tail.append_down(std::move(entries));
    }
    settle_pair(p, tail_grew);
  };
  std::vector<PreparedAggregate> entries =
      prepare_aggregates(std::move(round.aggregates));
  const bool upstream_end = pos + 1 < hops_.size();
  if (pos > 0) {
    with_pair(pos - 1, [&](auto& p) {
      upstream_end ? feed(p, false, entries)
                   : feed(p, false, std::move(entries));
    });
  }
  if (upstream_end) {
    with_pair(pos, [&](auto& p) { feed(p, true, std::move(entries)); });
  }
}

void IncrementalPathVerifier::feed_samples(DomainPair& p, bool is_up,
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
    const std::size_t resident = ds.ingress_times.size();
    for (const SampleRecord& s : samples.samples) {
      ds.ingress_times.push_back(DelayState::Entry{
          .digest = s.pkt_id, .time = s.time, .round = clock});
    }
    merge_round(ds.ingress_times, resident, kDigest);
    // Resolve egress samples that were buffered waiting for this side:
    // each fills the slot it reserved.
    std::vector<DelayState::PendingEgress>& pe = ds.pending_egress;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      const auto in = find_key(ds.ingress_times, pe[i].digest, kDigest);
      if (in == ds.ingress_times.end()) {
        pe[keep++] = pe[i];
        continue;
      }
      in->matched = true;
      const double ms = (pe[i].time - in->time).milliseconds();
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
      const auto in = find_key(ds.ingress_times, s.pkt_id, kDigest);
      if (in == ds.ingress_times.end()) {
        ds.pending_egress.push_back(DelayState::PendingEgress{
            s.pkt_id, s.time, ds.slots.size(), clock});
        ds.slots.push_back(0.0);
        continue;
      }
      in->matched = true;
      const double ms = (s.time - in->time).milliseconds();
      ds.slots.push_back(ms);
      ds.sorted.push_back(ms);
    }
  }
  // Merge the round's matches into the sorted view: the few new delays
  // sort on their own, then one merge; values below the smallest new one
  // stay where they are.
  const auto fresh = ds.sorted.begin() + static_cast<std::ptrdiff_t>(merged);
  std::sort(fresh, ds.sorted.end());
  merge_fresh(ds.sorted.begin(), fresh, ds.sorted.end(), std::less<>{});
}

void IncrementalPathVerifier::feed_samples(LinkPair& p, bool is_up,
                                           const SampleReceipt& samples) {
  const std::uint64_t clock = pair_clock(p);
  LinkSamplesState& ls = p.samples;
  if (is_up) {
    ls.up_splitter.feed(samples.samples, [&](SampleRound&& r) {
      ls.pending_up.push_back(
          LinkSamplesState::Stamped{std::move(r), clock});
    });
  } else {
    const std::size_t resident = ls.down_rounds.size();
    ls.down_splitter.feed(samples.samples, [&](SampleRound&& r) {
      ls.down_rounds.push_back(LinkSamplesState::Stamped{std::move(r), clock});
    });
    merge_round(ls.down_rounds, resident, kMarker);
  }
}

void IncrementalPathVerifier::settle_pair(DomainPair& p, bool tail_grew) {
  const std::uint64_t clock = pair_clock(p);
  const auto expired = [&](std::uint64_t seen) {
    return clock > seen && clock - seen > cfg_.retain_rounds;
  };
  // Finalize aligned aggregates past the stability margin.
  if (tail_grew) p.loss.consumed_migrations += settle_tail(p, p.loss.groups);
  // Expire ingress sample entries past retention (matched entries must
  // linger the same window: a later duplicate egress sample matches
  // again in the batch semantics).
  std::erase_if(p.delay.ingress_times, [&](const DelayState::Entry& e) {
    if (!expired(e.round)) return false;
    if (!e.matched) ++p.delay.expired;
    return true;
  });
  // Buffered egress samples age out on the same clock: an upstream round
  // still absent past retention is a gap, not a late fetch.  An expired
  // sample's slot is marked, then removed; the slots of those still
  // pending move down past the removed ones.
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
}

void IncrementalPathVerifier::settle_pair(LinkPair& p, bool tail_grew) {
  const std::uint64_t clock = pair_clock(p);
  const auto expired = [&](std::uint64_t seen) {
    return clock > seen && clock - seen > cfg_.retain_rounds;
  };
  LinkSamplesState& ls = p.samples;
  const HopState& up_info = hops_[p.up_pos];
  const HopState& down_info = hops_[p.up_pos + 1];
  // Resolve pending upstream rounds strictly FIFO — the batch check walks
  // upstream rounds in stream order, so a blocked head must stall its
  // successors to keep the settled output identical.
  auto head = ls.pending_up.begin();
  for (; head != ls.pending_up.end(); ++head) {
    const auto match =
        find_key(ls.down_rounds, head->round.marker_id, kMarker);
    if (match != ls.down_rounds.end() && !match->claimed) {
      check_sample_round_pair(head->round, match->round, up_info.max_diff,
                              up_info.sample_threshold,
                              down_info.sample_threshold, ls.settled);
      match->claimed = true;
      continue;
    }
    if (!expired(head->seen)) break;
    // §5.3: a marker the upstream HOP delivered that the downstream HOP
    // has not reported within the retention window is a link loss or a
    // lie — the same verdict the batch check reaches over full streams.
    // Still counted as a retention expiry: a LATER-than-window downstream
    // round would have matched in the batch check.
    ls.settled.violations.push_back(Inconsistency{
        InconsistencyKind::kMarkerMissing, head->round.marker_id, 0.0});
    ++ls.expired;
  }
  ls.pending_up.erase(ls.pending_up.begin(), head);
  // Claimed downstream rounds leave in the same pass as those nobody
  // claimed past retention (the batch check silently ignores those).
  std::erase_if(ls.down_rounds, [&](const LinkSamplesState::Stamped& r) {
    if (r.claimed) return true;
    if (!expired(r.seen)) return false;
    ++ls.expired;
    return true;
  });

  if (!tail_grew) return;
  std::vector<AlignedAggregate> fresh;
  (void)settle_tail(p, fresh);
  p.aggregates.checked += fresh.size();
  for (const AlignedAggregate& g : fresh) {
    check_aligned_counts(g, p.aggregates.violations);
  }
}

std::size_t IncrementalPathVerifier::settle_tail(
    PairBase& p, std::vector<AlignedAggregate>& out) {
  // A pass that consumes changes the tail, so the next may consume more
  // (it can only consume earlier than a later round's pass would).  The
  // pass that consumes nothing aligned the tail as it stands.
  std::size_t migrations = 0;
  for (;;) {
    const TailConsumeStats stats = consume_aligned_prefix(
        p.tail, cfg_.margin_boundaries, out, p.tail_alignment);
    if (stats.groups == 0) break;
    migrations += stats.migrations;
  }
  return migrations;
}

void IncrementalPathVerifier::report_gap(RoundGap gap) {
  findings_.gaps.push_back(std::move(gap));
}

void IncrementalPathVerifier::LossTotals::add(const AlignedAggregate& g) {
  offered += g.up_count;
  delivered += g.down_count;
  const double s = g.duration_s();
  duration_s += s;
  if (s > max_duration_s) max_duration_s = s;
}

const PathAnalysis& IncrementalPathVerifier::analyze() {
  const PathLayout& layout = cfg_.layout;
  if (findings_.domains.empty() && findings_.links.empty()) {
    findings_.domains.resize(domain_pairs_.size());
    for (std::size_t i = 0; i < domain_pairs_.size(); ++i) {
      const std::size_t pos = domain_pairs_[i].up_pos;
      DomainFinding& f = findings_.domains[i];
      f.domain = layout.domain_of[pos];
      f.ingress = layout.hops[pos];
      f.egress = layout.hops[pos + 1];
    }
    findings_.links.resize(link_pairs_.size());
    for (std::size_t i = 0; i < link_pairs_.size(); ++i) {
      const std::size_t pos = link_pairs_[i].up_pos;
      LinkFinding& f = findings_.links[i];
      f.upstream_domain = layout.domain_of[pos];
      f.downstream_domain = layout.domain_of[pos + 1];
      f.upstream_hop = layout.hops[pos];
      f.downstream_hop = layout.hops[pos + 1];
    }
  }
  for (std::size_t i = 0; i < domain_pairs_.size(); ++i) {
    refresh(domain_pairs_[i], findings_.domains[i]);
  }
  for (std::size_t i = 0; i < link_pairs_.size(); ++i) {
    refresh(link_pairs_[i], findings_.links[i]);
  }
  return findings_;
}

void IncrementalPathVerifier::refresh(DomainPair& p, DomainFinding& f) {
  if (!both_reported(p)) return;
  // Delays: the slots before the first reserved one have settled and
  // join the kept prefix; the rest, reserved slots skipped, replace the
  // open suffix the last call appended.
  DelayState& ds = p.delay;
  std::vector<double>& delays = f.delay.sample_delays_ms;
  delays.resize(ds.kept);
  const std::size_t settled = ds.pending_egress.empty()
                                  ? ds.slots.size()
                                  : ds.pending_egress.front().slot;
  const auto settled_end =
      ds.slots.begin() + static_cast<std::ptrdiff_t>(settled);
  delays.insert(delays.end(), ds.slots.begin(), settled_end);
  ds.slots.erase(ds.slots.begin(), settled_end);
  for (DelayState::PendingEgress& e : ds.pending_egress) e.slot -= settled;
  ds.kept = delays.size();
  std::size_t from = 0;
  for (const DelayState::PendingEgress& e : ds.pending_egress) {
    delays.insert(delays.end(), ds.slots.begin() + from,
                  ds.slots.begin() + e.slot);
    from = e.slot + 1;
  }
  delays.insert(delays.end(), ds.slots.begin() + from, ds.slots.end());
  f.delay.common_samples = ds.sorted.size();
  f.delay.quantiles.clear();
  if (f.delay.common_samples > 0) {
    f.delay.quantiles.reserve(stats::kDelayQuantiles.size());
    for (const double q : stats::kDelayQuantiles) {
      f.delay.quantiles.push_back(stats::sorted_estimate(ds.sorted, q, 0.95));
    }
  }

  // Loss: the groups consumed since join the kept prefix, then the
  // tail's kept alignment replaces the open suffix.
  LossState& loss = p.loss;
  std::vector<AlignedAggregate>& details = f.loss.details;
  details.resize(loss.kept);
  for (const AlignedAggregate& g : loss.groups) {
    details.push_back(g);
    loss.kept_totals.add(g);
  }
  loss.groups.clear();
  loss.kept = details.size();
  const AlignmentResult& tail = p.tail_alignment;
  LossTotals totals = loss.kept_totals;
  for (const AlignedAggregate& g : tail.aligned) {
    details.push_back(g);
    totals.add(g);
  }
  f.loss.offered = totals.offered;
  f.loss.delivered = totals.delivered;
  f.loss.joined_aggregates = details.size();
  f.loss.patchup_migrations = loss.consumed_migrations + tail.migrations;
  f.loss.mean_granularity_s =
      details.empty() ? 0.0
                      : totals.duration_s / static_cast<double>(details.size());
  f.loss.max_granularity_s = totals.max_duration_s;
}

void IncrementalPathVerifier::refresh(LinkPair& p, LinkFinding& f) {
  if (!both_reported(p)) return;
  const HopState& up_info = hops_[p.up_pos];
  const HopState& down_info = hops_[p.up_pos + 1];

  // Batch order: the Eq.-1 MaxDiff verdict first, then per-round output
  // in upstream stream order (the finalized rounds, then the still-pending
  // ones resolved against everything seen so far).  The finalized output
  // since the last call joins the kept prefix.
  LinkSamplesState& ls = p.samples;
  LinkSampleCheck& samples = f.report.samples;
  keep_settled(samples.violations, ls.kept_violations, ls.settled.violations);
  keep_settled(samples.link_delays_ms, ls.kept_delays,
               ls.settled.link_delays_ms);
  samples.rounds_matched = ls.settled.rounds_matched;
  samples.common_samples = ls.settled.common_samples;
  // Match-once semantics without copying the pending rounds: flags by
  // down_rounds position, sized at the first claim, stand in for the
  // settle-time claim.
  std::vector<bool> claimed;
  for (const LinkSamplesState::Stamped& pending : ls.pending_up) {
    const net::PacketDigest marker = pending.round.marker_id;
    const auto match = find_key(ls.down_rounds, marker, kMarker);
    const auto at = static_cast<std::size_t>(match - ls.down_rounds.begin());
    if (match == ls.down_rounds.end() ||
        (at < claimed.size() && claimed[at])) {
      samples.violations.push_back(
          Inconsistency{InconsistencyKind::kMarkerMissing, marker, 0.0});
      continue;
    }
    check_sample_round_pair(pending.round, match->round, up_info.max_diff,
                            up_info.sample_threshold,
                            down_info.sample_threshold, samples);
    claimed.resize(ls.down_rounds.size());
    claimed[at] = true;
  }

  LinkAggregatesState& la = p.aggregates;
  LinkAggregateCheck& aggregates = f.report.aggregates;
  keep_settled(aggregates.violations, la.kept, la.violations);
  const AlignmentResult& tail = p.tail_alignment;
  aggregates.aggregates_checked = la.checked + tail.aligned.size();
  for (const AlignedAggregate& g : tail.aligned) {
    check_aligned_counts(g, aggregates.violations);
  }
}

IncrementalPathVerifier::ResidentStats
IncrementalPathVerifier::resident_stats() const {
  ResidentStats out;
  for (const DomainPair& p : domain_pairs_) {
    out.pending_ingress_samples += p.delay.ingress_times.size();
    out.pending_egress_samples += p.delay.pending_egress.size();
    out.retained_delays += p.delay.sorted.size();
    out.tail_aggregate_receipts += p.tail.receipt_count();
    out.retained_aligned_groups += p.loss.kept + p.loss.groups.size();
    out.expired_unmatched += p.delay.expired;
  }
  for (const LinkPair& p : link_pairs_) {
    out.pending_sample_rounds +=
        p.samples.pending_up.size() + p.samples.down_rounds.size();
    out.tail_aggregate_receipts += p.tail.receipt_count();
    out.expired_unmatched += p.samples.expired;
  }
  return out;
}

}  // namespace vpm::core
