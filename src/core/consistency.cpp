#include "core/consistency.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/small_sort.hpp"
#include "net/digest.hpp"

namespace vpm::core {

std::string to_string(InconsistencyKind k) {
  switch (k) {
    case InconsistencyKind::kMaxDiffMismatch:
      return "MaxDiff mismatch (Eq. 1)";
    case InconsistencyKind::kDelayBound:
      return "timestamp difference exceeds MaxDiff (Eq. 2)";
    case InconsistencyKind::kMissingDownstream:
      return "sample delivered upstream but missing downstream";
    case InconsistencyKind::kMissingUpstream:
      return "downstream sample missing from upstream receipt";
    case InconsistencyKind::kMarkerMissing:
      return "marker missing downstream";
    case InconsistencyKind::kCountMismatch:
      return "aggregate count mismatch across link";
    case InconsistencyKind::kNegativeLoss:
      return "downstream counted more packets than upstream";
  }
  return "unknown";
}

namespace {

using RoundRecords = std::vector<std::pair<net::PacketDigest, net::Timestamp>>;

/// Advances `it` to the first record of `records` (ascending ids) whose id
/// is not below `id`; true if that record is `id`'s.
bool seek(RoundRecords::const_iterator& it, const RoundRecords& records,
          net::PacketDigest id) {
  while (it != records.end() && it->first < id) ++it;
  return it != records.end() && it->first == id;
}

}  // namespace

void SampleRoundSplitter::feed(std::span<const SampleRecord> records,
                               FunctionRef<void(SampleRound&&)> on_round) {
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  const auto same_id = [](const auto& a, const auto& b) {
    return a.first == b.first;
  };
  for (const SampleRecord& s : records) {
    if (!s.is_marker) {
      current_.records.emplace_back(s.pkt_id, s.time);
      continue;
    }
    current_.marker_id = s.pkt_id;
    current_.marker_time = s.time;
    // Stable, so `unique` keeps each id's stream-first record.
    RoundRecords& recs = current_.records;
    stable_sort_fresh(recs.begin(), recs.end(), by_id);
    recs.erase(std::unique(recs.begin(), recs.end(), same_id), recs.end());
    on_round(std::move(current_));
    current_ = SampleRound{};
  }
}

void check_sample_round_pair(const SampleRound& ur, const SampleRound& dr,
                             net::Duration max_diff,
                             std::uint32_t up_sample_threshold,
                             std::uint32_t down_sample_threshold,
                             LinkSampleCheck& out) {
  ++out.rounds_matched;

  const auto check_pair = [&](net::PacketDigest id, net::Timestamp t_up,
                              net::Timestamp t_down) {
    ++out.common_samples;
    const net::Duration diff = t_down - t_up;
    out.link_delays_ms.push_back(diff.milliseconds());
    if (diff > max_diff) {
      out.violations.push_back(Inconsistency{InconsistencyKind::kDelayBound,
                                             id,
                                             (diff - max_diff).milliseconds()});
    }
  };

  check_pair(ur.marker_id, ur.marker_time, dr.marker_time);

  auto dit = dr.records.begin();
  for (const auto& [id, t_up] : ur.records) {
    if (seek(dit, dr.records, id)) {
      check_pair(id, t_up, dit->second);
      continue;
    }
    // Should the downstream HOP have sampled it?  Its disclosed sigma
    // tells us (subset property, §5.2).
    if (net::DigestEngine::sample_value(id, ur.marker_id) >
        down_sample_threshold) {
      out.violations.push_back(Inconsistency{
          InconsistencyKind::kMissingDownstream, id, 0.0});
    }
  }
  auto uit = ur.records.begin();
  for (const auto& [id, t_down] : dr.records) {
    if (seek(uit, ur.records, id)) continue;
    if (net::DigestEngine::sample_value(id, dr.marker_id) >
        up_sample_threshold) {
      // The upstream HOP should have sampled this packet yet claims it
      // never saw it — packets cannot materialise on a link.
      out.violations.push_back(
          Inconsistency{InconsistencyKind::kMissingUpstream, id, 0.0});
    }
  }
}

namespace {

std::vector<SampleRound> split_rounds(const SampleReceipt& r) {
  std::vector<SampleRound> rounds;
  SampleRoundSplitter splitter;
  splitter.feed(r.samples,
                [&](SampleRound&& round) { rounds.push_back(std::move(round)); });
  // Records after the last marker have undecided fate upstream/downstream
  // pairing-wise; Algorithm 1 never emits them, so the splitter's pending
  // round is empty for honest receipts and silently dropped for tampered
  // ones.
  return rounds;
}

}  // namespace

LinkSampleCheck check_link_samples(const SampleReceipt& up,
                                   const SampleReceipt& down) {
  LinkSampleCheck out;

  if (up.path.max_diff != down.path.max_diff) {
    out.violations.push_back(
        Inconsistency{InconsistencyKind::kMaxDiffMismatch, 0,
                      (up.path.max_diff - down.path.max_diff).milliseconds()});
  }
  const net::Duration max_diff = up.path.max_diff;

  const std::vector<SampleRound> up_rounds = split_rounds(up);
  const std::vector<SampleRound> down_rounds = split_rounds(down);
  std::unordered_map<net::PacketDigest, std::size_t> down_by_marker;
  down_by_marker.reserve(down_rounds.size() * 2);
  for (std::size_t i = 0; i < down_rounds.size(); ++i) {
    down_by_marker.emplace(down_rounds[i].marker_id, i);
  }

  for (const SampleRound& ur : up_rounds) {
    const auto it = down_by_marker.find(ur.marker_id);
    if (it == down_by_marker.end()) {
      // Section 5.3: markers are always sampled and reported, so a marker
      // the upstream HOP claims to have delivered but the downstream HOP
      // never reported is a loss on the link or a lie.
      out.violations.push_back(
          Inconsistency{InconsistencyKind::kMarkerMissing, ur.marker_id, 0.0});
      continue;
    }
    check_sample_round_pair(ur, down_rounds[it->second], max_diff,
                            up.sample_threshold, down.sample_threshold, out);
  }
  return out;
}

void check_aligned_counts(const AlignedAggregate& a,
                          std::vector<Inconsistency>& out) {
  const std::int64_t delta = a.lost();
  if (delta > 0) {
    out.push_back(Inconsistency{InconsistencyKind::kCountMismatch,
                                a.boundary_id, static_cast<double>(delta)});
  } else if (delta < 0) {
    out.push_back(Inconsistency{InconsistencyKind::kNegativeLoss,
                                a.boundary_id, static_cast<double>(-delta)});
  }
}

LinkAggregateCheck check_link_aggregates(
    std::span<const AggregateReceipt> up,
    std::span<const AggregateReceipt> down) {
  LinkAggregateCheck out;
  const AlignmentResult aligned = align_aggregates(up, down, true);
  out.aggregates_checked = aligned.aligned.size();
  for (const AlignedAggregate& a : aligned.aligned) {
    check_aligned_counts(a, out.violations);
  }
  return out;
}

}  // namespace vpm::core
