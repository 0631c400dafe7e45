#include "sim/scenario_common.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace vpm::sim::scenario {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::vector<net::PathId> path_table(
    const collector::MonitoringCache::Config& cfg,
    const std::vector<net::PrefixPair>& paths) {
  std::vector<net::PathId> out;
  out.reserve(paths.size());
  for (const net::PrefixPair& pair : paths) {
    out.push_back(net::PathId{
        .header_spec_id = cfg.protocol.header_spec.id(),
        .prefixes = pair,
        .previous_hop = cfg.previous_hop,
        .next_hop = cfg.next_hop,
        .max_diff = cfg.max_diff,
    });
  }
  return out;
}

std::vector<core::RoundGap> dedupe_gaps(std::vector<core::RoundGap> raw) {
  std::map<std::uint64_t, core::RoundGap> by_first;
  for (core::RoundGap& g : raw) {
    auto [it, inserted] = by_first.try_emplace(g.first_sequence, g);
    if (inserted) continue;
    core::RoundGap& kept = it->second;
    kept.last_sequence = std::max(kept.last_sequence, g.last_sequence);
    kept.affected_paths.insert(kept.affected_paths.end(),
                               g.affected_paths.begin(),
                               g.affected_paths.end());
    std::sort(kept.affected_paths.begin(), kept.affected_paths.end());
    kept.affected_paths.erase(std::unique(kept.affected_paths.begin(),
                                          kept.affected_paths.end()),
                              kept.affected_paths.end());
  }
  std::vector<core::RoundGap> out;
  out.reserve(by_first.size());
  for (auto& [first, g] : by_first) out.push_back(std::move(g));
  return out;
}

void add_stats(dissem::FetchClient::Stats& acc,
               const dissem::FetchClient::Stats& s) {
  acc.polls += s.polls;
  acc.backoff_skips += s.backoff_skips;
  acc.envelopes_fed += s.envelopes_fed;
  acc.refetch_skips += s.refetch_skips;
  acc.deliveries += s.deliveries;
  acc.groups_delivered += s.groups_delivered;
  acc.gaps_reported += s.gaps_reported;
  acc.transient_retries += s.transient_retries;
  acc.fatal_errors += s.fatal_errors;
  acc.acks += s.acks;
  acc.ack_rejections += s.ack_rejections;
  acc.gap_wait_polls += s.gap_wait_polls;
}

trace::MultiPathConfig multi_path_config(std::size_t path_count, double zipf_s,
                                         double total_packets_per_second,
                                         net::Duration duration,
                                         std::uint64_t seed) {
  trace::MultiPathConfig mcfg;
  mcfg.path_count = path_count;
  mcfg.zipf_s = zipf_s;
  mcfg.total_packets_per_second = total_packets_per_second;
  mcfg.duration = duration;
  mcfg.seed = seed;
  return mcfg;
}

net::Timestamp quantize_us(net::Timestamp t) {
  return net::Timestamp{t.nanoseconds() / 1000 * 1000};
}

std::size_t round_of(net::Timestamp origin, std::int64_t round_ns,
                     std::size_t rounds) {
  auto r = static_cast<std::size_t>(origin.nanoseconds() / round_ns);
  if (r >= rounds) r = rounds - 1;
  return r;
}

}  // namespace vpm::sim::scenario
