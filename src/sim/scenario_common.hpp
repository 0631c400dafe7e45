// Shared plumbing for the scenario drivers — the config-driven
// ScenarioEngine (`sim/scenario_engine`) and `sim/shard_scenario`, whose
// soak compares a single-threaded cache against a sharded collector fed
// by threaded producers, which the engine does not run: the traffic
// config, wire-time quantisation and round bucketing, PathId table
// construction, gap deduplication, and fetch-client stat accumulation.
// The soak suites pin these helpers byte-for-byte — change semantics here
// and the pins fail, by design.
#ifndef VPM_SIM_SCENARIO_COMMON_HPP
#define VPM_SIM_SCENARIO_COMMON_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/verifier.hpp"
#include "dissem/fetch_client.hpp"
#include "net/path_id.hpp"
#include "net/prefix.hpp"
#include "net/time.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::sim::scenario {

/// splitmix64 finalizer — deterministic per-path and per-event seeds.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// The consumer-side PathId table for one HOP's receipts: same header
/// spec, neighbor hops, and MaxDiff the producer's collector stamps.
[[nodiscard]] std::vector<net::PathId> path_table(
    const collector::MonitoringCache::Config& cfg,
    const std::vector<net::PrefixPair>& paths);

/// Merge crash re-declarations: a client killed after reporting a gap but
/// before acking past it re-fetches and re-declares the same gap (same
/// first missing sequence) — keep the widest range and the union of
/// attributed paths.
[[nodiscard]] std::vector<core::RoundGap> dedupe_gaps(
    std::vector<core::RoundGap> raw);

/// Sum one FetchClient incarnation's stats into an accumulator (crash
/// rebuilds retire several incarnations per hop).
void add_stats(dissem::FetchClient::Stats& acc,
               const dissem::FetchClient::Stats& s);

/// The traffic config every scenario driver builds the same way: a
/// multi-path Zipf mix over a fixed duration.
[[nodiscard]] trace::MultiPathConfig multi_path_config(
    std::size_t path_count, double zipf_s, double total_packets_per_second,
    net::Duration duration, std::uint64_t seed);

/// Quantise a timestamp to the wire's 1 µs resolution (floor), so drains
/// round-trip `==`-equal through export/import.
[[nodiscard]] net::Timestamp quantize_us(net::Timestamp t);

/// The reporting round an origin time falls in, clamped to the last round
/// (trailing packets emitted exactly at the duration boundary).
[[nodiscard]] std::size_t round_of(net::Timestamp origin,
                                   std::int64_t round_ns, std::size_t rounds);

}  // namespace vpm::sim::scenario

#endif  // VPM_SIM_SCENARIO_COMMON_HPP
