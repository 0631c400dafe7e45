// Verifier-side alignment cost: one HOP pair's AggregateTail, fed round by
// round as IncrementalPathVerifier::add_round feeds it.
//
//   * BM_TailSettle/W — W ids per AggTrans window.  A lossy, reordered
//     packet stream is cut into both HOPs' aggregate receipts: a packet
//     cuts by its id, about once per 2W packets, and each boundary's
//     windows hold W ids on each side of it.  Each round ships the
//     receipts whose `after` window closed in it, the upstream HOP first.
//     Each side's receipts are prepared (core::prepare_aggregates),
//     appended to the tail and settled: consume_aligned_prefix with a
//     margin of 2 matched boundaries until a pass consumes nothing.
//
// One iteration runs the whole stream, about 512 receipts on the two
// sides; items are receipts, so BENCH_verifier.json records ns per
// receipt.  The copy of the receipts each iteration needs (preparing
// moves their windows out) is untimed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/alignment.hpp"
#include "experiment.hpp"

namespace {

using namespace vpm;

using Round = std::vector<core::AggregateReceipt>;

struct TailFeed {
  std::vector<Round> up;    ///< per round, the upstream HOP's receipts
  std::vector<Round> down;  ///< ... and the downstream HOP's
  std::size_t receipts = 0;
};

/// A packet as a HOP sees it: its id, and its upstream position as time.
struct Packet {
  net::PacketDigest id = 0;
  std::size_t time = 0;
};

/// One HOP's receipts over `pkts`, each placed in the round its `after`
/// window closes in (the open aggregate at the end ships in the last).
void cut(const std::vector<Packet>& pkts, std::uint64_t spacing,
         std::size_t window, std::size_t round_packets,
         std::vector<Round>& rounds) {
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < pkts.size(); ++k) {
    if (k == 0 || pkts[k].id % spacing == 0) starts.push_back(k);
  }
  for (std::size_t a = 0; a < starts.size(); ++a) {
    const std::size_t begin = starts[a];
    const std::size_t end =
        a + 1 < starts.size() ? starts[a + 1] : pkts.size();
    core::AggregateReceipt r;
    r.agg = core::AggId{.first = pkts[begin].id, .last = pkts[end - 1].id};
    r.packet_count = static_cast<std::uint32_t>(end - begin);
    r.opened_at = net::Timestamp{static_cast<std::int64_t>(begin) * 1000};
    r.closed_at = net::Timestamp{static_cast<std::int64_t>(end - 1) * 1000};
    std::size_t round = rounds.size() - 1;
    if (end < pkts.size()) {
      const std::size_t close = std::min(end + window, pkts.size());
      for (std::size_t k = end - std::min(window, end); k < end; ++k) {
        r.trans.before.push_back(pkts[k].id);
      }
      for (std::size_t k = end; k < close; ++k) {
        r.trans.after.push_back(pkts[k].id);
      }
      round = std::min(round, pkts[close - 1].time / round_packets);
    }
    rounds[round].push_back(std::move(r));
  }
}

/// The receipts of 256 expected aggregates of 2W packets: 1 % loss between
/// the HOPs, and 10 % of packets moved back up to eight places.  Rounds
/// last two aggregates on average.
const TailFeed& shared_feed(std::size_t window) {
  static std::map<std::size_t, TailFeed> cache;
  if (const auto it = cache.find(window); it != cache.end()) {
    return it->second;
  }
  const std::uint64_t spacing = 2 * window;
  const std::size_t n = 256 * spacing;
  const std::size_t round_packets = 2 * spacing;
  std::mt19937_64 rng(window);
  std::vector<Packet> up;
  up.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    up.push_back(Packet{.id = static_cast<net::PacketDigest>(rng()), .time = k});
  }
  std::vector<Packet> down;
  for (const Packet& p : up) {
    if (rng() % 100 != 0) down.push_back(p);
  }
  for (std::size_t k = 1; k < down.size(); ++k) {
    if (rng() % 10 != 0) continue;
    const std::size_t back = 1 + rng() % std::min<std::size_t>(8, k);
    std::rotate(down.begin() + static_cast<std::ptrdiff_t>(k - back),
                down.begin() + static_cast<std::ptrdiff_t>(k),
                down.begin() + static_cast<std::ptrdiff_t>(k + 1));
  }

  TailFeed f;
  const std::size_t rounds = (n + round_packets - 1) / round_packets;
  f.up.resize(rounds);
  f.down.resize(rounds);
  cut(up, spacing, window, round_packets, f.up);
  cut(down, spacing, window, round_packets, f.down);
  for (std::size_t r = 0; r < rounds; ++r) {
    f.receipts += f.up[r].size() + f.down[r].size();
  }
  return cache.emplace(window, std::move(f)).first->second;
}

/// One side's round into the tail, then the verifier's settle.
void feed(core::AggregateTail& tail, bool is_up, Round receipts,
          std::vector<core::AlignedAggregate>& out,
          core::AlignmentResult& kept, std::size_t& migrations) {
  if (receipts.empty()) return;
  std::vector<core::PreparedAggregate> entries =
      core::prepare_aggregates(std::move(receipts));
  is_up ? tail.append_up(std::move(entries))
        : tail.append_down(std::move(entries));
  for (;;) {
    const core::TailConsumeStats stats =
        core::consume_aligned_prefix(tail, /*margin_boundaries=*/2, out, kept);
    if (stats.groups == 0) break;
    migrations += stats.migrations;
  }
}

void BM_TailSettle(benchmark::State& state) {
  const TailFeed& f = shared_feed(static_cast<std::size_t>(state.range(0)));
  std::size_t migrations = 0;
  std::size_t groups = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TailFeed round_copy = f;
    state.ResumeTiming();
    core::AggregateTail tail;
    std::vector<core::AlignedAggregate> out;
    core::AlignmentResult kept;
    migrations = 0;
    for (std::size_t r = 0; r < f.up.size(); ++r) {
      feed(tail, true, std::move(round_copy.up[r]), out, kept, migrations);
      feed(tail, false, std::move(round_copy.down[r]), out, kept, migrations);
    }
    migrations += kept.migrations;
    groups = out.size() + kept.aligned.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(f.receipts) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["receipts"] = static_cast<double>(f.receipts);
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["migrations"] = static_cast<double>(migrations);
}
BENCHMARK(BM_TailSettle)->Arg(8)->Arg(64)->Arg(512)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return vpm::bench::run_benchmarks_with_json(argc, argv, "verifier",
                                              "BENCH_verifier.json", "receipt");
}
