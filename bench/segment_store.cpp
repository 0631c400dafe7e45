// Disk-path costs of the dissemination segment store (ISSUE 9).
//
//   * BM_SegmentAppend — steady-state producer churn: append a batch of
//     sealed envelopes, then GC it (erase_through frees whole segment
//     files), so the directory stays bounded and the number includes the
//     roll/seal/unlink cycle a long-running store actually pays.
//   * BM_SegmentReplay — crash-restart cost: re-open a populated
//     directory (recovery scan CRC-checks every record) and walk every
//     retained payload, the work a store does before serving after a
//     crash.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dissem/envelope.hpp"
#include "dissem/segment_store.hpp"
#include "experiment.hpp"

namespace {

using namespace vpm;

constexpr dissem::DomainKey kKey = 0xBE7C4;
constexpr std::size_t kPayloadBytes = 256;  // a typical receipt chunk

dissem::Envelope make_env(dissem::DomainId producer, std::uint64_t seq) {
  std::vector<std::byte> payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((seq + i) & 0xFF);
  }
  return dissem::seal(producer, seq, std::move(payload), kKey);
}

// One iteration = append kBatch envelopes, then erase them (whole-file
// unlink at the floor): the steady-state cycle of a producer whose
// consumers keep up.  Items are appended envelopes.
void BM_SegmentAppend(benchmark::State& state) {
  constexpr std::size_t kBatch = 2048;
  bench::ScratchDir scratch("bench-seg-append");
  dissem::SegmentStoreConfig cfg;
  cfg.directory = scratch.path();
  cfg.max_segment_bytes = 64 * 1024;
  dissem::SegmentStore store(cfg);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) store.append(make_env(1, ++seq));
    store.erase_through(1, seq);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
  state.counters["segment_kb"] =
      static_cast<double>(cfg.max_segment_bytes) / 1e3;
}
BENCHMARK(BM_SegmentAppend)->Unit(benchmark::kMillisecond);

// One iteration = open a populated directory (recovery scan: length and
// CRC of every record re-checked) and visit every retained payload.
// Items are replayed envelopes.
void BM_SegmentReplay(benchmark::State& state) {
  constexpr std::size_t kRecords = 16 * 1024;
  bench::ScratchDir scratch("bench-seg-replay");
  dissem::SegmentStoreConfig cfg;
  cfg.directory = scratch.path();
  cfg.max_segment_bytes = 64 * 1024;
  {
    dissem::SegmentStore seed_store(cfg);
    for (std::uint64_t s = 1; s <= kRecords; ++s) {
      seed_store.append(make_env(1, s));
    }
  }
  std::size_t visited = 0;
  for (auto _ : state) {
    dissem::SegmentStore store(cfg);  // recovery-on-open
    store.visit_after(1, 0,
                      [&visited](std::uint64_t, std::span<const std::byte>) {
                        ++visited;
                      });
  }
  if (visited != state.iterations() * kRecords) {
    state.SkipWithError("replay lost records");
    return;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(visited));
}
BENCHMARK(BM_SegmentReplay)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return vpm::bench::run_benchmarks_with_json(argc, argv, "dissem",
                                              "BENCH_dissem.json");
}
