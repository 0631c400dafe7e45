// The minimal complete VPM deployment the benchmark drives: four HOPs
// S -> X -> X -> D, each with its own collector, wire exporter, importer
// and fetch client, one receipt store, and one incremental verifier per
// path.  Only public layer APIs are called; every call into a layer sits
// inside a tracer span.
#ifndef E2EBENCH_DEPLOYMENT_HPP
#define E2EBENCH_DEPLOYMENT_HPP

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "collector/sharded_collector.hpp"
#include "core/incremental_verifier.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "inputs.hpp"
#include "tracer.hpp"

namespace e2e {

namespace core = vpm::core;
namespace dissem = vpm::dissem;
namespace collector = vpm::collector;

/// What the benchmark knows independently of the program, per HOP and
/// path, summed over every round so far.  Allocated before set-up, so the
/// program's heap figure excludes it.
struct Ledger {
  explicit Ledger(std::size_t paths);
  std::array<std::vector<std::uint64_t>, kHops> observed;   ///< fed packets
  std::array<std::vector<std::uint64_t>, kHops> wire;       ///< shipped counts
  std::array<std::vector<std::uint32_t>, kHops> delivered;  ///< rounds fed
  std::vector<std::uint64_t> dropped;                       ///< X's drops
  std::uint64_t gaps = 0;
  std::uint64_t ingest_rejects = 0;
};

class Deployment {
 public:
  struct SetupTimes {
    double collectors_s = 0.0;
    double store_s = 0.0;  ///< store open, exporters, importers, clients
    double verifiers_s = 0.0;
    [[nodiscard]] double total() const {
      return collectors_s + store_s + verifiers_s;
    }
  };

  /// Builds every component (the timed set-up).  `store_dir` is used only
  /// by a disk-store workload and must be empty.
  Deployment(const WorkloadSpec& spec, const std::vector<net::PrefixPair>& paths,
             const std::filesystem::path& store_dir, Tracer& tracer,
             Ledger& ledger);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] const SetupTimes& setup_times() const noexcept {
    return setup_;
  }

  struct RoundTimes {
    std::int64_t start_ns = 0;
    std::int64_t observed_ns = 0;  ///< the last HOP finished observing
    std::int64_t end_ns = 0;       ///< every path's verdict covers the round
  };
  /// One closed-loop round: every HOP observes the stamped traffic, then
  /// drain -> (lie) -> export -> ingest -> poll/decode -> add_round ->
  /// analyze for every path.
  RoundTimes run_round(const Traffic& traffic);

  /// Correctness of the round just run (`round` counts from 0); returns
  /// an empty string when every check passes, else the first failure.
  [[nodiscard]] std::string check_round(std::uint64_t round);

  /// Rounds (from 0) in which the first verdict implicating X -> D came
  /// out; -1 while none has.
  [[nodiscard]] std::int64_t first_finding_round() const noexcept {
    return first_finding_round_;
  }
  /// Most threads seen alive during threaded ingest (0 if synchronous).
  [[nodiscard]] std::size_t max_threads_seen() const noexcept {
    return max_threads_;
  }
  /// Threads threaded ingest may have alive: the caller, which produces,
  /// and one HOP's shard workers.
  [[nodiscard]] std::size_t max_ingest_threads() const noexcept {
    return 1 + spec_.worker_shards;
  }

  // --- end-of-run layer figures ------------------------------------------
  [[nodiscard]] std::uint64_t envelope_bytes() const;
  [[nodiscard]] std::uint64_t envelopes_sealed() const;
  [[nodiscard]] std::uint64_t sections_written() const;
  [[nodiscard]] collector::DataPlaneOps data_plane_ops() const;
  [[nodiscard]] std::size_t arena_bytes() const;
  [[nodiscard]] std::size_t store_payload_bytes() const;
  [[nodiscard]] std::size_t segments_unlinked() const;
  [[nodiscard]] core::IncrementalPathVerifier::ResidentStats resident_stats()
      const;

 private:
  void observe_hop(std::size_t hop, const Traffic& traffic);
  /// Open-receipt packets a HOP has observed but not yet shipped.
  [[nodiscard]] std::uint64_t unshipped(std::size_t hop,
                                        std::size_t path) const;

  const WorkloadSpec spec_;
  Tracer& tracer_;
  Ledger& ledger_;
  core::PathLayout layout_;
  std::size_t paths_ = 0;
  SetupTimes setup_;

  std::vector<std::unique_ptr<collector::ShardedCollector>> collectors_;
  /// Global path index -> (shard, shard-local index), for the
  /// conservation check's reads of open receipts.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> location_;
  std::unique_ptr<dissem::ReceiptStore> store_;
  std::vector<std::unique_ptr<dissem::WireExporter>> exporters_;
  std::vector<std::unique_ptr<dissem::WireImporter>> importers_;
  std::vector<core::IncrementalPathVerifier> verifiers_;
  std::vector<std::unique_ptr<dissem::FetchClient>> clients_;
  std::vector<core::PathAnalysis> analyses_;

  std::int64_t first_finding_round_ = -1;
  std::size_t max_threads_ = 0;
  bool threads_checked_ = false;
};

}  // namespace e2e

#endif  // E2EBENCH_DEPLOYMENT_HPP
