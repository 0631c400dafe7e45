// Shared experiment plumbing for the benchmark harnesses: the paper's
// canonical scenario (a congested domain X bracketed by honest neighbours)
// and receipt-collection helpers.
#ifndef VPM_BENCH_EXPERIMENT_HPP
#define VPM_BENCH_EXPERIMENT_HPP

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "core/config.hpp"
#include "core/verifier.hpp"
#include "loss/gilbert_elliott.hpp"
#include "sim/congestion.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::bench {

/// Protocol parameters used across all benches: marker every ~1000 packets
/// (= every ~10 ms at the paper's 100 kpps), J = 10 ms.
[[nodiscard]] inline core::ProtocolParams bench_protocol() {
  core::ProtocolParams p;
  p.marker_rate = 1e-3;
  p.reorder_window_j = net::milliseconds(10);
  return p;
}

/// RAII scratch directory for benches that hit real files (segment-store
/// measurements).  Shares the `vpm-test-` prefix with the test suite's
/// TempDir so the CI tmpdir-hygiene step catches benches that litter too.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("vpm-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort; never throws
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

/// The §7.2 methodology in one object: a packet sequence, the congestion
/// delay series it would see inside domain X, and the loss model X applies.
struct XDomainScenario {
  std::vector<net::Packet> trace;
  /// 3-domain path (S - X - D): hop 0 = S egress, 1 = X ingress,
  /// 2 = X egress, 3 = D ingress.
  sim::PathRunResult run;
  /// Ground-truth delay (ms) through X for every delivered packet.
  std::vector<double> true_x_delays_ms;
  double requested_loss = 0.0;
};

struct XDomainConfig {
  double packets_per_second = 100'000.0;  ///< the paper's sequence rate
  double duration_s = 10.0;
  double loss_rate = 0.0;                 ///< Gilbert-Elliott inside X
  double mean_loss_burst = 10.0;
  sim::CongestionKind congestion = sim::CongestionKind::kBurstyUdp;
  /// Shorter, sharper UDP bursts than the sim default: the delay spikes
  /// stay in the 0-15 ms band of the paper's Figure 2 instead of filling
  /// the whole buffer.
  sim::UdpOnOffFlow::Config udp = {
      .peak_bps = 400e6,
      .packet_bytes = 1400,
      .mean_on = net::milliseconds(30),
      .mean_off = net::milliseconds(150),
      .seed = 1,
  };
  std::uint64_t seed = 1;
};

[[nodiscard]] XDomainScenario make_x_scenario(const XDomainConfig& cfg);

/// A one-path monitoring cache over the default prefix pair every bench
/// trace draws from, for the HOP between `prev` and `next`.
[[nodiscard]] collector::MonitoringCache one_path_cache(
    const core::ProtocolParams& protocol, const core::HopTuning& tuning,
    net::HopId prev = net::kNoHop, net::HopId next = net::kNoHop,
    net::Duration max_diff = net::milliseconds(5));

/// Run a one_path_cache over one HOP's observations and drain its
/// receipts, open aggregate flushed.
[[nodiscard]] core::PathDrain collect_hop(
    std::span<const net::Packet> trace, const sim::ObsSeq& observations,
    net::HopId prev, net::HopId next, const core::ProtocolParams& protocol,
    const core::HopTuning& tuning,
    net::Duration max_diff = net::milliseconds(5));

/// printf a horizontal rule of the given width.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// ------------------------------------------------------------------------
// Machine-readable bench output.
//
// Every data-plane bench binary writes a BENCH_<name>.json next to the
// console table, so CI (and the roadmap's measured-curve entries) can
// consume per-packet numbers without scraping benchmark text:
//
//   {
//     "bench": "fastpath",
//     "simd_tier": "avx2",
//     "host": {"cores": 4, "cpu_model": "...", "compiler": "g++ 12.2.0"},
//     "results": [
//       {"name": "BM_CacheObservePathSweep/100000",
//        "ns_per_packet": 139.2, "mpps": 7.18, "hashes_per_packet": 1.0},
//       ...
//     ]
//   }
//
// ns_per_packet/mpps derive from SetItemsProcessed (items == packets, the
// convention every data-plane bench in this tree follows);
// hashes_per_packet is emitted when the benchmark sets a "hashes/pkt"
// counter and omitted otherwise.  A bench whose items are something else
// names them: with item "receipt" a row carries ns_per_receipt and no
// rate.  Runs that processed no items (setup failures, pure-ms benches
// without items) are skipped, never written as zeros.

/// Console output plus a JSON export of per-packet rates (see above).
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override;

  /// Serialize everything reported so far to `path` (overwrites), with
  /// one `item` per benchmark item.  Returns false (and keeps the console
  /// output intact) on I/O failure.
  bool write(const std::string& bench_name, const std::string& path,
             const std::string& item) const;

 private:
  struct Row {
    std::string name;
    double ns_per_packet = 0;
    double mpps = 0;
    double hashes_per_packet = 0;
    bool has_hashes = false;
    double wire_bytes_per_packet = 0;
    bool has_wire_bytes = false;
  };
  std::vector<Row> rows_;
};

/// Standard bench main body: run all registered benchmarks with console
/// output and write BENCH JSON to `json_path`, one `item` per benchmark
/// item.  Returns the process exit code.
int run_benchmarks_with_json(int argc, char** argv,
                             const std::string& bench_name,
                             const std::string& json_path,
                             const std::string& item = "packet");

}  // namespace vpm::bench

#endif  // VPM_BENCH_EXPERIMENT_HPP
