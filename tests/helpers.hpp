// Shared test fixtures/helpers for the VPM test suite.
#ifndef VPM_TESTS_HELPERS_HPP
#define VPM_TESTS_HELPERS_HPP

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/hop_monitor.hpp"
#include "core/verifier.hpp"
#include "net/packet.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::test {

/// RAII scratch directory under the system temp root, removed (with
/// contents) on destruction even when the test fails.  All names share
/// the `vpm-test-` prefix so the CI tmpdir-hygiene step can assert that
/// no test leaves segment files behind.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("vpm-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort; never throws
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

/// The text of a checked-in scenario file under tests/scenarios/.
inline std::string load_scenario_file(const std::string& name) {
  const std::string path = std::string(VPM_SCENARIO_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

/// A small, fast default trace (override fields as needed).
inline trace::TraceConfig small_trace_config(std::uint64_t seed = 42) {
  trace::TraceConfig cfg;
  cfg.prefixes = trace::default_prefix_pair();
  cfg.packets_per_second = 20'000.0;
  cfg.duration = net::seconds(2);
  cfg.flow_count = 200;
  cfg.seed = seed;
  return cfg;
}

/// Default protocol parameters used across tests: marker every ~500
/// packets so even short traces contain many rounds.
inline core::ProtocolParams test_protocol() {
  core::ProtocolParams p;
  p.marker_rate = 1.0 / 500.0;
  p.reorder_window_j = net::milliseconds(10);
  return p;
}

/// Feed a HOP's observation sequence into a monitor.
inline void feed(core::HopMonitor& monitor, std::span<const net::Packet> trace,
                 const sim::ObsSeq& observations) {
  for (const sim::Obs& o : observations) {
    monitor.observe(trace[o.pkt], o.when);
  }
}

/// Build a monitor for the HOP between `prev` and `next` with the given
/// tuning.
inline core::HopMonitor make_monitor(const core::ProtocolParams& protocol,
                                     const core::HopTuning& tuning,
                                     net::HopId prev, net::HopId next,
                                     net::Duration max_diff =
                                         net::milliseconds(5)) {
  core::HopMonitorConfig cfg;
  cfg.protocol = protocol;
  cfg.tuning = tuning;
  cfg.path = net::PathId{
      .header_spec_id = protocol.header_spec.id(),
      .prefixes = trace::default_prefix_pair(),
      .previous_hop = prev,
      .next_hop = next,
      .max_diff = max_diff,
  };
  return core::HopMonitor{cfg};
}

/// Run monitors over every HOP of a path and collect receipts into a
/// verifier.  HOP ids are hop position + 1 (paper numbering).
inline core::PathVerifier monitor_path(
    std::span<const net::Packet> trace, const sim::PathRunResult& run,
    const core::ProtocolParams& protocol,
    std::span<const core::HopTuning> tuning_per_hop,
    net::Duration max_diff = net::milliseconds(5)) {
  core::PathVerifier verifier;
  const std::size_t hops = run.hop_observations.size();
  for (std::size_t pos = 0; pos < hops; ++pos) {
    const net::HopId self = static_cast<net::HopId>(pos + 1);
    const net::HopId prev = pos == 0 ? net::kNoHop
                                     : static_cast<net::HopId>(pos);
    const net::HopId next = pos + 1 == hops
                                ? net::kNoHop
                                : static_cast<net::HopId>(pos + 2);
    core::HopMonitor monitor =
        make_monitor(protocol, tuning_per_hop[pos % tuning_per_hop.size()],
                     prev, next, max_diff);
    feed(monitor, trace, run.hop_observations[pos]);
    core::HopReceipts receipts;
    receipts.hop = self;
    receipts.samples = monitor.collect_samples();
    receipts.aggregates = monitor.collect_aggregates(/*flush_open=*/true);
    verifier.add_hop(std::move(receipts));
  }
  return verifier;
}

/// The Fig.-1 PathLayout for a 5-domain run (HOPs 1..8).
inline core::PathLayout figure_one_layout() {
  return core::PathLayout{
      .hops = {1, 2, 3, 4, 5, 6, 7, 8},
      .domain_of = {"S", "L", "L", "X", "X", "N", "N", "D"},
  };
}

}  // namespace vpm::test

#endif  // VPM_TESTS_HELPERS_HPP
