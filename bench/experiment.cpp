#include "experiment.hpp"

#include <fstream>
#include <thread>

#include "net/simd_dispatch.hpp"

namespace vpm::bench {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

/// The first "model name" in /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

/// `s` as a JSON string literal (quotes and backslashes escaped).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

XDomainScenario make_x_scenario(const XDomainConfig& cfg) {
  XDomainScenario s;
  s.requested_loss = cfg.loss_rate;

  trace::TraceConfig tcfg;
  tcfg.prefixes = trace::default_prefix_pair();
  tcfg.packets_per_second = cfg.packets_per_second;
  tcfg.duration = net::seconds_f(cfg.duration_s);
  // Near-Poisson foreground: the delay variance comes from the congestion
  // scenario's background flows (§7.2), loss from Gilbert-Elliott.
  tcfg.burst_multiplier = 1.2;
  tcfg.burst_fraction = 0.2;
  tcfg.seed = cfg.seed;
  s.trace = trace::generate_trace(tcfg);

  // Delay series for X from the congestion simulator.
  sim::CongestionConfig ccfg;
  ccfg.kind = cfg.congestion;
  ccfg.udp = cfg.udp;
  ccfg.seed = cfg.seed + 101;
  const sim::CongestionResult congestion =
      sim::simulate_congestion(ccfg, s.trace);

  // Loss process inside X.
  static thread_local std::vector<loss::GilbertElliott> loss_keeper;
  loss_keeper.clear();
  loss_keeper.push_back(loss::GilbertElliott::with_target_loss(
      cfg.loss_rate, cfg.mean_loss_burst, cfg.seed + 202));

  sim::PathEnvironment env;
  env.domains.resize(3);
  env.links.resize(2);
  env.seed = cfg.seed + 303;
  env.domains[1].delay_of = [&congestion](sim::PacketIndex i) {
    const sim::DelayOutcome& o = congestion.outcomes[i];
    return o.dropped ? net::milliseconds(1) : o.delay;
  };
  if (cfg.loss_rate > 0.0) {
    env.domains[1].loss = &loss_keeper.back();
  }
  s.run = sim::run_path(s.trace, env);

  const auto truth = sim::true_domain_delays_ms(s.run, env, 1);
  s.true_x_delays_ms.reserve(truth.size());
  for (const auto& [pkt, ms] : truth) s.true_x_delays_ms.push_back(ms);
  return s;
}

core::HopReceipts collect_hop(const XDomainScenario& s, std::size_t hop_pos,
                              net::HopId hop_id, net::HopId prev,
                              net::HopId next,
                              const core::ProtocolParams& protocol,
                              const core::HopTuning& tuning,
                              net::Duration max_diff) {
  core::HopMonitorConfig mc;
  mc.protocol = protocol;
  mc.tuning = tuning;
  mc.path = net::PathId{
      .header_spec_id = protocol.header_spec.id(),
      .prefixes = trace::default_prefix_pair(),
      .previous_hop = prev,
      .next_hop = next,
      .max_diff = max_diff,
  };
  core::HopMonitor monitor(mc);
  for (const sim::Obs& o : s.run.hop_observations[hop_pos]) {
    monitor.observe(s.trace[o.pkt], o.when);
  }
  core::HopReceipts r;
  r.hop = hop_id;
  r.samples = monitor.collect_samples();
  r.aggregates = monitor.collect_aggregates(/*flush_open=*/true);
  return r;
}

// --- machine-readable bench output --------------------------------------

void JsonExportReporter::ReportRuns(const std::vector<Run>& reports) {
  for (const Run& run : reports) {
    // Only base iterations carry rates; aggregates (mean/median/stddev of
    // repeated runs) would double-count, and errored runs have no data.
    if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
    const auto ips = run.counters.find("items_per_second");
    if (ips == run.counters.end() || ips->second.value <= 0) continue;

    Row row;
    row.name = run.benchmark_name();
    row.mpps = ips->second.value / 1e6;
    row.ns_per_packet = 1e9 / ips->second.value;
    const auto hashes = run.counters.find("hashes/pkt");
    if (hashes != run.counters.end()) {
      row.has_hashes = true;
      row.hashes_per_packet = hashes->second.value;
    }
    const auto wire = run.counters.find("wire_B_per_pkt");
    if (wire != run.counters.end()) {
      row.has_wire_bytes = true;
      row.wire_bytes_per_packet = wire->second.value;
    }
    rows_.push_back(std::move(row));
  }
  ConsoleReporter::ReportRuns(reports);
}

bool JsonExportReporter::write(const std::string& bench_name,
                               const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"simd_tier\": \"%s\",\n",
               bench_name.c_str(),
               net::simd::tier_name(net::simd::active_tier()));
  std::fprintf(f,
               "  \"host\": {\"cores\": %u, \"cpu_model\": %s, "
               "\"compiler\": %s},\n",
               std::thread::hardware_concurrency(),
               json_string(cpu_model()).c_str(),
               json_string(kCompiler).c_str());
  std::fprintf(f, "  \"results\": [");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(f, "%s\n    {\"name\": \"%s\", ", i == 0 ? "" : ",",
                 r.name.c_str());
    std::fprintf(f, "\"ns_per_packet\": %.4f, \"mpps\": %.4f",
                 r.ns_per_packet, r.mpps);
    if (r.has_hashes) {
      std::fprintf(f, ", \"hashes_per_packet\": %.4f", r.hashes_per_packet);
    }
    if (r.has_wire_bytes) {
      std::fprintf(f, ", \"wire_bytes_per_packet\": %.4f",
                   r.wire_bytes_per_packet);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

int run_benchmarks_with_json(int argc, char** argv,
                             const std::string& bench_name,
                             const std::string& json_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.write(bench_name, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  benchmark::Shutdown();
  return 0;
}

}  // namespace vpm::bench
