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

collector::MonitoringCache one_path_cache(const core::ProtocolParams& protocol,
                                          const core::HopTuning& tuning,
                                          net::HopId prev, net::HopId next,
                                          net::Duration max_diff) {
  const net::PrefixPair pair = trace::default_prefix_pair();
  return collector::MonitoringCache(
      collector::MonitoringCache::Config{.protocol = protocol,
                                         .tuning = tuning,
                                         .previous_hop = prev,
                                         .next_hop = next,
                                         .max_diff = max_diff},
      std::span(&pair, 1));
}

core::PathDrain collect_hop(std::span<const net::Packet> trace,
                            const sim::ObsSeq& observations, net::HopId prev,
                            net::HopId next,
                            const core::ProtocolParams& protocol,
                            const core::HopTuning& tuning,
                            net::Duration max_diff) {
  collector::MonitoringCache cache =
      one_path_cache(protocol, tuning, prev, next, max_diff);
  for (const sim::Obs& o : observations) {
    cache.observe(trace[o.pkt], o.when);
  }
  return cache.drain_path(0, /*flush_open=*/true);
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
                               const std::string& path,
                               const std::string& item) const {
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
    std::fprintf(f, "\"ns_per_%s\": %.4f", item.c_str(), r.ns_per_packet);
    if (item == "packet") std::fprintf(f, ", \"mpps\": %.4f", r.mpps);
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
  // fclose flushes the last buffered bytes, so its error counts too (a
  // full disk often shows only there).
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

int run_benchmarks_with_json(int argc, char** argv,
                             const std::string& bench_name,
                             const std::string& json_path,
                             const std::string& item) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.write(bench_name, json_path, item)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  benchmark::Shutdown();
  return 0;
}

}  // namespace vpm::bench
