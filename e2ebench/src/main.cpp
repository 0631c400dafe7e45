// End-to-end benchmark of the VPM pipeline: packets -> receipts -> wire ->
// store -> verdicts, on a four-HOP S -> X -> X -> D deployment, run as a
// closed loop (a round's traffic is fed only after the previous round's
// verdicts are out).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//   e2ebench --host
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// (from spans around every layer call, every other measured round) when
// --trace 1.  Progress and failures go to standard error.
#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deployment.hpp"
#include "inputs.hpp"
#include "net/simd_dispatch.hpp"
#include "tracer.hpp"

namespace e2e {
namespace {

/// The traced run fails its check when the layers' self times leave more
/// than this share of a round's wall time unattributed.
constexpr double kMaxUnattributed = 0.05;
/// The host probe's time on the reference host (RECORD.json) in a quiet
/// phase; host-normalised times read as if measured there.
constexpr double kProbeReferenceMs = 8.0;
/// Failures printed in full; the rest are only counted.
constexpr std::size_t kFailuresShown = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path workdir = ".";
  bool host = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host") {
      a.host = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.host && !have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!a.host && !(a.seconds > 0.0)) {
    throw std::invalid_argument("--seconds is required and must be > 0");
  }
  return a;
}

std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v, std::size_t from, std::size_t to) {
  double s = 0.0;
  for (std::size_t i = from; i < to; ++i) s += v[i];
  return to > from ? s / static_cast<double>(to - from) : 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_host() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  struct utsname u {};
  uname(&u);
  namespace simd = vpm::net::simd;
  std::cout << "{\"cores\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": " << json_string(cpu)
            << ", \"simd_tier\": "
            << json_string(simd::tier_name(simd::active_tier()))
            << ", \"compiler\": " << json_string("g++ " __VERSION__)
            << ", \"kernel\": " << json_string(std::string(u.sysname) + " " +
                                               u.release)
            << "}" << std::endl;
}

/// A per-run directory named vpm-test-*, removed with everything in it
/// when the run ends, however it ends short of the process being killed.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = (parent / "vpm-test-XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a temp dir under " +
                               parent.string());
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A fixed slice of work shaped like the verifier's (sort a 512 KiB array,
/// fill and probe a 16k-entry hash table), timed before every round and
/// every set-up.  Its code is the same on every commit, so its time
/// tracks only the host: on the shared host this benchmark was built on,
/// speed moves by up to 40 % in phases lasting seconds to minutes, and
/// dividing each round's times by the probe's (relative to
/// kProbeReferenceMs) cuts the run-to-run spread two- to four-fold.  It owns
/// all its memory from construction on (a flat open-addressing table and
/// a sort buffer) and allocates nothing afterwards, so the program's heap
/// layout cannot change its time.  A warm-up pass runs first and only the
/// second pass is timed, so what the program left in the caches does not
/// reach the probe either.
class HostProbe {
 public:
  HostProbe() : keys_(kKeys), scratch_(kKeys), table_(kSlots) {
    std::uint64_t x = 0;
    for (std::uint64_t& k : keys_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      k = (z ^ (z >> 31)) | 1;  // 0 marks an empty slot
    }
    (void)time_ms();
  }

  /// Milliseconds the timed pass takes now.
  double time_ms() {
    pass();
    const std::int64_t start = now_ns();
    pass();
    return static_cast<double>(now_ns() - start) / 1e6;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
  };

  void pass() {
    std::copy(keys_.begin(), keys_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    std::fill(table_.begin(), table_.end(), Slot{});
    for (std::size_t i = 0; i < kMapped; ++i) {
      std::size_t s = keys_[i] & (kSlots - 1);
      while (table_[s].key != 0 && table_[s].key != keys_[i]) {
        s = (s + 1) & (kSlots - 1);
      }
      table_[s] = Slot{keys_[i], i};
    }
    std::uint64_t hits = 0;
    for (std::uint64_t k : scratch_) {
      for (std::size_t s = k & (kSlots - 1); table_[s].key != 0;
           s = (s + 1) & (kSlots - 1)) {
        if (table_[s].key == k) {
          hits += table_[s].value;
          break;
        }
      }
    }
    hits_ = hits;
  }

  static constexpr std::size_t kKeys = 1u << 16;
  static constexpr std::size_t kMapped = 1u << 14;
  static constexpr std::size_t kSlots = 1u << 15;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> scratch_;
  std::vector<Slot> table_;
  volatile std::uint64_t hits_ = 0;  ///< keeps the probes from being elided
};

/// Host speed around each round, as a factor on the reference host: the
/// median probe time of the five rounds centred on it over
/// kProbeReferenceMs.  Times divided by it read as on the reference host.
std::vector<double> host_factors(const std::vector<double>& probe_ms) {
  std::vector<double> out(probe_ms.size());
  for (std::size_t r = 0; r < probe_ms.size(); ++r) {
    const std::size_t lo = r >= 2 ? r - 2 : 0;
    const std::size_t hi = std::min(r + 3, probe_ms.size());
    out[r] = median(std::vector<double>(probe_ms.begin() + lo,
                                        probe_ms.begin() + hi)) /
             kProbeReferenceMs;
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

int run(const Args& args) {
  const std::optional<WorkloadSpec> found = find_workload(args.workload);
  if (!found) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "'; known:" + names);
  }
  const WorkloadSpec& spec = *found;
  const std::size_t measured = std::max<std::size_t>(
      10, static_cast<std::size_t>(
              std::ceil(args.seconds * spec.rounds_per_second)));
  const std::size_t rounds = kWarmupRounds + measured;
  if (kRoundLength * static_cast<std::int64_t>(rounds) > kMaxSimulated) {
    throw std::invalid_argument("--seconds too large: " +
                                std::to_string(rounds) +
                                " rounds exceed the wire format's epoch range");
  }

  // --- inputs (outside set-up) ------------------------------------------
  Traffic traffic(spec, args.seed);
  const std::size_t paths = traffic.paths().size();
  Ledger ledger(paths);
  Tracer tracer(args.trace ? rounds * 4096 : 0);
  TempDir tmp(args.workdir);
  HostProbe probe;
  std::vector<double> probe_ms;
  probe_ms.reserve(rounds);
  struct RoundRecord {
    std::size_t round = 0;
    double wall_ms = 0.0;
    double finding_ms = 0.0;
    double obs = 0.0;
    bool traced = false;
  };
  std::vector<RoundRecord> records;
  records.reserve(measured);

  // --- set-up, several times; the last deployment runs ------------------
  // Each repetition is host-normalised by a probe taken just before it.
  // The previous deployment's memory goes back to the kernel first, so
  // every repetition pays the first-touch page faults a real set-up does.
  const std::size_t heap_before = heap_in_use();
  std::vector<double> setup_total, setup_collectors, setup_store,
      setup_verifiers, setup_raw;
  std::unique_ptr<Deployment> dep;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    dep.reset();
    malloc_trim(0);
    std::filesystem::remove_all(tmp.path() / "store");
    const double host = probe.time_ms() / kProbeReferenceMs;
    dep = std::make_unique<Deployment>(spec, traffic.paths(),
                                       tmp.path() / "store", tracer, ledger);
    const Deployment::SetupTimes& s = dep->setup_times();
    setup_total.push_back(s.total() / host);
    setup_raw.push_back(s.total());
    setup_collectors.push_back(s.collectors_s / host);
    setup_store.push_back(s.store_s / host);
    setup_verifiers.push_back(s.verifiers_s / host);
  }

  // --- the closed loop --------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t warmup_failed = 0;
  std::uint64_t measured_obs = 0;
  std::uint64_t all_obs = 0;
  std::uint64_t bytes_at_start = 0;
  std::int64_t first_lie_round = -1;
  std::size_t heap_after = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    traffic.stamp_round(r);
    probe_ms.push_back(probe.time_ms());
    for (std::size_t hop = 0; hop < kHops; ++hop) {
      for (std::size_t p = 0; p < paths; ++p) {
        ledger.observed[hop][p] += traffic.observed(hop, p);
      }
    }
    if (spec.liar) {
      for (std::size_t p = 0; p < paths; ++p) {
        ledger.dropped[p] += traffic.dropped(p);
      }
      if (first_lie_round < 0 && traffic.dropped_total() > 0) {
        first_lie_round = static_cast<std::int64_t>(r);
      }
    }
    const bool measuring = r >= kWarmupRounds;
    const bool traced =
        args.trace && measuring && (r - kWarmupRounds) % 2 == 0;
    if (r == kWarmupRounds) bytes_at_start = dep->envelope_bytes();
    tracer.begin_round(static_cast<std::uint32_t>(r), traced);

    const Deployment::RoundTimes t = dep->run_round(traffic);
    tracer.begin_round(static_cast<std::uint32_t>(r), false);
    const std::uint64_t obs = traffic.observations();
    all_obs += obs;

    const std::string failure = dep->check_round(r);
    if (!failure.empty()) {
      if (failed + warmup_failed < kFailuresShown) {
        std::cerr << "e2ebench: check failed: " << failure << "\n";
      }
      (measuring ? failed : warmup_failed) += 1;
    }
    if (!measuring) continue;
    ++attempted;
    measured_obs += obs;
    records.push_back(RoundRecord{
        .round = r,
        .wall_ms = static_cast<double>(t.end_ns - t.start_ns) / 1e6,
        .finding_ms = static_cast<double>(t.end_ns - t.observed_ns) / 1e6,
        .obs = static_cast<double>(obs),
        .traced = traced});
    if (r + 1 == rounds) heap_after = heap_in_use();
  }

  // Host-normalised per-round figures.
  const std::vector<double> host = host_factors(probe_ms);
  std::vector<double> wall_ms, finding_ms, obs_rate, traced_wall_ms,
      untraced_wall_ms, traced_obs, raw_finding_ms, raw_obs_rate;
  std::vector<std::size_t> traced_round;
  for (const RoundRecord& rec : records) {
    const double wall = rec.wall_ms / host[rec.round];
    wall_ms.push_back(wall);
    finding_ms.push_back(rec.finding_ms / host[rec.round]);
    obs_rate.push_back(rec.obs / (wall / 1e3));
    raw_finding_ms.push_back(rec.finding_ms);
    raw_obs_rate.push_back(rec.obs / (rec.wall_ms / 1e3));
    if (!args.trace) continue;
    (rec.traced ? traced_wall_ms : untraced_wall_ms).push_back(wall);
    if (rec.traced) {
      traced_obs.push_back(rec.obs);
      traced_round.push_back(rec.round);
    }
  }

  bool correct = failed == 0 && warmup_failed == 0;
  if (spec.worker_shards != 0 &&
      dep->max_threads_seen() > dep->max_ingest_threads()) {
    std::cerr << "e2ebench: " << dep->max_threads_seen()
              << " threads alive during threaded ingest (limit "
              << dep->max_ingest_threads() << ")\n";
    correct = false;
  }
  if (spec.liar && dep->first_finding_round() < 0) {
    std::cerr << "e2ebench: no verdict ever implicated X->D\n";
    correct = false;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double bytes =
        static_cast<double>(dep->envelope_bytes() - bytes_at_start);
    metrics = {
        {"obs_per_s", median(obs_rate), "1/s"},
        {"finding_p50_ms", percentile(finding_ms, 0.5), "ms"},
        {"finding_p90_ms", percentile(finding_ms, 0.9), "ms"},
        {"setup_s", median(setup_total), "s"},
        {"heap_mb", static_cast<double>(heap_after - heap_before) / 1e6, "MB"},
        {"wire_bytes_per_obs", bytes / static_cast<double>(measured_obs), "B"},
    };
  } else {
    // Per traced round: each layer's self time.
    std::map<std::string, std::pair<std::string, std::vector<double>>>
        per_round;
    const auto add = [&per_round](const char* name, const char* unit,
                                  double v) {
      auto& slot = per_round[name];
      slot.first = unit;
      slot.second.push_back(v);
    };
    std::vector<double> analyze_series, unattributed;
    double ingest_ns = 0.0;
    double ingest_calls = 0.0;
    const std::vector<Tracer::RoundSelf> selfs = tracer.self_times();
    for (std::size_t i = 0; i < selfs.size(); ++i) {
      const Tracer::RoundSelf& s = selfs[i];
      const double h = host.at(traced_round.at(i));
      const auto ms = [&s, h](Layer l) {
        return static_cast<double>(s.self_ns[static_cast<std::size_t>(l)]) /
               1e6 / h;
      };
      double covered = 0.0;
      for (std::size_t l = 1; l < kLayerCount; ++l) {
        covered += ms(static_cast<Layer>(l));
      }
      const double root = ms(Layer::kRound);
      unattributed.push_back(root / (root + covered));
      const double obs = traced_obs.at(i);
      const double observe_ms = spec.worker_shards == 0
                                    ? ms(Layer::kObserve)
                                    : ms(Layer::kFeed) + ms(Layer::kWaitIdle);
      add("collector.observe_ns_per_obs", "ns", observe_ms * 1e6 / obs);
      add("collector.feed_ns_per_obs", "ns", ms(Layer::kFeed) * 1e6 / obs);
      add("collector.wait_idle_ms", "ms", ms(Layer::kWaitIdle));
      add("collector.start_stop_ms", "ms", ms(Layer::kStartStop));
      add("collector.drain_ms", "ms", ms(Layer::kDrain));
      add("adversary.transform_ms", "ms", ms(Layer::kTransform));
      add("dissem.export_ms", "ms", ms(Layer::kExport));
      add("dissem.poll_ms", "ms", ms(Layer::kPoll));
      add("core.add_round_ms", "ms", ms(Layer::kAddRound));
      add("core.analyze_ms", "ms", ms(Layer::kAnalyze));
      add("trace.round_ms", "ms", traced_wall_ms.at(i));
      add("trace.obs_per_s", "1/s", obs / (traced_wall_ms.at(i) / 1e3));
      analyze_series.push_back(ms(Layer::kAnalyze));
      ingest_ns += ms(Layer::kIngest) * 1e6;
      ingest_calls += s.calls[static_cast<std::size_t>(Layer::kIngest)];
    }
    const double unattributed_frac = median(unattributed);
    if (unattributed_frac > kMaxUnattributed) {
      std::cerr << "e2ebench: layer self times cover only "
                << (1.0 - unattributed_frac) * 100.0
                << "% of round wall time\n";
      correct = false;
    }
    const std::size_t tenth = std::max<std::size_t>(1, analyze_series.size() / 10);
    const double first = mean(analyze_series, 0, tenth);
    const double last = mean(analyze_series, analyze_series.size() - tenth,
                             analyze_series.size());
    const vpm::collector::DataPlaneOps ops = dep->data_plane_ops();
    const auto resident = dep->resident_stats();
    const double sweeps =
        static_cast<double>(ops.sweep_kernel_avx2 + ops.sweep_kernel_scalar);
    const double total_rounds = static_cast<double>(rounds);
    const std::int64_t to_finding =
        spec.liar && dep->first_finding_round() >= 0
            ? dep->first_finding_round() - first_lie_round
            : 0;
    for (const auto& [name, slot] : per_round) {
      metrics.push_back({name, median(slot.second), slot.first});
    }
    const std::vector<Metric> rest = {
        {"collector.arena_mb", static_cast<double>(dep->arena_bytes()) / 1e6,
         "MB"},
        {"collector.sweep_records_per_obs",
         static_cast<double>(ops.marker_sweep_accesses) /
             static_cast<double>(all_obs),
         "count"},
        {"collector.avx2_share",
         sweeps == 0.0 ? 0.0
                       : static_cast<double>(ops.sweep_kernel_avx2) / sweeps,
         "1"},
        {"dissem.ingest_us_per_env",
         ingest_calls == 0.0 ? 0.0 : ingest_ns / ingest_calls / 1e3, "us"},
        {"dissem.envelopes_per_round",
         static_cast<double>(dep->envelopes_sealed()) / total_rounds, "count"},
        {"dissem.sections_per_round",
         static_cast<double>(dep->sections_written()) / total_rounds, "count"},
        {"dissem.store_resident_mb",
         static_cast<double>(dep->store_payload_bytes()) / 1e6, "MB"},
        {"dissem.segments_unlinked",
         static_cast<double>(dep->segments_unlinked()), "count"},
        {"core.analyze_growth", first == 0.0 ? 0.0 : last / first, "1"},
        {"core.pending_entries",
         static_cast<double>(resident.pending_ingress_samples +
                             resident.pending_egress_samples +
                             resident.pending_sample_rounds +
                             resident.tail_aggregate_receipts),
         "count"},
        {"core.retained_delays",
         static_cast<double>(resident.retained_delays +
                             resident.retained_aligned_groups),
         "count"},
        {"core.rounds_to_finding", static_cast<double>(to_finding), "count"},
        {"setup.collectors_s", median(setup_collectors), "s"},
        {"setup.store_s", median(setup_store), "s"},
        {"setup.verifiers_s", median(setup_verifiers), "s"},
        {"trace.unattributed_frac", unattributed_frac, "1"},
        {"host.probe_ms", median(probe_ms), "ms"},
        {"trace.overhead_frac",
         median(traced_wall_ms) / median(untraced_wall_ms) - 1.0, "1"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    const std::filesystem::path spans =
        args.workdir / ("spans-" + spec.name + "-seed" +
                        std::to_string(args.seed) + ".tsv");
    if (!tracer.write_tsv(spans)) {
      std::cerr << "e2ebench: cannot write " << spans << "\n";
    }
  }

  std::cerr << "e2ebench: " << spec.name << " seed " << args.seed << ": "
            << paths << " paths, " << traffic.pool_size()
            << " packets per round, " << kWarmupRounds << " warm-up + "
            << measured << " measured rounds, median round "
            << median(wall_ms) << " ms, simd "
            << vpm::net::simd::tier_name(vpm::net::simd::active_tier())
            << ", host probe " << median(probe_ms) << " ms\n";
  // The same figures before host normalisation, on the line before the
  // result, so a record can show that normalising removes host drift and
  // leaves program differences intact.
  std::cout << "{\"raw\": {\"obs_per_s\": " << json_number(median(raw_obs_rate))
            << ", \"finding_p50_ms\": "
            << json_number(percentile(raw_finding_ms, 0.5))
            << ", \"finding_p90_ms\": "
            << json_number(percentile(raw_finding_ms, 0.9))
            << ", \"setup_s\": " << json_number(median(setup_raw))
            << ", \"probe_ms\": " << json_number(median(probe_ms)) << "}}\n";
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  dep.reset();
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    const e2e::Args args = e2e::parse(argc, argv);
    if (args.host) {
      e2e::print_host();
      return 0;
    }
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
