// Run one declarative scenario and print the verifier's findings next to
// the simulator's ground truth.
//
//   example_scenario_run 'name=demo seed=3 loss=ge loss_rate=0.03'
//   example_scenario_run @tests/scenarios/hide_loss.conf
//
// The argument is either a one-line key=value config (the format every
// failing grid cell prints) or @<file> to load a scenario data file.  A
// `store=segment` config runs in a fresh vpm-scenario-<pid> directory
// under the system temp root, removed afterwards.
//
// Exit status: 0 on a run, 1 on a config the parser or the engine rejects
// ("bad scenario: ..."), 2 when a valid config hits a limit of the
// program itself ("program limit: ...", e.g. an aggregate held open past
// the receipt wire's 16.7 s offset span).
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "core/receipt_batch.hpp"
#include "sim/scenario_engine.hpp"

namespace {

std::string load_arg(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  if (!in) {
    throw std::invalid_argument("cannot open " + arg.substr(1));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

vpm::sim::ScenarioOutcome run(const vpm::sim::ScenarioConfig& cfg) {
  if (!cfg.segment_store) return vpm::sim::run_scenario(cfg);
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } scratch{std::filesystem::temp_directory_path() /
            ("vpm-scenario-" + std::to_string(::getpid()))};
  return vpm::sim::run_scenario(cfg, scratch.dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string text = "name=demo seed=1 loss=bernoulli loss_rate=0.02";
  if (argc > 1) {
    try {
      text = load_arg(argv[1]);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  vpm::sim::ScenarioOutcome out;
  try {
    out = run(vpm::sim::parse_scenario(text));
  } catch (const vpm::core::WireLimitError& e) {
    std::cerr << "program limit: " << e.what() << "\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "bad scenario: " << e.what() << "\n";
    return 1;
  }

  std::cout << "repro: " << out.repro << "\n";
  std::cout << "packets: " << out.delivered_packets << "/"
            << out.total_packets << " delivered\n";
  for (const std::string& d : out.transit_domains) {
    std::cout << "domain " << d << ": true loss " << out.true_loss(d)
              << ", receipt-estimated " << out.estimated_loss(d) << "\n";
  }
  std::cout << (out.honest_clean() ? "all links consistent, all rounds intact"
                                   : "violations present")
            << "\n";
  for (const auto& [up, down] : out.implicated_links()) {
    std::cout << "implicated link: " << up << " -> " << down << "\n";
  }
  std::size_t gap_count = 0;
  for (const auto& per_hop : out.gaps) gap_count += per_hop.size();
  if (gap_count != 0) {
    std::cout << gap_count << " dissemination gap(s) reported\n";
  }
  if (out.lifecycle.evicted_paths != 0) {
    std::cout << out.lifecycle.evicted_paths << " lifecycle eviction(s)\n";
  }
  return 0;
}
