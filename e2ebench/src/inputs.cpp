#include "inputs.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "trace/synthetic_trace.hpp"

namespace e2e {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Why each workload exists is recorded in NOTES.md beside this file.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = {
      {.name = "edge-8k",
       .paths = 8'000,
       .packets_per_path = 8.0,
       .sample_rate = 0.01,
       .cut_rate = 1e-4,
       .rounds_per_second = 5.5},
      {.name = "fine-1k",
       .paths = 1'000,
       .packets_per_path = 40.0,
       .sample_rate = 0.05,
       .cut_rate = 2e-3,
       .rounds_per_second = 8.0},
      {.name = "liar-disk",
       .paths = 1'000,
       .packets_per_path = 40.0,
       .sample_rate = 0.05,
       .cut_rate = 2e-3,
       .disk_store = true,
       .liar = true,
       .max_chunk_bytes = 8 * 1024,
       .rounds_per_second = 8.0},
      {.name = "shard-4k-mt",
       .paths = 4'000,
       .packets_per_path = 30.0,
       .sample_rate = 0.002,
       .cut_rate = 1e-5,
       .worker_shards = 2,
       .rounds_per_second = 8.0},
  };
  return table;
}

/// Per-path constant delays (µs-aligned, so the wire's 1 µs quantisation
/// is exact): S->X link, X's transit, X->D link.
constexpr std::array<std::int64_t, kHops - 1> kBaseDelayUs = {500, 1000, 500};
constexpr std::array<std::int64_t, kHops - 1> kDelaySpreadUs = {100, 250, 100};
/// Traffic stops this long before the round ends, so every packet reaches
/// D within the round it left S: no packet is in flight at a drain.
constexpr net::Duration kRoundGuard = net::milliseconds(3);
constexpr double kZipf = 0.8;
constexpr double kXLossRate = 0.02;
constexpr double kXLossBurst = 4.0;

}  // namespace

std::optional<WorkloadSpec> find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : workloads()) out.push_back(w.name);
  return out;
}

Traffic::Traffic(const WorkloadSpec& spec, std::uint64_t seed)
    : liar_(spec.liar) {
  vpm::trace::MultiPathConfig mcfg;
  mcfg.path_count = spec.paths;
  mcfg.zipf_s = kZipf;
  mcfg.duration = kRoundLength - kRoundGuard;
  mcfg.total_packets_per_second = static_cast<double>(spec.paths) *
                                  spec.packets_per_path /
                                  mcfg.duration.seconds();
  mcfg.seed = seed;
  vpm::trace::MultiPathTrace multi = vpm::trace::generate_multi_path(mcfg);
  if (multi.packets.empty()) throw std::runtime_error("empty traffic pool");
  paths_ = std::move(multi.paths);
  base_ = std::move(multi.packets);
  path_of_ = std::move(multi.path_of);
  for (net::Packet& p : base_) {
    p.origin_time = net::Timestamp{p.origin_time.nanoseconds() / 1000 * 1000};
  }

  pool_count_.assign(paths_.size(), 0);
  for (std::uint32_t path : path_of_) ++pool_count_[path];

  // Cumulative per-path delay to each HOP; HOP 0 observes at send time.
  std::array<std::vector<std::int64_t>, kHops> delay_ns;
  for (auto& d : delay_ns) d.assign(paths_.size(), 0);
  for (std::size_t path = 0; path < paths_.size(); ++path) {
    for (std::size_t leg = 0; leg + 1 < kHops; ++leg) {
      const std::uint64_t h = mix(seed ^ (path * 0x9E3779B97F4A7C15ull) ^
                                  (leg + 1) * 0xD1B54A32D192ED03ull);
      const std::int64_t us =
          kBaseDelayUs[leg] +
          static_cast<std::int64_t>(
              h % static_cast<std::uint64_t>(kDelaySpreadUs[leg] + 1));
      delay_ns[leg + 1][path] = delay_ns[leg][path] + us * 1000;
    }
  }
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    std::vector<std::int64_t> at(base_.size());
    for (std::size_t i = 0; i < base_.size(); ++i) {
      at[i] = base_[i].origin_time.nanoseconds() + delay_ns[hop][path_of_[i]];
    }
    // A HOP observes in local-clock order; ties keep send order.
    std::vector<std::uint32_t>& ord = order_[hop];
    ord.resize(base_.size());
    std::iota(ord.begin(), ord.end(), 0u);
    std::stable_sort(ord.begin(), ord.end(),
                     [&at](std::uint32_t a, std::uint32_t b) {
                       return at[a] < at[b];
                     });
    offset_ns_[hop].resize(base_.size());
    for (std::size_t k = 0; k < ord.size(); ++k) {
      offset_ns_[hop][k] = at[ord[k]];
    }
    packets_[hop].reserve(base_.size());
    when_[hop].reserve(base_.size());
  }

  dropped_.assign(paths_.size(), 0);
  drop_.assign(base_.size(), 0);
  if (liar_) {
    loss_.emplace(vpm::loss::GilbertElliott::with_target_loss(
        kXLossRate, kXLossBurst, mix(seed ^ 0x6EB0ull)));
  }
}

void Traffic::stamp_round(std::uint64_t r) {
  const std::int64_t shift = static_cast<std::int64_t>(r) *
                             kRoundLength.nanoseconds();
  const std::uint64_t rekey = mix(0xC0FFEEull + r);
  std::fill(dropped_.begin(), dropped_.end(), 0);
  std::fill(drop_.begin(), drop_.end(), 0);
  if (liar_ && r >= kWarmupRounds) {
    // X drops in the order its ingress sees the packets.
    for (std::uint32_t i : order_[kXIngress]) {
      drop_[i] = loss_->should_drop() ? 1 : 0;
      if (drop_[i]) {
        ++dropped_[path_of_[i]];
        ++dropped_total_;
      }
    }
  }
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    std::vector<net::Packet>& out = packets_[hop];
    std::vector<net::Timestamp>& when = when_[hop];
    out.clear();
    when.clear();
    const bool lossy = liar_ && hop > kXIngress;
    const std::vector<std::uint32_t>& ord = order_[hop];
    for (std::size_t k = 0; k < ord.size(); ++k) {
      const std::uint32_t i = ord[k];
      if (lossy && drop_[i]) continue;
      net::Packet p = base_[i];
      p.payload_prefix ^= rekey;
      p.sequence += r * base_.size();
      p.origin_time += net::Duration{shift};
      out.push_back(p);
      when.push_back(net::Timestamp{offset_ns_[hop][k] + shift});
    }
  }
}

}  // namespace e2e
