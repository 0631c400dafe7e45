// Workload table and seeded traffic for the end-to-end benchmark.
//
// The program under test sees only packets and observation times.  The
// seed, the path table, the per-HOP delays, the loss at X and its ground
// truth all live here, on the benchmark side.  One round's traffic (the
// pool) is generated once, before set-up is timed; each round re-stamps it
// outside the timed region: times shift by one round length and every
// payload prefix is re-keyed, so digests, samples and cuts differ from
// round to round while the per-round load stays fixed.
#ifndef E2EBENCH_INPUTS_HPP
#define E2EBENCH_INPUTS_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "loss/gilbert_elliott.hpp"
#include "net/packet.hpp"
#include "net/prefix.hpp"
#include "net/time.hpp"

namespace e2e {

namespace net = vpm::net;

/// S -> X -> X -> D: S's egress, X's ingress and egress, D's ingress.
inline constexpr std::size_t kHops = 4;
/// HOP positions of X's ingress and egress (the transit domain).
inline constexpr std::size_t kXIngress = 1;
inline constexpr std::size_t kXEgress = 2;

struct WorkloadSpec {
  std::string name;
  std::size_t paths = 0;
  double packets_per_path = 0.0;  ///< mean per round (Zipf-skewed per path)
  double sample_rate = 0.0;
  double cut_rate = 0.0;
  /// 0 = synchronous ingest on the caller's thread; otherwise threaded
  /// ingest through this many shards, one HOP's workers alive at a time.
  std::size_t worker_shards = 0;
  bool disk_store = false;
  bool liar = false;  ///< X drops packets and its egress hides the loss
  std::size_t max_chunk_bytes = 64 * 1024;
  /// Measured rounds per second of --seconds.  The round count, not the
  /// clock, ends a run: the verifier's cost grows with history, so both
  /// sides of a comparison must measure the same rounds.
  double rounds_per_second = 0.0;
};

/// The named workloads; nullopt for an unknown name.
[[nodiscard]] std::optional<WorkloadSpec> find_workload(
    const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Simulated length of one reporting round.  As long as the time-keyed
/// marker age, so a path forces about one marker, and ships its samples,
/// per round: per-round cost stays even (20 ms rounds beat against the
/// 50 ms age and made p50/p90 swing ~10 % with the seed).  And short, so
/// a whole run stays inside the wire format's 16.7 s epoch range: an
/// aggregate receipt open longer than that (a quiet Zipf-tail path at a
/// low cut rate) cannot be encoded, and the exporter throws.
inline constexpr net::Duration kRoundLength = net::milliseconds(50);
/// Longest run, in simulated time, the wire format can carry.
inline constexpr net::Duration kMaxSimulated = net::seconds(15);
/// Rounds run before measuring starts (and before X starts lying).
inline constexpr std::size_t kWarmupRounds = 8;
/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 15;

class Traffic {
 public:
  /// Generates the pool: paths, one round of packets, per-HOP observation
  /// order and times.  Deterministic in (spec, seed).
  Traffic(const WorkloadSpec& spec, std::uint64_t seed);

  [[nodiscard]] const std::vector<net::PrefixPair>& paths() const noexcept {
    return paths_;
  }

  /// Re-stamp the pool for round `r` into the per-HOP buffers (and, on a
  /// liar workload, decide X's drops for the round).  X starts dropping
  /// once warm-up is over (round kWarmupRounds), so the detection delay
  /// falls in the measured rounds.
  void stamp_round(std::uint64_t r);

  [[nodiscard]] const std::vector<net::Packet>& packets(std::size_t hop) const {
    return packets_[hop];
  }
  [[nodiscard]] const std::vector<net::Timestamp>& when(std::size_t hop) const {
    return when_[hop];
  }
  /// Packets of `path` each HOP observes in the stamped round.
  [[nodiscard]] std::uint64_t observed(std::size_t hop,
                                       std::size_t path) const {
    return hop <= kXIngress ? pool_count_[path]
                            : pool_count_[path] - dropped_[path];
  }
  /// HOP observations in the stamped round, all HOPs.
  [[nodiscard]] std::uint64_t observations() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : packets_) n += p.size();
    return n;
  }
  /// Packets X dropped on `path` in the stamped round.
  [[nodiscard]] std::uint64_t dropped(std::size_t path) const {
    return dropped_[path];
  }
  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_total_;
  }
  [[nodiscard]] std::size_t pool_size() const noexcept { return base_.size(); }

 private:
  bool liar_ = false;
  std::vector<net::PrefixPair> paths_;
  std::vector<net::Packet> base_;          ///< origin order, round 0
  std::vector<std::uint32_t> path_of_;     ///< path of base_[i]
  std::vector<std::uint32_t> pool_count_;  ///< pool packets per path
  /// Per HOP: pool indices in observation order, and each one's
  /// observation time relative to the round start.
  std::array<std::vector<std::uint32_t>, kHops> order_;
  std::array<std::vector<std::int64_t>, kHops> offset_ns_;

  std::optional<vpm::loss::GilbertElliott> loss_;  ///< X's drops (liar)
  std::vector<char> drop_;                         ///< by pool index
  std::vector<std::uint32_t> dropped_;             ///< by path, this round
  std::uint64_t dropped_total_ = 0;

  std::array<std::vector<net::Packet>, kHops> packets_;
  std::array<std::vector<net::Timestamp>, kHops> when_;
};

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_HPP
