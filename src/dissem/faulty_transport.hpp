// Deterministic fault injection for the dissemination edge (ISSUE 6).
//
// The producer -> store leg of Assumption #2 runs over a WAN in any real
// deployment (community-probe fleets, federated monitoring): fetches time
// out, envelopes arrive duplicated, late, out of order, or bit-damaged.
// FaultyTransport is a seeded shim modelling exactly that leg: the
// exporter's envelope callback sends here instead of straight into
// ReceiptStore::ingest, and a declarative FaultPlan decides per envelope
// whether it is dropped, duplicated, reordered, delayed, or corrupted —
// reproducibly per seed, so every soak failure replays.
//
// Time is the caller's round clock: tick() once per reporting round
// releases in-flight envelopes whose delay expired.  The transport keeps
// per-producer ground truth of sequences it destroyed (dropped or
// corrupted — a corrupt envelope is delivered but can never be accepted,
// the store's MAC check rejects it), which is what the scenario engine's
// outcome reports next to the verifier's RoundGaps: every induced loss
// must surface, nothing else.
#ifndef VPM_DISSEM_FAULTY_TRANSPORT_HPP
#define VPM_DISSEM_FAULTY_TRANSPORT_HPP

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dissem/envelope.hpp"

namespace vpm::dissem {

/// Declarative per-envelope fault schedule.  Rates are independent
/// probabilities evaluated in a fixed order per envelope (drop, corrupt,
/// duplicate, then reorder-or-delay), so plans compose: a "kitchen sink"
/// plan is just every rate nonzero.  All-zero == a perfect wire.
struct FaultPlan {
  double drop_rate = 0.0;       ///< envelope vanishes entirely
  double corrupt_rate = 0.0;    ///< one payload bit flipped (MAC-dead)
  double duplicate_rate = 0.0;  ///< a second copy arrives next tick
  double reorder_rate = 0.0;    ///< held to next tick, released in
                                ///<   reverse send order
  double delay_rate = 0.0;      ///< held 1..max_delay_ticks ticks
  std::size_t max_delay_ticks = 2;

  [[nodiscard]] bool lossless() const noexcept {
    return drop_rate == 0.0 && corrupt_rate == 0.0;
  }
};

struct FaultStats {
  std::size_t offered = 0;    ///< send() calls
  std::size_t delivered = 0;  ///< deliveries (duplicates counted twice)
  std::size_t dropped = 0;
  std::size_t corrupted = 0;
  std::size_t duplicated = 0;
  std::size_t reordered = 0;
  std::size_t delayed = 0;

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

class FaultyTransport {
 public:
  using Deliver = std::function<void(Envelope&&)>;

  /// `deliver` is the receiving edge (typically
  /// `[&store](Envelope&& e) { store.ingest(std::move(e)); }`); it must
  /// outlive the transport.  Same (plan, seed, send sequence) -> same
  /// fault schedule, byte for byte.
  FaultyTransport(FaultPlan plan, std::uint64_t seed, Deliver deliver);

  /// Producer-side send: applies the plan and delivers (now or later).
  void send(Envelope envelope);

  /// Advance the round clock and release every in-flight envelope whose
  /// time has come — reordered ones first, in reverse send order, then
  /// delayed ones in send order.
  void tick();

  /// Release everything still in flight (end of scenario: the wire
  /// eventually delivers what it did not destroy).
  void flush();

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// Ground truth: sequences of `producer` destroyed by the plan
  /// (dropped or corrupted), ascending.  The verifier's reported gaps
  /// must cover exactly these.
  [[nodiscard]] std::vector<std::uint64_t> lost_sequences(
      DomainId producer) const;

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pending_.size();
  }

 private:
  struct Pending {
    std::uint64_t ready_tick = 0;
    /// Release order within a tick: reordered envelopes get descending
    /// keys (reverse send order), delayed ones ascending.
    std::int64_t order = 0;
    Envelope envelope;
  };

  [[nodiscard]] double next_unit();  ///< uniform [0,1) off the seed
  [[nodiscard]] std::uint64_t next_u64();
  void release_due();

  FaultPlan plan_;
  std::uint64_t rng_state_;
  Deliver deliver_;
  FaultStats stats_;
  std::vector<Pending> pending_;
  std::uint64_t tick_ = 0;
  std::int64_t send_counter_ = 0;
  std::unordered_map<DomainId, std::vector<std::uint64_t>> lost_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_FAULTY_TRANSPORT_HPP
