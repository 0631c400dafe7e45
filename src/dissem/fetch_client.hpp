// The fault-tolerant consumer loop of receipt dissemination (ISSUE 6).
//
// PR 5's cursor-consumer pattern (fetch_from -> Session::feed -> ack) was
// written for a perfect transport: one missing envelope stalls it, one
// corrupt payload poisons the session for good, and acking mid-round means
// a crash loses the half-fed round twice.  FetchClient is the production
// loop that survives all of it:
//
//   * poll()-driven with capped exponential backoff + seeded jitter on
//     empty polls — a quiet producer costs O(log) polls, not one per tick;
//   * feeds the Session only CONTIGUOUS sequences; a missing sequence gets
//     `gap_patience_polls` polls to fill in (the store files reordered and
//     delayed arrivals into place), and only then becomes a typed
//     core::RoundGap — resynchronized at the next round close, reported to
//     the gap handler, never silently dropped;
//   * payloads that fail decode FATALLY (corrupt content behind a valid
//     MAC) open a kCorrupt gap and resync the same way; TRANSIENT errors
//     (truncated fetch) leave every cursor in place and retry next poll;
//   * delivers decoded path-drain groups to the round handler ONLY when
//     the stream sits at a round boundary, and acks exactly then — so a
//     consumer killed between polls restarts from its last acked sequence
//     (fresh FetchClient, same consumer name) and re-derives the identical
//     stream: at-least-once fetch, exactly-once delivery.
//
// The scenario engine (sim/scenario_engine) drives fleets of these against
// FaultyTransport, and the fault soak pins: delivered rounds verify
// identically to a fault-free replay of the same rounds, reported gaps
// exactly the transport's induced losses.
#ifndef VPM_DISSEM_FETCH_CLIENT_HPP
#define VPM_DISSEM_FETCH_CLIENT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/receipt_sink.hpp"
#include "core/verifier.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_importer.hpp"

namespace vpm::dissem {

class FetchClient {
 public:
  struct Config {
    std::string consumer;     ///< registered ReceiptStore consumer name
    DomainId producer = 0;    ///< producer stream this client drains
    std::string producer_name;      ///< stamped into RoundGap.producer
    net::HopId hop = net::kNoHop;   ///< stamped into RoundGap.hop
    /// Polls a missing sequence may stay missing before it is declared
    /// lost.  Set strictly above the transport's worst-case reorder/delay
    /// (in polls) and reordering never degrades to loss.
    std::uint64_t gap_patience_polls = 3;
    std::uint64_t seed = 1;  ///< jitter RNG seed
  };

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t backoff_skips = 0;   ///< polls skipped inside backoff
    std::uint64_t envelopes_fed = 0;
    std::uint64_t refetch_skips = 0;   ///< fed-but-unacked seen again
    std::uint64_t deliveries = 0;      ///< round-boundary handoffs
    std::uint64_t groups_delivered = 0;
    std::uint64_t gaps_reported = 0;
    std::uint64_t transient_retries = 0;
    std::uint64_t fatal_errors = 0;
    std::uint64_t acks = 0;
    std::uint64_t ack_rejections = 0;  ///< non-kAcked outcomes (bug tell)
    std::uint64_t gap_wait_polls = 0;  ///< polls spent inside patience
  };

  /// One complete batch of decoded per-path drain groups ending exactly
  /// at a round boundary (one or more producer reporting rounds).
  using RoundHandler =
      std::function<void(std::vector<core::IndexedPathDrain>&&)>;
  using GapHandler = std::function<void(core::RoundGap&&)>;

  /// The client resumes from the consumer's current store cursor — which
  /// is what makes construction double as CRASH-RESTART: kill a client,
  /// build a new one with the same consumer name, and it re-fetches
  /// everything fed but not yet acked (the store kept it: unacked
  /// envelopes are never collected) and re-delivers with zero divergence.
  /// The consumer must already be registered; importer and store must
  /// outlive the client.  Throws std::invalid_argument on null handlers.
  FetchClient(const WireImporter& importer, ReceiptStore& store, Config cfg,
              RoundHandler on_rounds, GapHandler on_gap);

  /// One consumer wake-up: fetch whatever the cursor has not covered,
  /// feed contiguous payloads, deliver + ack at round boundaries, manage
  /// gap patience and backoff.  Call once per transport tick.
  void poll();

  /// End-of-stream: force-declare any gap still inside its patience
  /// window (nothing after it is coming), resync past it, and deliver
  /// whatever closes.  The stream head cannot be known to have been
  /// dropped, so tail losses need one clean producer round behind them to
  /// surface — the scenario's closing round.
  void finalize();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Last sequence fed into the session (>= the acked cursor).
  [[nodiscard]] std::uint64_t last_fed() const noexcept { return last_fed_; }
  [[nodiscard]] bool gap_open() const noexcept { return gap_open_; }

 private:
  void run_fetch_pass(bool force_gap);
  /// True when the payload was consumed (decoded or skipped); false when
  /// it must be retried next poll (transient error or gap patience).
  bool feed_payload(std::uint64_t sequence,
                    std::span<const std::byte> payload);
  void begin_gap(std::uint64_t first_missing, core::RoundGap::Cause cause);
  void discard_partial_round();
  /// Report the open gap, its affected paths sorted and deduped with the
  /// session's skipped keys, and reset it.
  void close_gap();
  void deliver_and_ack();
  [[nodiscard]] std::uint64_t next_u64();

  const WireImporter* importer_;
  ReceiptStore* store_;
  Config cfg_;
  RoundHandler on_rounds_;
  GapHandler on_gap_;

  core::VectorSink buffer_;  ///< groups of the in-progress round(s)
  std::unique_ptr<WireImporter::Session> session_;
  Stats stats_;
  std::uint64_t last_fed_ = 0;
  std::uint64_t rng_state_;

  // Backoff.
  std::uint64_t backoff_failures_ = 0;
  std::uint64_t skip_polls_ = 0;

  // Gap state.
  bool gap_open_ = false;
  std::uint64_t gap_wait_ = 0;  ///< patience polls consumed so far
  core::RoundGap gap_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_FETCH_CLIENT_HPP
