// The "administrative web-site" of Assumption #2: a per-producer store of
// authenticated receipt batches that consumers poll.
//
// Ingest enforces the security contract: a batch is accepted only if its
// envelope verifies under the producer's registered key and its sequence
// is NEW — above the producer's GC floor and not already retained.  The
// floor-based rule gives replay/rollback rejection over an out-of-order
// transport (ISSUE 6): reordered fresh envelopes file into place, an
// envelope replayed while its original is retained dedupes (kDuplicate),
// and one replayed after collection falls at or below the floor
// (kStaleSequence) — collection never erases above the floor, so the three
// cases are exhaustive.  Consumers fetch by producer; payload
// interpretation (receipt batch decoding) stays with the caller, which
// owns the PathId table.
//
// Bounded growth for month-long runs: consumers register by NAME and fetch
// through per-(consumer, producer) cursors — fetch_from() resumes after
// the consumer's last acknowledged sequence, ack() advances the cursor —
// and the store garbage-collects every envelope that ALL gating
// consumers have acknowledged, so resident bytes are bounded by the
// slowest consumer's lag instead of history.  A consumer registered late
// starts at each producer's GC floor (collected envelopes cannot be
// served); with no gating consumers nothing is ever collected (the
// pre-cursor behaviour).
//
// Since ISSUE 9 the store is POLICY over a pluggable RETENTION backend
// (dissem/storage.hpp): the default constructor keeps the historical
// in-memory map, while a SegmentStorage-backed store survives process
// restarts — the constructor replays the backend's durable consumer
// registrations and acknowledgements, recomputes every GC floor, and
// resumes exactly where the crashed process stopped.  Producer keys are
// NOT durable: the operator re-registers them at boot, before consumers
// resume acking (authentication material never lives beside the data it
// authenticates).  Consumers come in two gating flavours:
// register_consumer() gates collection of EVERY producer (the historical
// rule), subscribe() gates only the named producer, so one domain's slow
// reader need not pin every other domain's segments on disk.
//
// A store is not internally synchronized: use it from one thread at a
// time.
#ifndef VPM_DISSEM_RECEIPT_STORE_HPP
#define VPM_DISSEM_RECEIPT_STORE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/function_ref.hpp"
#include "dissem/envelope.hpp"
#include "dissem/storage.hpp"

namespace vpm::dissem {

enum class IngestResult : std::uint8_t {
  kAccepted,
  kUnknownProducer,
  kBadAuthenticator,
  kStaleSequence,  ///< at or below the GC floor: replay or unusable seq 0
  kDuplicate,      ///< already retained — idempotent no-op, not an attack
};

[[nodiscard]] const char* to_string(IngestResult r);

enum class AckResult : std::uint8_t {
  kAcked,             ///< cursor advanced (or idempotent re-ack of it)
  kUnknownConsumer,   ///< consumer name never registered
  kUnknownProducer,   ///< producer has no registered key
  kRegressed,         ///< sequence below the consumer's cursor — rejected
  kAhead,             ///< sequence beyond anything the store served
};

[[nodiscard]] const char* to_string(AckResult r);

/// ingest()'s verdict plus the sequence arithmetic behind it, so retry
/// loops can log something actionable ("got 7, floor is 12") instead of a
/// bare enum.  Compares directly against IngestResult: existing
/// `ingest(...) == IngestResult::kAccepted` call sites keep working.
struct IngestOutcome {
  IngestResult result = IngestResult::kAccepted;
  /// Lowest sequence the store could still accept from this producer
  /// (GC floor + 1) at the time of the call.
  std::uint64_t expected_sequence = 0;
  std::uint64_t got_sequence = 0;  ///< the envelope's sequence
  friend bool operator==(const IngestOutcome& o, IngestResult r) noexcept {
    return o.result == r;
  }
  friend bool operator==(const IngestOutcome&,
                         const IngestOutcome&) = default;
};

/// ack()'s verdict with the expected-vs-got sequences (kRegressed: got <
/// the consumer's effective cursor; kAhead: got > the producer's head).
struct AckOutcome {
  AckResult result = AckResult::kAcked;
  /// kRegressed: the consumer's effective cursor; kAhead: the producer's
  /// last accepted sequence; kAcked: the cursor after the call.
  std::uint64_t expected_sequence = 0;
  std::uint64_t got_sequence = 0;  ///< the sequence passed in
  /// kAcked only: envelopes still retained beyond the consumer's new
  /// cursor — how far behind the head it remains.  Computed AFTER the
  /// ack's garbage collection runs: an ack that advances the GC floor
  /// must report lag against the post-collection store, not against
  /// envelopes the very same call just erased (ISSUE 9 satellite fix;
  /// store_cursor_test pins it against a fresh consumer_lag() call).
  std::size_t consumer_lag = 0;
  friend bool operator==(const AckOutcome& o, AckResult r) noexcept {
    return o.result == r;
  }
  friend bool operator==(const AckOutcome&, const AckOutcome&) = default;
};

class ReceiptStore {
 public:
  /// Volatile store over the historical in-memory retention map.
  ReceiptStore();

  /// Store over an explicit retention backend.  The constructor replays
  /// the backend's durable state (consumer registrations, subscriptions,
  /// acknowledgements, retained-envelope heads) and recomputes every GC
  /// floor — for a SegmentStorage this is crash recovery, including
  /// unlinking segments that were fully acknowledged before the crash.
  explicit ReceiptStore(std::unique_ptr<EnvelopeStorage> storage);

  /// Register (or rotate) a producer's key.  Later envelopes must verify
  /// under the latest key.
  void register_producer(DomainId producer, DomainKey key);

  /// Validate and file an envelope.  Arrival order is NOT assumed: a
  /// verified envelope is accepted at any sequence above the producer's
  /// GC floor that is not already retained (reordered delivery must not
  /// turn into loss — ISSUE 6).  Replay protection is complete without
  /// extra state: collection only ever erases sequences at or below the
  /// floor, so a replayed collected envelope falls at or below the floor
  /// (kStaleSequence) and a replayed retained one is kDuplicate.
  IngestOutcome ingest(Envelope envelope);

  /// All accepted *retained* payloads from `producer`, in sequence order,
  /// as OWNING copies.  (This used to return spans into the stored
  /// envelopes — views whose validity silently depended on the store's
  /// container internals surviving later ingest; the regression suite pins
  /// the owning behaviour.  Streaming consumers that must not copy use
  /// for_each_payload instead.)  With consumer GC active, collected
  /// envelopes are gone — cursor-driven consumers use fetch_from.
  [[nodiscard]] std::vector<std::vector<std::byte>> payloads_from(
      DomainId producer) const;

  /// Visit each retained payload from `producer` in sequence order.  The
  /// span handed to `visit` borrows the stored envelope (or the backend's
  /// read scratch) and is valid ONLY for the duration of the call;
  /// `visit` must not ingest into or otherwise mutate this store.
  /// (Non-owning FunctionRef: this sits on the wire-import hot path, once
  /// per stored chunk.)
  void for_each_payload(
      DomainId producer,
      core::FunctionRef<void(std::span<const std::byte>)> visit) const;

  // --- per-consumer cursors + garbage collection -------------------------

  /// Register a named consumer that gates collection of EVERY producer
  /// (the historical rule).  Idempotent for the same name; upgrades a
  /// subscribe()d consumer to all-producer gating.  Its cursor for each
  /// producer starts at that producer's current GC floor (a late
  /// registrant cannot be served what was already collected).
  void register_consumer(const std::string& name);

  /// Register `name` (if new) and make its acknowledgements gate garbage
  /// collection of `producer` ONLY.  Idempotent; a no-op on a consumer
  /// already register_consumer()'d (it already gates everything).  Any
  /// registered consumer may fetch_from/ack any producer — an
  /// unsubscribed fetch is a non-gating "tap" that cannot hold the
  /// producer's envelopes resident.
  void subscribe(const std::string& name, DomainId producer);

  /// Visit `producer`'s retained payloads with sequence numbers AFTER the
  /// consumer's cursor, in sequence order, as (sequence, payload) pairs.
  /// Fetch does not advance the cursor — re-fetching without ack() serves
  /// the same envelopes again (at-least-once delivery).  `visit` MAY call
  /// back into the store (a cursor consumer acks at round boundaries
  /// mid-walk; the triggered garbage collection is safe because the walk
  /// re-finds its successor by sequence, never through a possibly-erased
  /// node), but the payload span borrows backend storage: consume it
  /// BEFORE any ack that could collect it.  Throws std::invalid_argument
  /// for an unregistered consumer; an unknown producer visits nothing.
  void fetch_from(const std::string& consumer, DomainId producer,
                  core::FunctionRef<void(std::uint64_t,
                                         std::span<const std::byte>)>
                      visit) const;

  /// Acknowledge every sequence of `producer` up to and including
  /// `sequence` for `consumer`.  Re-acking the current cursor is an
  /// idempotent kAcked; a sequence below the cursor is kRegressed and a
  /// sequence beyond the producer's last accepted envelope is kAhead —
  /// both rejected without moving the cursor.  A successful ack runs
  /// garbage collection for the producer (envelopes every gating
  /// consumer has acknowledged are erased) and reports the consumer's
  /// post-collection lag.
  AckOutcome ack(const std::string& consumer, DomainId producer,
                 std::uint64_t sequence);

  /// The consumer's effective cursor for `producer` (max of its explicit
  /// acks and the producer's GC floor).  Throws std::invalid_argument for
  /// an unregistered consumer.
  [[nodiscard]] std::uint64_t cursor(const std::string& consumer,
                                     DomainId producer) const;

  /// Highest sequence of `producer` collected so far (0 before any GC).
  [[nodiscard]] std::uint64_t gc_floor(DomainId producer) const;

  /// Envelopes of `producer` retained beyond the consumer's cursor — how
  /// far behind the head this consumer is, in envelopes it could fetch
  /// right now.  0 means fully caught up.  Throws std::invalid_argument
  /// for an unregistered consumer; an unknown producer reads as 0.
  [[nodiscard]] std::size_t consumer_lag(const std::string& consumer,
                                         DomainId producer) const;

  // --- accounting ---------------------------------------------------------

  [[nodiscard]] std::size_t accepted_count() const noexcept {
    return accepted_;
  }
  [[nodiscard]] std::size_t rejected_count() const noexcept {
    return rejected_;
  }
  /// Envelopes currently retained, across producers.
  [[nodiscard]] std::size_t stored_envelopes() const {
    return storage_->stats().envelopes;
  }
  /// Payload bytes currently retained — the resident-memory figure
  /// e2ebench reports as `dissem.store_resident_mb`.
  [[nodiscard]] std::size_t stored_payload_bytes() const {
    return storage_->stats().payload_bytes;
  }
  /// Envelopes garbage-collected over the store's lifetime.
  [[nodiscard]] std::size_t gc_erased_count() const {
    return storage_->stats().erased;
  }
  /// Retention-backend accounting (segment files, disk bytes; zeros for
  /// the memory backend) — the overhead_report dissemination table.
  [[nodiscard]] StorageStats storage_stats() const {
    return storage_->stats();
  }
  [[nodiscard]] StorageStats producer_storage_stats(DomainId producer) const {
    return storage_->producer_stats(producer);
  }
  /// Last accepted (or recovered) sequence of `producer`; 0 if none.
  [[nodiscard]] std::uint64_t last_sequence(DomainId producer) const {
    const auto it = last_sequence_.find(producer);
    return it == last_sequence_.end() ? 0 : it->second;
  }

 private:
  struct Consumer {
    bool all_producers = false;
    std::set<DomainId> subscribed;
    /// producer -> last acknowledged sequence.
    std::unordered_map<DomainId, std::uint64_t> acked;
    [[nodiscard]] bool gates(DomainId producer) const {
      return all_producers || subscribed.contains(producer);
    }
  };

  /// Erase `producer`'s envelopes every gating consumer has acked.
  void collect_garbage(DomainId producer);
  /// Record (and persist) the GC floor as a new gating consumer's initial
  /// ack so crash recovery, which recomputes floors from acks, cannot
  /// rewind a floor below where a late joiner came in.
  void baseline_at_floor(Consumer& slot, const std::string& name,
                         DomainId producer, std::uint64_t floor);
  [[nodiscard]] std::uint64_t effective_cursor(const Consumer& consumer,
                                               DomainId producer) const;

  std::unique_ptr<EnvelopeStorage> storage_;
  std::unordered_map<DomainId, DomainKey> keys_;
  std::unordered_map<DomainId, std::uint64_t> last_sequence_;
  std::map<std::string, Consumer> cursors_;
  std::unordered_map<DomainId, std::uint64_t> gc_floor_;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_RECEIPT_STORE_HPP
