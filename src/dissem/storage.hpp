// Retention backend behind dissem::ReceiptStore (ISSUE 9).
//
// The store splits into POLICY (producer keys, envelope authentication,
// sequence/floor admission, per-consumer cursors — ReceiptStore) and
// RETENTION (where accepted envelopes live until every gating consumer has
// acknowledged them — EnvelopeStorage).  Two backends implement the
// interface:
//
//   * MemoryStorage — the pre-ISSUE-9 per-producer ordered map, verbatim.
//     Nothing survives the process; recover() is empty.  The PR 4-7
//     byte-identity soaks pin this backend against the old monolithic
//     store.
//   * SegmentStorage (segment_store.hpp) — per-producer disk segment
//     files plus a durable cursor log; a restart recovers retained
//     envelopes, consumer registrations, and acknowledgements.
//
// Contract notes shared by all backends:
//   * put() is called only for sequences the policy layer has admitted:
//     above the producer's GC floor and not contains().  Backends never
//     see replays.
//   * visit_after() yields (sequence, payload) strictly after `cursor` in
//     ascending order, re-finding the successor BY SEQUENCE after every
//     visit: the visitor may acknowledge mid-walk and the triggered
//     erase_through() may drop the node (or unlink the whole segment) it
//     just visited.  The payload span is valid only for the duration of
//     the visit; visits must not nest.
//   * erase_through(producer, floor) releases sequences <= floor.  A
//     backend may retain MORE than asked (SegmentStorage unlinks whole
//     segment files only once the floor passes their last sequence) but
//     never less, and what it over-retains is invisible: every read path
//     starts after a cursor >= the floor.
//   * persist_*() record consumer state for recover(); the memory backend
//     ignores them.
#ifndef VPM_DISSEM_STORAGE_HPP
#define VPM_DISSEM_STORAGE_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/function_ref.hpp"
#include "dissem/envelope.hpp"

namespace vpm::dissem {

/// Longest consumer name a store accepts (bytes).  SegmentStorage writes a
/// name's length as a u16, so ReceiptStore rejects longer names on every
/// backend alike.
inline constexpr std::size_t kMaxConsumerNameBytes = 0xFFFF;

/// One consumer's durable state as surfaced by recover().
struct ConsumerRecord {
  std::string name;
  /// Registered via register_consumer(): gates GC for every producer.
  bool all_producers = false;
  /// Producers this consumer gates via subscribe().
  std::vector<DomainId> subscribed;
  /// (producer, last acknowledged sequence) pairs.
  std::vector<std::pair<DomainId, std::uint64_t>> acked;
};

/// Everything a backend can tell the policy layer at attach time.
/// Producer KEYS are deliberately absent: authentication material is the
/// operator's to re-register at boot, never persisted beside the data it
/// authenticates.
struct RecoveredState {
  std::vector<ConsumerRecord> consumers;
  /// (producer, highest retained sequence) for every producer with
  /// retained envelopes.  The store folds acknowledgements in on top (a
  /// fully-acked producer may have no retained envelopes but still a
  /// nonzero head).
  std::vector<std::pair<DomainId, std::uint64_t>> producer_heads;
};

/// Retention accounting.  The first three fields are meaningful for every
/// backend; the segment fields read 0 for MemoryStorage.
struct StorageStats {
  std::size_t envelopes = 0;      ///< retained (servable) envelopes
  std::size_t payload_bytes = 0;  ///< their payload bytes
  std::size_t erased = 0;         ///< envelopes released over the lifetime
  std::size_t segments_live = 0;      ///< segment files currently on disk
  std::size_t segments_unlinked = 0;  ///< segment files GC'd (lifetime)
  std::size_t bytes_on_disk = 0;      ///< segment + cursor-log file bytes
  friend bool operator==(const StorageStats&, const StorageStats&) = default;
};

class EnvelopeStorage {
 public:
  virtual ~EnvelopeStorage() = default;

  /// Surface durable state.  Called exactly once, by the attaching
  /// ReceiptStore's constructor, before any other method.
  virtual RecoveredState recover() = 0;

  /// Retain an admitted envelope (see header contract: never a replay).
  virtual void put(Envelope envelope) = 0;

  [[nodiscard]] virtual bool contains(DomainId producer,
                                      std::uint64_t sequence) const = 0;

  /// Visit retained (sequence, payload) pairs strictly after `cursor`,
  /// ascending, mutation-tolerant (see header contract).
  virtual void visit_after(
      DomainId producer, std::uint64_t cursor,
      core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)>
          visit) const = 0;

  /// Retained envelopes with sequence > cursor (consumer-lag arithmetic).
  [[nodiscard]] virtual std::size_t count_after(
      DomainId producer, std::uint64_t cursor) const = 0;

  /// Release sequences <= floor (possibly retaining more; see contract).
  virtual void erase_through(DomainId producer, std::uint64_t floor) = 0;

  /// Durable-consumer hooks; no-ops for volatile backends.
  virtual void persist_registration(const std::string& name,
                                    bool all_producers) = 0;
  virtual void persist_subscription(const std::string& name,
                                    DomainId producer) = 0;
  virtual void persist_ack(const std::string& name, DomainId producer,
                           std::uint64_t sequence) = 0;

  [[nodiscard]] virtual StorageStats stats() const = 0;
  [[nodiscard]] virtual StorageStats producer_stats(
      DomainId producer) const = 0;
};

/// The pre-ISSUE-9 retention structure: one ordered map per producer.
class MemoryStorage final : public EnvelopeStorage {
 public:
  RecoveredState recover() override { return {}; }
  void put(Envelope envelope) override;
  [[nodiscard]] bool contains(DomainId producer,
                              std::uint64_t sequence) const override;
  void visit_after(
      DomainId producer, std::uint64_t cursor,
      core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)>
          visit) const override;
  [[nodiscard]] std::size_t count_after(DomainId producer,
                                        std::uint64_t cursor) const override;
  void erase_through(DomainId producer, std::uint64_t floor) override;
  void persist_registration(const std::string&, bool) override {}
  void persist_subscription(const std::string&, DomainId) override {}
  void persist_ack(const std::string&, DomainId, std::uint64_t) override {}
  [[nodiscard]] StorageStats stats() const override { return stats_; }
  [[nodiscard]] StorageStats producer_stats(DomainId producer) const override;

 private:
  std::map<DomainId, std::map<std::uint64_t, Envelope>> stored_;
  StorageStats stats_;
};

[[nodiscard]] std::unique_ptr<EnvelopeStorage> make_memory_storage();

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_STORAGE_HPP
