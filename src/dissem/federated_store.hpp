// Producer-sharded front over N independent ReceiptStores (ISSUE 9).
//
// The dissemination service outgrows one store the same way the collector
// outgrew one cache (PR 2): partition by key, share nothing.  Every
// producer id routes through the same splitmix64 finalizer discipline as
// collector/sharded_collector::shard_of_key to exactly one shard, which
// owns that producer's envelopes, segment files (each shard gets its own
// `shard-<i>/` subdirectory), cursors, and GC floor.  Cross-shard state is
// nil — a consumer's cursor for producer P lives only on P's shard — so
// shards never deadlock (every operation locks exactly one shard) and
// scale independently.
//
// Concurrency: the forwarding API (ingest / fetch_from / ack / cursor /
// stats / ...) serializes per shard behind a recursive mutex — recursive
// because a fetch_from visitor legitimately acks mid-walk (the FetchClient
// round-boundary pattern), re-entering the same shard from the same
// thread.  Many producers ingesting while many consumers fetch is safe
// and contention is real only when they collide on a shard
// (federated_store_test runs the matrix under TSan).  Single-threaded
// drivers (the scenario engine's FetchClient fleet) may instead take
// shard_for() and talk to the underlying ReceiptStore directly,
// bypassing the locks.
//
// Restart: construct over the same directory with the SAME shard count —
// the split is by hash, so re-sharding an existing directory would strand
// each producer's history on its old shard.  (Resharding-by-copy is a
// recorded follow-on, not a silent misroute: the constructor refuses a
// directory whose recorded shard count disagrees.)
#ifndef VPM_DISSEM_FEDERATED_STORE_HPP
#define VPM_DISSEM_FEDERATED_STORE_HPP

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/function_ref.hpp"
#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/segment_store.hpp"
#include "net/bob_hash.hpp"

namespace vpm::dissem {

struct FederatedStoreConfig {
  std::size_t shards = 1;
  /// Empty: volatile memory backend.  Non-empty: SegmentStorage rooted
  /// here, one `shard-<i>` subdirectory per shard.
  std::filesystem::path directory;
  std::size_t max_segment_bytes = 64 * 1024;
  std::size_t cursor_snapshot_every = 4096;
};

class FederatedStore {
 public:
  explicit FederatedStore(FederatedStoreConfig cfg);

  /// splitmix64-finalizer routing, the sharded-collector discipline.
  [[nodiscard]] static std::size_t shard_of(DomainId producer,
                                            std::size_t shard_count) noexcept {
    return static_cast<std::size_t>(net::mix64(producer) % shard_count);
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_index(DomainId producer) const noexcept {
    return shard_of(producer, shards_.size());
  }

  /// Direct, UNLOCKED access to the shard owning `producer` — for
  /// single-threaded drivers (FetchClient binds a ReceiptStore&).  Do not
  /// mix with concurrent use of the locked API.
  [[nodiscard]] ReceiptStore& shard_for(DomainId producer) {
    return *shards_[shard_index(producer)]->store;
  }
  [[nodiscard]] const ReceiptStore& shard_for(DomainId producer) const {
    return *shards_[shard_index(producer)]->store;
  }
  [[nodiscard]] ReceiptStore& shard(std::size_t index) {
    return *shards_[index]->store;
  }

  // --- locked forwarding API (thread-safe) -------------------------------

  void register_producer(DomainId producer, DomainKey key);
  /// Registers on EVERY shard (an all-producer consumer gates GC of
  /// producers on all of them).
  void register_consumer(const std::string& name);
  /// Registers (if new) and subscribes on `producer`'s owning shard only.
  void subscribe(const std::string& name, DomainId producer);
  IngestOutcome ingest(Envelope envelope);
  void fetch_from(const std::string& consumer, DomainId producer,
                  core::FunctionRef<void(std::uint64_t,
                                         std::span<const std::byte>)>
                      visit) const;
  AckOutcome ack(const std::string& consumer, DomainId producer,
                 std::uint64_t sequence);
  [[nodiscard]] std::uint64_t cursor(const std::string& consumer,
                                     DomainId producer) const;
  [[nodiscard]] std::uint64_t gc_floor(DomainId producer) const;
  [[nodiscard]] std::size_t consumer_lag(const std::string& consumer,
                                         DomainId producer) const;
  [[nodiscard]] std::uint64_t last_sequence(DomainId producer) const;
  [[nodiscard]] StorageStats producer_storage_stats(DomainId producer) const;

  // --- aggregates (lock each shard in turn) ------------------------------

  [[nodiscard]] StorageStats storage_stats() const;
  [[nodiscard]] std::size_t accepted_count() const;
  [[nodiscard]] std::size_t rejected_count() const;
  [[nodiscard]] std::size_t stored_envelopes() const;
  [[nodiscard]] std::size_t gc_erased_count() const;

 private:
  struct Shard {
    std::unique_ptr<ReceiptStore> store;
    mutable std::recursive_mutex mu;
  };

  [[nodiscard]] Shard& owner(DomainId producer) const {
    return *shards_[shard_of(producer, shards_.size())];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vpm::dissem

#endif  // VPM_DISSEM_FEDERATED_STORE_HPP
