#include "dissem/receipt_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace vpm::dissem {

const char* to_string(IngestResult r) {
  switch (r) {
    case IngestResult::kAccepted:
      return "accepted";
    case IngestResult::kUnknownProducer:
      return "unknown producer";
    case IngestResult::kBadAuthenticator:
      return "bad authenticator";
    case IngestResult::kStaleSequence:
      return "stale sequence";
    case IngestResult::kDuplicate:
      return "duplicate sequence";
  }
  return "unknown";
}

const char* to_string(AckResult r) {
  switch (r) {
    case AckResult::kAcked:
      return "acked";
    case AckResult::kUnknownConsumer:
      return "unknown consumer";
    case AckResult::kUnknownProducer:
      return "unknown producer";
    case AckResult::kRegressed:
      return "regressed ack";
    case AckResult::kAhead:
      return "ack ahead of stream";
  }
  return "unknown";
}

ReceiptStore::ReceiptStore() : ReceiptStore(make_memory_storage()) {}

ReceiptStore::ReceiptStore(std::unique_ptr<EnvelopeStorage> storage)
    : storage_(std::move(storage)) {
  RecoveredState recovered = storage_->recover();
  for (auto& consumer : recovered.consumers) {
    Consumer& slot = cursors_[consumer.name];
    slot.all_producers = slot.all_producers || consumer.all_producers;
    for (const DomainId producer : consumer.subscribed) {
      slot.subscribed.insert(producer);
    }
    for (const auto& [producer, sequence] : consumer.acked) {
      auto& cur = slot.acked[producer];
      cur = std::max(cur, sequence);
      auto& last = last_sequence_[producer];
      last = std::max(last, sequence);
    }
  }
  // The head is the max of retained envelopes and acknowledgements: a
  // fully-acked producer can have zero retained envelopes (all collected
  // before the crash) yet its sequence stream must resume above the acks,
  // and collection never erases above the minimum ack, so the max ack
  // bounds everything ever erased.
  for (const auto& [producer, head] : recovered.producer_heads) {
    auto& last = last_sequence_[producer];
    last = std::max(last, head);
  }
  // Recompute every GC floor from the recovered acknowledgements.  Every
  // gating consumer has a persisted ack at or above where it came in
  // (subscribe/register baseline the floor as an initial ack), so the
  // gating minimum — and with it the recomputed floor — equals the
  // pre-crash floor; this also unlinks segments whose full ack predated
  // the crash but whose unlink didn't survive it.
  for (const auto& [producer, last] : last_sequence_) {
    (void)last;
    collect_garbage(producer);
  }
}

void ReceiptStore::register_producer(DomainId producer, DomainKey key) {
  keys_[producer] = key;
}

IngestOutcome ReceiptStore::ingest(Envelope envelope) {
  IngestOutcome out;
  out.got_sequence = envelope.sequence;
  const auto floor_it = gc_floor_.find(envelope.producer);
  const std::uint64_t floor =
      floor_it == gc_floor_.end() ? 0 : floor_it->second;
  out.expected_sequence = floor + 1;

  const auto key_it = keys_.find(envelope.producer);
  if (key_it == keys_.end()) {
    ++rejected_;
    out.result = IngestResult::kUnknownProducer;
    return out;
  }
  if (!verify(envelope, key_it->second)) {
    ++rejected_;
    out.result = IngestResult::kBadAuthenticator;
    return out;
  }
  // Sequence 0 sits below the cursor sentinel (cursor 0 == "nothing
  // acked"): it could never be fetched through a cursor nor acked, so it
  // would be silently lost to every consumer — reject it like any other
  // at-or-below-floor sequence.  The floor test is the replay/rollback
  // rejection over an out-of-order transport: collection only erases
  // sequences <= floor, so anything above the floor that is absent from
  // the backend was genuinely never accepted (a reordered fresh
  // envelope), while a replayed collected envelope lands at or below the
  // floor.
  if (envelope.sequence <= floor) {
    ++rejected_;
    out.result = IngestResult::kStaleSequence;
    return out;
  }
  if (storage_->contains(envelope.producer, envelope.sequence)) {
    ++rejected_;
    out.result = IngestResult::kDuplicate;
    return out;
  }
  auto& last = last_sequence_[envelope.producer];
  last = std::max(last, envelope.sequence);
  storage_->put(std::move(envelope));
  ++accepted_;
  out.result = IngestResult::kAccepted;
  return out;
}

std::vector<std::vector<std::byte>> ReceiptStore::payloads_from(
    DomainId producer) const {
  std::vector<std::vector<std::byte>> out;
  storage_->visit_after(
      producer, 0,
      [&out](std::uint64_t, std::span<const std::byte> payload) {
        out.emplace_back(payload.begin(), payload.end());
      });
  return out;
}

void ReceiptStore::for_each_payload(
    DomainId producer,
    core::FunctionRef<void(std::span<const std::byte>)> visit) const {
  storage_->visit_after(
      producer, 0,
      [&visit](std::uint64_t, std::span<const std::byte> payload) {
        visit(payload);
      });
}

namespace {

void check_consumer_name(const std::string& name) {
  if (name.size() > kMaxConsumerNameBytes) {
    throw std::invalid_argument(
        "ReceiptStore: consumer name of " + std::to_string(name.size()) +
        " bytes exceeds " + std::to_string(kMaxConsumerNameBytes));
  }
}

}  // namespace

void ReceiptStore::register_consumer(const std::string& name) {
  check_consumer_name(name);
  Consumer& slot = cursors_[name];
  slot.all_producers = true;
  storage_->persist_registration(name, true);
  for (const auto& [producer, floor] : gc_floor_) {
    baseline_at_floor(slot, name, producer, floor);
  }
}

void ReceiptStore::subscribe(const std::string& name, DomainId producer) {
  check_consumer_name(name);
  Consumer& slot = cursors_[name];
  if (slot.all_producers) return;  // already gates everything
  slot.subscribed.insert(producer);
  storage_->persist_subscription(name, producer);
  const auto floor_it = gc_floor_.find(producer);
  if (floor_it != gc_floor_.end()) {
    baseline_at_floor(slot, name, producer, floor_it->second);
  }
}

void ReceiptStore::baseline_at_floor(Consumer& slot, const std::string& name,
                                     DomainId producer, std::uint64_t floor) {
  // A consumer that starts gating a producer mid-stream begins at the
  // producer's current GC floor — it can never fetch below it — and that
  // baseline must be DURABLE: recovery recomputes floors from persisted
  // acknowledgements alone, so an ack-less late subscriber would
  // otherwise rewind the recovered floor to zero, un-collecting
  // sequences it never owned and re-serving them after a crash.
  auto& cur = slot.acked[producer];
  if (floor > cur) {
    cur = floor;
    storage_->persist_ack(name, producer, floor);
  }
}

std::uint64_t ReceiptStore::effective_cursor(const Consumer& consumer,
                                             DomainId producer) const {
  std::uint64_t cur = 0;
  const auto floor_it = gc_floor_.find(producer);
  if (floor_it != gc_floor_.end()) cur = floor_it->second;
  const auto ack_it = consumer.acked.find(producer);
  if (ack_it != consumer.acked.end()) cur = std::max(cur, ack_it->second);
  return cur;
}

void ReceiptStore::fetch_from(
    const std::string& consumer, DomainId producer,
    core::FunctionRef<void(std::uint64_t, std::span<const std::byte>)> visit)
    const {
  const auto cons_it = cursors_.find(consumer);
  if (cons_it == cursors_.end()) {
    throw std::invalid_argument("ReceiptStore: unregistered consumer \"" +
                                consumer + "\"");
  }
  const std::uint64_t cur = effective_cursor(cons_it->second, producer);
  storage_->visit_after(producer, cur, visit);
}

AckOutcome ReceiptStore::ack(const std::string& consumer, DomainId producer,
                             std::uint64_t sequence) {
  AckOutcome out;
  out.got_sequence = sequence;
  const auto cons_it = cursors_.find(consumer);
  if (cons_it == cursors_.end()) {
    out.result = AckResult::kUnknownConsumer;
    return out;
  }
  if (!keys_.contains(producer)) {
    out.result = AckResult::kUnknownProducer;
    return out;
  }
  const std::uint64_t cur = effective_cursor(cons_it->second, producer);
  if (sequence < cur) {
    out.result = AckResult::kRegressed;
    out.expected_sequence = cur;
    return out;
  }
  const auto last_it = last_sequence_.find(producer);
  const std::uint64_t last =
      last_it == last_sequence_.end() ? 0 : last_it->second;
  if (sequence > last) {
    out.result = AckResult::kAhead;
    out.expected_sequence = last;
    return out;
  }
  if (sequence > cur) {
    cons_it->second.acked[producer] = sequence;
    storage_->persist_ack(consumer, producer, sequence);
    collect_garbage(producer);
  }
  out.result = AckResult::kAcked;
  const std::uint64_t after = effective_cursor(cons_it->second, producer);
  out.expected_sequence = after;
  // Lag AFTER collection: count against what the store still retains, not
  // against envelopes this very ack just erased.
  out.consumer_lag = storage_->count_after(producer, after);
  return out;
}

std::uint64_t ReceiptStore::cursor(const std::string& consumer,
                                   DomainId producer) const {
  const auto cons_it = cursors_.find(consumer);
  if (cons_it == cursors_.end()) {
    throw std::invalid_argument("ReceiptStore: unregistered consumer \"" +
                                consumer + "\"");
  }
  return effective_cursor(cons_it->second, producer);
}

std::uint64_t ReceiptStore::gc_floor(DomainId producer) const {
  const auto it = gc_floor_.find(producer);
  return it == gc_floor_.end() ? 0 : it->second;
}

std::size_t ReceiptStore::consumer_lag(const std::string& consumer,
                                       DomainId producer) const {
  const auto cons_it = cursors_.find(consumer);
  if (cons_it == cursors_.end()) {
    throw std::invalid_argument("ReceiptStore: unregistered consumer \"" +
                                consumer + "\"");
  }
  return storage_->count_after(producer,
                               effective_cursor(cons_it->second, producer));
}

void ReceiptStore::collect_garbage(DomainId producer) {
  // The floor is the minimum effective cursor over consumers that GATE
  // this producer (all-producer registrants plus its subscribers).  With
  // no gating consumer nothing is collected: an unsubscribed "tap"
  // fetching this producer cannot cause data loss for a gating consumer
  // that registers later, and the historical no-consumers-no-GC rule
  // falls out as the zero-gating case.
  std::uint64_t floor = static_cast<std::uint64_t>(-1);
  bool gated = false;
  for (const auto& [name, consumer] : cursors_) {
    if (!consumer.gates(producer)) continue;
    gated = true;
    floor = std::min(floor, effective_cursor(consumer, producer));
  }
  if (!gated) return;
  auto& floor_slot = gc_floor_[producer];
  if (floor <= floor_slot) return;
  floor_slot = floor;
  storage_->erase_through(producer, floor);
}

}  // namespace vpm::dissem
