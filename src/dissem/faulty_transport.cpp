#include "dissem/faulty_transport.hpp"

#include <algorithm>
#include <utility>

#include "net/bob_hash.hpp"

namespace vpm::dissem {

FaultyTransport::FaultyTransport(FaultPlan plan, std::uint64_t seed,
                                 Deliver deliver)
    : plan_(plan), rng_state_(seed), deliver_(std::move(deliver)) {}

std::uint64_t FaultyTransport::next_u64() {
  return net::mix64(rng_state_ += 0x9E3779B97F4A7C15ull);
}

double FaultyTransport::next_unit() {
  // 53 high bits -> [0,1): every rate comparison is exact in a double.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void FaultyTransport::send(Envelope envelope) {
  ++stats_.offered;
  // Fixed draw order regardless of which faults fire, so one plan's
  // schedule is a strict superset of a weaker plan's under the same seed
  // prefix decisions — and every run replays exactly.
  const bool drop = next_unit() < plan_.drop_rate;
  const bool corrupt = next_unit() < plan_.corrupt_rate;
  const bool duplicate = next_unit() < plan_.duplicate_rate;
  const bool reorder = next_unit() < plan_.reorder_rate;
  const double delay_draw = next_unit();
  const std::uint64_t bit_draw = next_u64();

  if (drop) {
    ++stats_.dropped;
    lost_[envelope.producer].push_back(envelope.sequence);
    return;
  }
  if (corrupt) {
    // One flipped payload bit (or MAC bit, for an empty payload): the
    // envelope still arrives, but no key verifies it — the store rejects
    // it and the sequence is as gone as a drop, just via the other door.
    ++stats_.corrupted;
    lost_[envelope.producer].push_back(envelope.sequence);
    if (!envelope.payload.empty()) {
      const std::size_t bit = static_cast<std::size_t>(
          bit_draw % (envelope.payload.size() * 8));
      envelope.payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    } else {
      envelope.mac ^= 1u;
    }
    ++stats_.delivered;
    deliver_(std::move(envelope));
    return;
  }
  if (duplicate) {
    // The copy trails by one tick: it arrives after the consumer has
    // likely fetched (and maybe acked past) the original, exercising the
    // store's duplicate/stale rejection rather than a trivial back-to-
    // back dedupe.
    ++stats_.duplicated;
    pending_.push_back(Pending{tick_ + 1, ++send_counter_, envelope});
  }
  if (reorder) {
    // Held to the next tick and released BEFORE that tick's delayed
    // envelopes, in reverse send order: consecutive reordered envelopes
    // swap on the wire.
    ++stats_.reordered;
    pending_.push_back(Pending{tick_ + 1, -(++send_counter_),
                               std::move(envelope)});
    return;
  }
  if (plan_.delay_rate > 0.0 && delay_draw < plan_.delay_rate) {
    ++stats_.delayed;
    const std::uint64_t ticks =
        1 + bit_draw % std::max<std::size_t>(plan_.max_delay_ticks, 1);
    pending_.push_back(
        Pending{tick_ + ticks, ++send_counter_, std::move(envelope)});
    return;
  }
  ++stats_.delivered;
  deliver_(std::move(envelope));
}

void FaultyTransport::release_due() {
  // Stable partition of due envelopes, released by (ready_tick, order):
  // negative orders (reordered) precede positive (delayed/duplicated)
  // within a tick, and reversed among themselves.
  std::vector<Pending> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->ready_tick <= tick_) {
      due.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(due.begin(), due.end(), [](const Pending& a, const Pending& b) {
    if (a.ready_tick != b.ready_tick) return a.ready_tick < b.ready_tick;
    if ((a.order < 0) != (b.order < 0)) return a.order < 0;
    if (a.order < 0) return a.order > b.order;  // reverse send order
    return a.order < b.order;
  });
  for (Pending& p : due) {
    ++stats_.delivered;
    deliver_(std::move(p.envelope));
  }
}

void FaultyTransport::tick() {
  ++tick_;
  release_due();
}

void FaultyTransport::flush() {
  if (pending_.empty()) return;
  for (const Pending& p : pending_) {
    tick_ = std::max(tick_, p.ready_tick);
  }
  release_due();
}

std::vector<std::uint64_t> FaultyTransport::lost_sequences(
    DomainId producer) const {
  const auto it = lost_.find(producer);
  if (it == lost_.end()) return {};
  std::vector<std::uint64_t> out = it->second;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vpm::dissem
