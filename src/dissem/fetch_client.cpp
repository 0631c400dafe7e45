#include "dissem/fetch_client.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/bob_hash.hpp"
#include "net/wire.hpp"

namespace vpm::dissem {
namespace {

/// Backoff (in polls) after a poll that saw nothing new: the cap doubles
/// from kBackoffInitialPolls up to kBackoffMaxPolls, and the actual skip is
/// drawn uniformly from [1, cap] (seeded jitter).
constexpr std::uint64_t kBackoffInitialPolls = 1;
constexpr std::uint64_t kBackoffMaxPolls = 8;

}  // namespace

FetchClient::FetchClient(const WireImporter& importer, ReceiptStore& store,
                         Config cfg, RoundHandler on_rounds,
                         GapHandler on_gap)
    : importer_(&importer),
      store_(&store),
      cfg_(std::move(cfg)),
      on_rounds_(std::move(on_rounds)),
      on_gap_(std::move(on_gap)),
      rng_state_(cfg_.seed) {
  if (!on_rounds_ || !on_gap_) {
    throw std::invalid_argument("FetchClient: null handler");
  }
  // Crash-resume: the acked cursor is the only durable consumer state.
  // Everything after it is re-fetched and re-decoded by the fresh
  // session; nothing before it can be served again (at-least-once fetch,
  // exactly-once delivery).
  last_fed_ = store_->cursor(cfg_.consumer, cfg_.producer);
  session_ =
      std::make_unique<WireImporter::Session>(*importer_, buffer_);
}

std::uint64_t FetchClient::next_u64() {
  return net::mix64(rng_state_ += 0x9E3779B97F4A7C15ull);
}

void FetchClient::poll() {
  ++stats_.polls;
  if (skip_polls_ > 0) {
    --skip_polls_;
    ++stats_.backoff_skips;
    return;
  }
  run_fetch_pass(/*force_gap=*/false);
}

void FetchClient::finalize() {
  skip_polls_ = 0;
  backoff_failures_ = 0;
  // No more polls are coming: a sequence still inside its patience window
  // is not late, it is gone.  Declare, resync, deliver what closes.
  run_fetch_pass(/*force_gap=*/true);
  // The stream ended while still hunting a round close (or the gap had
  // nothing behind it at all): close the gap over everything consumed.
  if (gap_open_) close_gap();
}

void FetchClient::run_fetch_pass(bool force_gap) {
  bool progress = false;
  bool saw_new = false;
  bool stop = false;
  store_->fetch_from(
      cfg_.consumer, cfg_.producer,
      [&](std::uint64_t seq, std::span<const std::byte> payload) {
        if (stop) return;
        if (seq <= last_fed_) {
          // Fed before a crash or a transient retry, never acked: the
          // session already holds its content (or is resyncing past it).
          ++stats_.refetch_skips;
          return;
        }
        saw_new = true;
        if (!session_->resyncing() && seq != last_fed_ + 1) {
          // Missing sequence(s) ahead.  Reordered/delayed envelopes file
          // into the store out of order, so give them `gap_patience_polls`
          // polls to appear before declaring loss.
          if (!force_gap && gap_wait_ < cfg_.gap_patience_polls) {
            ++gap_wait_;
            ++stats_.gap_wait_polls;
            stop = true;
            return;
          }
          begin_gap(last_fed_ + 1, core::RoundGap::Cause::kLost);
          gap_.last_sequence = seq - 1;
          discard_partial_round();
          session_->resync();
        }
        // Captured BEFORE the feed: the envelope whose round close
        // completes a resync is itself consumed by the skip walk, so it
        // belongs in the gap range — checking resyncing() afterwards
        // would exclude it and let a round the walk swallowed whole pass
        // for delivered.
        const bool was_resyncing = session_->resyncing();
        if (!feed_payload(seq, payload)) {
          stop = true;  // transient: retry this payload next poll
          return;
        }
        last_fed_ = seq;
        progress = true;
        if (gap_open_ && was_resyncing && gap_.last_sequence < seq) {
          gap_.last_sequence = seq;  // the resync walk consumed it
        }
        if (!gap_open_) gap_wait_ = 0;
        if (gap_open_ && !session_->resyncing()) close_gap();
        if (session_->at_round_boundary()) deliver_and_ack();
      });
  if (saw_new || progress) {
    backoff_failures_ = 0;
    return;
  }
  // Nothing new at all: capped exponential backoff, jittered over
  // [1, cap] so a fleet of consumers does not thunder back in step.
  ++backoff_failures_;
  const std::uint64_t shift =
      std::min<std::uint64_t>(backoff_failures_ - 1, 20);
  const std::uint64_t cap =
      std::min(kBackoffInitialPolls << shift, kBackoffMaxPolls);
  skip_polls_ = 1 + next_u64() % cap;
}

bool FetchClient::feed_payload(std::uint64_t sequence,
                               std::span<const std::byte> payload) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      session_->feed(payload);
      ++stats_.envelopes_fed;
      return true;
    } catch (const net::WireError& e) {
      if (e.transient()) {
        // Truncated fetch: the session state is untouched (documented
        // feed() contract) — the identical payload retries next poll.
        ++stats_.transient_retries;
        return false;
      }
      // Corrupt content behind a valid MAC: the producer round it sits in
      // is unrecoverable.  Open (or extend) a gap and resync; the second
      // attempt re-walks this payload in skip mode to find a round close
      // further in.
      ++stats_.fatal_errors;
      begin_gap(sequence, core::RoundGap::Cause::kCorrupt);
      if (gap_.last_sequence < sequence) gap_.last_sequence = sequence;
      discard_partial_round();
      session_->resync();
    }
  }
  // The skip walk itself threw: the payload's item framing is beyond
  // saving.  Swallow it whole into the gap and stay resyncing.
  session_->resync();
  return true;
}

void FetchClient::begin_gap(std::uint64_t first_missing,
                            core::RoundGap::Cause cause) {
  if (gap_open_) return;  // first cause wins; the range keeps extending
  gap_open_ = true;
  gap_ = core::RoundGap{};
  gap_.producer = cfg_.producer_name;
  gap_.hop = cfg_.hop;
  gap_.first_sequence = first_missing;
  gap_.last_sequence = first_missing;
  gap_.cause = cause;
}

void FetchClient::discard_partial_round() {
  // Whatever the buffer holds belongs to round(s) that will never
  // complete — name their paths in the gap instead of delivering them.
  std::vector<core::IndexedPathDrain> groups = std::move(buffer_).take();
  for (const core::IndexedPathDrain& g : groups) {
    gap_.affected_paths.push_back(importer_->path_at(g.path).path_key());
  }
}

void FetchClient::close_gap() {
  for (std::uint64_t key : session_->take_skipped_keys()) {
    gap_.affected_paths.push_back(key);
  }
  std::sort(gap_.affected_paths.begin(), gap_.affected_paths.end());
  gap_.affected_paths.erase(
      std::unique(gap_.affected_paths.begin(), gap_.affected_paths.end()),
      gap_.affected_paths.end());
  ++stats_.gaps_reported;
  on_gap_(std::move(gap_));
  gap_ = core::RoundGap{};
  gap_open_ = false;
  gap_wait_ = 0;
}

void FetchClient::deliver_and_ack() {
  std::vector<core::IndexedPathDrain> groups = std::move(buffer_).take();
  if (!groups.empty()) {
    stats_.groups_delivered += groups.size();
    ++stats_.deliveries;
    on_rounds_(std::move(groups));
  }
  // Ack even a delivery-empty boundary (a bare round close, or a round
  // fully swallowed by a gap): the cursor must advance past consumed
  // sequences or they are re-fetched forever — the "stuck cursor" the
  // soak asserts against.
  if (last_fed_ > store_->cursor(cfg_.consumer, cfg_.producer)) {
    const AckOutcome out =
        store_->ack(cfg_.consumer, cfg_.producer, last_fed_);
    ++stats_.acks;
    if (!(out == AckResult::kAcked)) ++stats_.ack_rejections;
  }
}

}  // namespace vpm::dissem
