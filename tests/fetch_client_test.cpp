// Gap attribution in dissem::FetchClient: which wire path keys a RoundGap
// names when a reporting round cannot be delivered.  run_scenario routes
// report_gap by RoundGap::affected_paths, so the exact set matters.
//
// The producer here exports with a one-byte chunk cap, so every item
// ships in its own envelope.  Each round is: path p's entry for
// p = 0..3, then the round close — 5 envelopes.  Round r (0-based)
// therefore occupies sequences 5r + 1 .. 5r + 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/receipt.hpp"
#include "dissem/envelope.hpp"
#include "dissem/fetch_client.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/wire_exporter.hpp"
#include "dissem/wire_importer.hpp"
#include "net/time.hpp"

namespace vpm {
namespace {

constexpr dissem::DomainId kProducer = 4;
constexpr dissem::DomainKey kKey = 0xABCD;
constexpr std::size_t kPaths = 4;
constexpr std::size_t kRounds = 3;
constexpr std::uint64_t kEnvelopesPerRound = kPaths + 1;

std::vector<net::PathId> path_table() {
  std::vector<net::PathId> out;
  for (std::size_t p = 0; p < kPaths; ++p) {
    net::PathId id{};
    id.prefixes.source = net::Prefix(
        net::Ipv4Address(static_cast<std::uint32_t>(0x0A000000u + (p << 16))),
        16);
    id.prefixes.destination = net::Prefix(net::Ipv4Address(0xC0A80000u), 16);
    out.push_back(id);
  }
  return out;
}

/// One path's drain for reporting round `round`: one sampling round of
/// three records and two aggregates, all inside the round's second.
core::PathDrain drain_for(const net::PathId& id, std::size_t round) {
  core::PathDrain d;
  d.samples.path = id;
  d.samples.sample_threshold = 1000;
  d.samples.marker_threshold = 2000;
  const net::Timestamp start{net::seconds(static_cast<std::int64_t>(round))
                                 .nanoseconds()};
  auto pkt = static_cast<std::uint32_t>(100 * round + 1);
  for (int i = 0; i < 3; ++i) {
    d.samples.samples.push_back(core::SampleRecord{
        .pkt_id = pkt++,
        .time = start + net::microseconds(10 * i),
        .is_marker = i == 2});
  }
  for (int i = 0; i < 2; ++i) {
    core::AggregateReceipt a;
    a.path = id;
    a.agg = core::AggId{.first = pkt, .last = pkt + 1};
    pkt += 2;
    a.packet_count = 5;
    a.opened_at = start + net::milliseconds(100 * i);
    a.closed_at = a.opened_at + net::milliseconds(50);
    d.aggregates.push_back(a);
  }
  return d;
}

/// The producer's whole stream, one envelope per item.
std::vector<dissem::Envelope> export_rounds(
    const std::vector<net::PathId>& table) {
  std::vector<dissem::Envelope> out;
  dissem::WireExporter exporter(
      dissem::WireExporter::Config{
          .producer = kProducer, .key = kKey, .max_chunk_bytes = 1},
      [&out](dissem::Envelope&& e) { out.push_back(std::move(e)); });
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t p = 0; p < kPaths; ++p) {
      exporter.on_drain(p, drain_for(table[p], r));
    }
    exporter.end_round();
  }
  exporter.finish();
  return out;
}

struct Consumed {
  std::vector<core::IndexedPathDrain> delivered;
  std::vector<core::RoundGap> gaps;
};

/// Ingest `envelopes` (skipping the sequences in `lost`) and poll a
/// FetchClient until the stream is consumed.
Consumed consume(const std::vector<net::PathId>& table,
            const std::vector<dissem::Envelope>& envelopes,
            const std::vector<std::uint64_t>& lost) {
  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  store.register_consumer("verifier");
  for (const dissem::Envelope& e : envelopes) {
    if (std::find(lost.begin(), lost.end(), e.sequence) != lost.end()) {
      continue;
    }
    EXPECT_EQ(store.ingest(e), dissem::IngestResult::kAccepted);
  }
  const dissem::WireImporter importer(table);
  Consumed run;
  dissem::FetchClient client(
      importer, store,
      dissem::FetchClient::Config{.consumer = "verifier",
                                  .producer = kProducer,
                                  .producer_name = "X",
                                  .hop = 2},
      [&run](std::vector<core::IndexedPathDrain>&& groups) {
        for (core::IndexedPathDrain& g : groups) {
          run.delivered.push_back(std::move(g));
        }
      },
      [&run](core::RoundGap&& gap) { run.gaps.push_back(std::move(gap)); });
  for (int i = 0; i < 16; ++i) client.poll();
  client.finalize();
  return run;
}

std::vector<std::uint64_t> sorted_keys(const std::vector<net::PathId>& table,
                                       std::initializer_list<std::size_t> ps) {
  std::vector<std::uint64_t> keys;
  for (const std::size_t p : ps) keys.push_back(table[p].path_key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Rounds 0 and 2, whole and in order: what survives a gap in round 1.
std::vector<core::IndexedPathDrain> rounds_zero_and_two(
    const std::vector<net::PathId>& table) {
  std::vector<core::IndexedPathDrain> out;
  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    for (std::size_t p = 0; p < kPaths; ++p) {
      out.push_back({.path = p, .drain = drain_for(table[p], r)});
    }
  }
  return out;
}

TEST(FetchClientGap, LostEnvelopesNameThePathsDecodedAroundThem) {
  const std::vector<net::PathId> table = path_table();
  const std::vector<dissem::Envelope> envelopes = export_rounds(table);
  ASSERT_EQ(envelopes.size(), kRounds * kEnvelopesPerRound);

  // Round 1 spans sequences 6..10.  Lose path 1's and path 2's entries
  // (7, 8): both vanish whole with the lost envelopes.
  const Consumed run = consume(table, envelopes, {7, 8});

  ASSERT_EQ(run.gaps.size(), 1u);
  const core::RoundGap& gap = run.gaps[0];
  EXPECT_EQ(gap.cause, core::RoundGap::Cause::kLost);
  EXPECT_EQ(gap.first_sequence, 7u);
  // The resync walk consumes path 3's entry and the round close.
  EXPECT_EQ(gap.last_sequence, 10u);
  EXPECT_EQ(gap.producer, "X");
  EXPECT_EQ(gap.hop, 2u);
  // Path 0 was decoded whole but its round never closed; path 3 was
  // skipped by the resync walk.  Nothing arrived for paths 1 and 2, so
  // nothing names them.
  EXPECT_EQ(gap.affected_paths, sorted_keys(table, {0, 3}));

  EXPECT_EQ(run.delivered, rounds_zero_and_two(table));
}

TEST(FetchClientGap, CorruptAggregateSectionNamesItsHalfDecodedPath) {
  const std::vector<net::PathId> table = path_table();
  std::vector<dissem::Envelope> envelopes = export_rounds(table);
  ASSERT_EQ(envelopes.size(), kRounds * kEnvelopesPerRound);

  // Sequence 7 carries path 1's entry, which ends with its last
  // aggregate's AggTrans "after" count (u16, high byte last).  Flip that
  // byte and re-seal: the MAC and the item framing stay valid, so the
  // decode error (a window past the entry's bytes) is fatal, and it fires
  // half-way through the path's receipts.
  dissem::Envelope& victim = envelopes[6];
  ASSERT_EQ(victim.sequence, 7u);
  std::vector<std::byte> payload = victim.payload;
  payload.back() ^= std::byte{0xFF};
  victim = dissem::seal(kProducer, 7, std::move(payload), kKey);

  const Consumed run = consume(table, envelopes, {});

  ASSERT_EQ(run.gaps.size(), 1u);
  const core::RoundGap& gap = run.gaps[0];
  EXPECT_EQ(gap.cause, core::RoundGap::Cause::kCorrupt);
  EXPECT_EQ(gap.first_sequence, 7u);
  EXPECT_EQ(gap.last_sequence, 10u);
  // Path 0 decoded whole in the cut round, path 1 failed mid-entry,
  // paths 2 and 3 skipped by resync.
  EXPECT_EQ(gap.affected_paths, sorted_keys(table, {0, 1, 2, 3}));

  EXPECT_EQ(run.delivered, rounds_zero_and_two(table));
}

// A producer that never ships: every fetch pass comes back empty, so the
// client backs off — the skip cap doubles from 1 poll up to 8, and each
// skip run is drawn from [1, cap] by the seeded jitter.  Pins the schedule.
TEST(FetchClientBackoff, QuietProducerSkipsAreCappedAndPinned) {
  dissem::ReceiptStore store;
  store.register_producer(kProducer, kKey);
  store.register_consumer("verifier");
  const dissem::WireImporter importer(path_table());
  dissem::FetchClient client(
      importer, store,
      dissem::FetchClient::Config{.consumer = "verifier",
                                  .producer = kProducer,
                                  .producer_name = "X",
                                  .hop = 2,
                                  .seed = 1},
      [](std::vector<core::IndexedPathDrain>&&) {
        ADD_FAILURE() << "nothing was shipped";
      },
      [](core::RoundGap&&) { ADD_FAILURE() << "nothing was lost"; });

  std::uint64_t run = 0;
  std::uint64_t longest = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t skips = client.stats().backoff_skips;
    client.poll();
    run = client.stats().backoff_skips > skips ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_EQ(client.stats().polls, 200u);
  EXPECT_EQ(client.stats().backoff_skips, 163u);
  EXPECT_EQ(longest, 8u);  // the cap is reached and never exceeded
}

}  // namespace
}  // namespace vpm
