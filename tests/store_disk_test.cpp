// The receipt store on disk: a ReceiptStore over SegmentStorage gates
// collection per consumer, rejects consumer names its cursor log cannot
// hold, and recovers cursors, envelopes and heads across a reopen; the
// SegmentStore under it recovers torn tails and torn creates and unlinks
// whole segments at the GC floor; and the cursor log compacts.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "dissem/segment_store.hpp"
#include "helpers.hpp"

namespace vpm {
namespace {

constexpr dissem::DomainKey kKey = 0xABCDEF;

dissem::Envelope make_env(dissem::DomainId producer, std::uint64_t seq,
                          std::size_t payload_bytes = 24) {
  return dissem::seal(
      producer, seq,
      std::vector<std::byte>(payload_bytes,
                             std::byte{static_cast<unsigned char>(seq)}),
      kKey);
}

std::size_t segment_files_on_disk(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".seg") ++n;
  }
  return n;
}

dissem::ReceiptStore open_disk_store(const std::filesystem::path& dir) {
  return dissem::ReceiptStore(
      dissem::make_segment_storage({.directory = dir}));
}

// --- consumer gating and reopen ---------------------------------------------

TEST(ReceiptStoreDisk, RegisterConsumerGatesEveryProducerSubscribeGatesOne) {
  test::TempDir tmp("store-gating");
  dissem::ReceiptStore store = open_disk_store(tmp.path());
  const std::vector<dissem::DomainId> producers = {1, 2, 3};
  for (const dissem::DomainId p : producers) store.register_producer(p, kKey);

  store.register_consumer("everything");
  store.subscribe("one", producers[0]);
  for (const dissem::DomainId p : producers) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      ASSERT_EQ(store.ingest(make_env(p, s)), dissem::IngestResult::kAccepted);
    }
  }
  // "everything" holds the floor on all three producers...
  ASSERT_EQ(store.ack("one", producers[0], 4), dissem::AckResult::kAcked);
  EXPECT_EQ(store.gc_floor(producers[0]), 0u);
  EXPECT_EQ(store.stored_envelopes(), 12u);
  // ...and once it acks, only its own cursor gates: producer 0 (both
  // consumers at 4) collects, the others (gated only by "everything")
  // collect too.
  for (const dissem::DomainId p : producers) {
    ASSERT_EQ(store.ack("everything", p, 4), dissem::AckResult::kAcked);
  }
  EXPECT_EQ(store.gc_floor(producers[0]), 4u);
  EXPECT_EQ(store.stored_envelopes(), 0u);
  EXPECT_EQ(store.cursor("one", producers[0]), 4u);
}

TEST(ReceiptStoreDisk, ReopenRecoversCursorsEnvelopesAndHeads) {
  test::TempDir tmp("store-reopen");
  const std::vector<dissem::DomainId> producers = {3, 7, 11, 19};
  {
    dissem::ReceiptStore store = open_disk_store(tmp.path());
    for (const dissem::DomainId p : producers) {
      store.register_producer(p, kKey);
    }
    store.register_consumer("c");
    for (const dissem::DomainId p : producers) {
      for (std::uint64_t s = 1; s <= 6; ++s) {
        ASSERT_EQ(store.ingest(make_env(p, s)),
                  dissem::IngestResult::kAccepted);
      }
      ASSERT_EQ(store.ack("c", p, 2 + p % 3), dissem::AckResult::kAcked);
    }
  }
  dissem::ReceiptStore store = open_disk_store(tmp.path());
  for (const dissem::DomainId p : producers) store.register_producer(p, kKey);
  for (const dissem::DomainId p : producers) {
    EXPECT_EQ(store.last_sequence(p), 6u) << "producer " << p;
    EXPECT_EQ(store.cursor("c", p), 2 + p % 3) << "producer " << p;
    // Unacked envelopes survive and fetch resumes mid-stream...
    std::vector<std::uint64_t> seqs;
    store.fetch_from("c", p,
                     [&seqs](std::uint64_t s, std::span<const std::byte>) {
                       seqs.push_back(s);
                     });
    ASSERT_FALSE(seqs.empty());
    EXPECT_EQ(seqs.front(), 2 + p % 3 + 1);
    EXPECT_EQ(seqs.back(), 6u);
    // ...replays of durable envelopes are rejected as duplicates, and
    // pre-floor replays as stale.
    EXPECT_EQ(store.ingest(make_env(p, 6)), dissem::IngestResult::kDuplicate);
    EXPECT_EQ(store.ingest(make_env(p, 7)), dissem::IngestResult::kAccepted);
  }
}

TEST(ReceiptStoreDisk, LateSubscriberBaselineHoldsTheFloorAcrossReopen) {
  // A consumer that subscribes after GC has run starts at the floor; that
  // baseline must be durable.  Recovery recomputes floors from persisted
  // acks, so an ack-less late subscriber used to rewind the recovered
  // floor to zero — un-collecting sequences it never owned, so collected
  // envelopes could re-ingest and be re-served after a restart.
  test::TempDir tmp("store-baseline");
  constexpr dissem::DomainId kP = 6;
  {
    dissem::ReceiptStore store = open_disk_store(tmp.path());
    store.register_producer(kP, kKey);
    store.subscribe("auditor", kP);
    for (std::uint64_t s = 1; s <= 8; ++s) {
      ASSERT_EQ(store.ingest(make_env(kP, s)),
                dissem::IngestResult::kAccepted);
    }
    ASSERT_EQ(store.ack("auditor", kP, 5), dissem::AckResult::kAcked);
    ASSERT_EQ(store.gc_floor(kP), 5u);
    store.subscribe("late", kP);  // joins at the floor, never acks
    EXPECT_EQ(store.cursor("late", kP), 5u);
  }
  dissem::ReceiptStore store = open_disk_store(tmp.path());
  store.register_producer(kP, kKey);
  EXPECT_EQ(store.gc_floor(kP), 5u)
      << "the late subscriber's baseline must gate from the floor, not 0";
  EXPECT_EQ(store.cursor("late", kP), 5u);
  EXPECT_EQ(store.ingest(make_env(kP, 3)),
            dissem::IngestResult::kStaleSequence)
      << "a collected sequence must never re-ingest after recovery";
}

TEST(ReceiptStoreDisk, OverlongConsumerNamesAreRejectedTheLongestSurvives) {
  // The cursor log writes a name's length as a u16.  A 65 536-byte name
  // used to wrap it to 0, and recovery then cut the log at that record,
  // dropping every consumer record after it.
  test::TempDir tmp("store-names");
  constexpr dissem::DomainId kP = 2;
  const std::string longest(dissem::kMaxConsumerNameBytes, 'n');
  const std::string too_long(dissem::kMaxConsumerNameBytes + 1, 'n');
  {
    dissem::ReceiptStore store = open_disk_store(tmp.path());
    store.register_producer(kP, kKey);
    store.register_consumer("a");
    for (std::uint64_t s = 1; s <= 4; ++s) {
      ASSERT_EQ(store.ingest(make_env(kP, s)),
                dissem::IngestResult::kAccepted);
    }
    ASSERT_EQ(store.ack("a", kP, 2), dissem::AckResult::kAcked);
    const dissem::StorageStats before = store.storage_stats();
    EXPECT_THROW(store.register_consumer(too_long), std::invalid_argument);
    EXPECT_THROW(store.subscribe(too_long, kP), std::invalid_argument);
    EXPECT_EQ(store.storage_stats(), before);
    EXPECT_EQ(store.gc_floor(kP), 2u);
    EXPECT_EQ(store.ack(too_long, kP, 4),
              dissem::AckResult::kUnknownConsumer);

    store.register_consumer(longest);
    store.subscribe("b", kP);
    ASSERT_EQ(store.ack(longest, kP, 3), dissem::AckResult::kAcked);
    ASSERT_EQ(store.ack("b", kP, 4), dissem::AckResult::kAcked);
  }
  dissem::ReceiptStore store = open_disk_store(tmp.path());
  store.register_producer(kP, kKey);
  EXPECT_EQ(store.cursor("a", kP), 2u);
  EXPECT_EQ(store.cursor(longest, kP), 3u);
  EXPECT_EQ(store.cursor("b", kP), 4u);
  EXPECT_EQ(store.gc_floor(kP), 2u);
  EXPECT_THROW((void)store.cursor(too_long, kP), std::invalid_argument);

  // The memory store draws the same line.
  dissem::ReceiptStore memory;
  EXPECT_THROW(memory.register_consumer(too_long), std::invalid_argument);
  EXPECT_THROW(memory.subscribe(too_long, kP), std::invalid_argument);
  EXPECT_NO_THROW(memory.register_consumer(longest));
}

// --- SegmentStore on real files -------------------------------------------

TEST(SegmentStoreDisk, RollsSegmentsAndUnlinksWholeFilesAtTheFloor) {
  test::TempDir tmp("seg-roll");
  dissem::SegmentStoreConfig cfg;
  cfg.directory = tmp.path();
  cfg.max_segment_bytes = 256;  // a few records per file
  dissem::SegmentStore store(cfg);
  constexpr dissem::DomainId kP = 5;
  for (std::uint64_t s = 1; s <= 40; ++s) store.append(make_env(kP, s));

  const dissem::StorageStats before = store.stats();
  EXPECT_GT(before.segments_live, 4u) << "must have rolled several files";
  EXPECT_EQ(segment_files_on_disk(tmp.path()), before.segments_live);
  EXPECT_EQ(before.envelopes, 40u);

  // A floor of 20 unlinks exactly the files whose max sequence <= 20; the
  // file straddling the floor is retained whole (over-retention is
  // invisible: reads start above the cursor).
  store.erase_through(kP, 20);
  const dissem::StorageStats after = store.stats();
  EXPECT_GT(after.segments_unlinked, 0u);
  EXPECT_EQ(segment_files_on_disk(tmp.path()), after.segments_live);
  EXPECT_LT(after.segments_live, before.segments_live);
  for (std::uint64_t s = 21; s <= 40; ++s) {
    EXPECT_TRUE(store.contains(kP, s)) << "sequence " << s;
  }
  std::vector<std::uint64_t> seqs;
  store.visit_after(kP, 20,
                    [&seqs](std::uint64_t s, std::span<const std::byte>) {
                      seqs.push_back(s);
                    });
  ASSERT_EQ(seqs.size(), 20u);
  EXPECT_EQ(seqs.front(), 21u);
  EXPECT_EQ(seqs.back(), 40u);
  EXPECT_EQ(store.count_after(kP, 20), 20u);

  // Everything collected: the whole chain's files go away.
  store.erase_through(kP, 40);
  EXPECT_EQ(store.stats().segments_live, 0u);
  EXPECT_EQ(segment_files_on_disk(tmp.path()), 0u);
}

TEST(SegmentStoreDisk, ReopenRecoversTornTailAndServesThePrefix) {
  test::TempDir tmp("seg-torn");
  dissem::SegmentStoreConfig cfg;
  cfg.directory = tmp.path();
  constexpr dissem::DomainId kP = 9;
  std::vector<dissem::Envelope> written;
  {
    dissem::SegmentStore store(cfg);
    for (std::uint64_t s = 1; s <= 6; ++s) {
      written.push_back(make_env(kP, s, 30 + s));
      store.append(written.back());
    }
  }
  // Tear mid-record: the last record loses its CRC and a payload byte.
  ASSERT_EQ(segment_files_on_disk(tmp.path()), 1u);
  std::filesystem::path seg;
  for (const auto& e : std::filesystem::directory_iterator(tmp.path())) {
    if (e.path().extension() == ".seg") seg = e.path();
  }
  const std::uintmax_t size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, size - 5);

  dissem::SegmentStore store(cfg);
  // One record = len(4) + envelope(17 + payload + mac 8) + crc(4).
  EXPECT_EQ(std::filesystem::file_size(seg),
            size - (written.back().payload.size() + 33))
      << "recovery must resize to the last whole record";
  EXPECT_FALSE(store.contains(kP, 6));
  for (std::uint64_t s = 1; s <= 5; ++s) {
    EXPECT_TRUE(store.contains(kP, s)) << "sequence " << s;
  }
  // The payload bytes of survivors are intact.
  store.visit_after(kP, 0,
                    [&](std::uint64_t s, std::span<const std::byte> payload) {
                      const auto& want = written[s - 1].payload;
                      ASSERT_EQ(payload.size(), want.size());
                      EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                                             want.begin(), want.end()));
                    });
  // Appending continues after the tear point with fresh sequences.
  store.append(make_env(kP, 6, 36));
  EXPECT_TRUE(store.contains(kP, 6));
}

TEST(SegmentStoreDisk, TornCreateAndHeaderOnlyFilesAreUnlinkedForeignNamesThrow) {
  test::TempDir tmp("seg-junk");
  // A 3-byte torn create and a header-only segment: both removed on open.
  {
    std::ofstream torn(tmp.path() / "p00000001-0000000000000000.seg",
                       std::ios::binary);
    torn << "VS";
  }
  {
    net::ByteWriter w;
    dissem::write_segment_header(2, w);
    std::ofstream header_only(tmp.path() / "p00000002-0000000000000000.seg",
                              std::ios::binary);
    header_only.write(reinterpret_cast<const char*>(w.view().data()),
                      static_cast<std::streamsize>(w.view().size()));
  }
  // Non-.seg litter is ignored, but a .seg file with a foreign name is
  // refused loudly — silently skipping it could hide real data.
  { std::ofstream notes(tmp.path() / "notes.txt"); notes << "hi"; }
  dissem::SegmentStoreConfig cfg;
  cfg.directory = tmp.path();
  {
    dissem::SegmentStore store(cfg);
    EXPECT_EQ(store.stats().segments_live, 0u);
    EXPECT_EQ(segment_files_on_disk(tmp.path()), 0u);
  }
  { std::ofstream bogus(tmp.path() / "bogus.seg"); bogus << "???"; }
  EXPECT_THROW(dissem::SegmentStore{cfg}, std::runtime_error);
}

TEST(SegmentStorageDisk, CursorLogCompactsAndRecoversTheLatestState) {
  test::TempDir tmp("seg-compact");
  dissem::SegmentStoreConfig cfg;
  cfg.directory = tmp.path();
  cfg.cursor_snapshot_every = 8;  // force many compactions
  constexpr dissem::DomainId kP = 4;
  const std::filesystem::path log = tmp.path() / "cursors.log";
  std::uintmax_t log_after_burst = 0;
  {
    dissem::ReceiptStore store(dissem::make_segment_storage(cfg));
    store.register_producer(kP, kKey);
    store.register_consumer("c");
    for (std::uint64_t s = 1; s <= 200; ++s) {
      ASSERT_EQ(store.ingest(make_env(kP, s, 8)),
                dissem::IngestResult::kAccepted);
      ASSERT_EQ(store.ack("c", kP, s), dissem::AckResult::kAcked);
    }
    log_after_burst = std::filesystem::file_size(log);
  }
  // 200 acks at snapshot_every=8 without compaction would be ~200
  // records; the compacted log holds a snapshot plus at most one window.
  EXPECT_LT(log_after_burst, 1024u)
      << "cursor log must compact, not grow with ack count";
  dissem::ReceiptStore store(dissem::make_segment_storage(cfg));
  store.register_producer(kP, kKey);
  EXPECT_EQ(store.cursor("c", kP), 200u);
  EXPECT_EQ(store.gc_floor(kP), 200u);
  EXPECT_EQ(store.ingest(make_env(kP, 150, 8)),
            dissem::IngestResult::kStaleSequence);
  EXPECT_EQ(store.ingest(make_env(kP, 201, 8)),
            dissem::IngestResult::kAccepted);
}

}  // namespace
}  // namespace vpm
