// Tests for the Assumption-#2 dissemination substrate: authenticated
// envelopes and the per-producer receipt store, including the full loop of
// shipping real receipt batches through the store.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/receipt_batch.hpp"
#include "dissem/envelope.hpp"
#include "dissem/receipt_store.hpp"
#include "helpers.hpp"
#include "sim/path_run.hpp"
#include "trace/synthetic_trace.hpp"

namespace vpm::dissem {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out;
  for (const char* p = s; *p; ++p) out.push_back(static_cast<std::byte>(*p));
  return out;
}

TEST(Envelope, SealVerifyRoundTrip) {
  const Envelope e = seal(7, 1, bytes_of("receipts"), 0xfeedface);
  EXPECT_TRUE(verify(e, 0xfeedface));
  EXPECT_FALSE(verify(e, 0xfeedfacf));
}

TEST(Envelope, PayloadTamperDetected) {
  Envelope e = seal(7, 1, bytes_of("receipts"), 42);
  e.payload[3] ^= static_cast<std::byte>(0x01);
  EXPECT_FALSE(verify(e, 42));
}

TEST(Envelope, HeaderTamperDetected) {
  Envelope e = seal(7, 1, bytes_of("receipts"), 42);
  e.producer = 8;  // re-attributing the receipts must break the MAC
  EXPECT_FALSE(verify(e, 42));
  e.producer = 7;
  e.sequence = 99;  // replaying under a new sequence too
  EXPECT_FALSE(verify(e, 42));
}

// The MAC binds the 12-byte header (producer, sequence) and the payload.
// Round trips cannot catch a seal and verify that change together, so
// these values are pinned.  Lengths 0 and 12 end the hashed input on
// lookup3's last-block edge; 65 536 is the default chunk cap.
TEST(Envelope, MacsArePinned) {
  const auto payload_of = [](std::size_t n) {
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>((i * 37 + 11) & 0xFFu);
    }
    return out;
  };
  struct Pin {
    std::size_t length;
    DomainKey key;
    std::uint64_t mac;
  };
  const Pin pins[] = {
      {0, 0xFEEDFACEull, 0x3cbb8e6c8b7d2c0bull},
      {1, 0xFEEDFACEull, 0xff15e51c0db41469ull},
      {11, 0xFEEDFACEull, 0x14dea2d90def2863ull},
      {12, 0xFEEDFACEull, 0x16b84097bfc7c59bull},
      {13, 0xFEEDFACEull, 0x18cc9e308e80e147ull},
      {24, 0xFEEDFACEull, 0x9fee4fbd5552a896ull},
      {65536, 0xFEEDFACEull, 0x8e99573e9aeab9c2ull},
      {0, 0x0123456789ABCDEFull, 0xab23f7500e0d7ed3ull},
      {1, 0x0123456789ABCDEFull, 0x610010743b39fb63ull},
      {11, 0x0123456789ABCDEFull, 0xe1c511ffc84be351ull},
      {12, 0x0123456789ABCDEFull, 0xbddb6d275e5445bdull},
      {13, 0x0123456789ABCDEFull, 0x293bb2e7d9e304c5ull},
      {24, 0x0123456789ABCDEFull, 0x85d876c8299f5ba6ull},
      {65536, 0x0123456789ABCDEFull, 0xb433367a16e648d2ull},
  };
  for (const Pin& pin : pins) {
    const Envelope e =
        seal(0x01020304u, 0x1122334455667788ull, payload_of(pin.length),
             pin.key);
    EXPECT_EQ(e.mac, pin.mac) << std::hex << "length " << std::dec
                              << pin.length << " key 0x" << std::hex
                              << pin.key << ": got 0x" << e.mac;
    EXPECT_TRUE(verify(e, pin.key));
  }
}

TEST(Envelope, WireRoundTrip) {
  const Envelope e = seal(1234, 56789, bytes_of("hello receipts"), 77);
  net::ByteWriter w;
  encode(e, w);
  net::ByteReader r(w.view());
  const Envelope back = decode_envelope(r);
  EXPECT_EQ(back, e);
  EXPECT_TRUE(verify(back, 77));
}

TEST(Envelope, DecodeRejectsGarbage) {
  net::ByteWriter w;
  w.u8(0x99);
  net::ByteReader r(w.view());
  EXPECT_THROW((void)decode_envelope(r), net::WireError);

  // Absurd length claim.
  net::ByteWriter w2;
  w2.u8(0x21);
  w2.u32(1);
  w2.u64(1);
  w2.u32(0xFFFFFFFFu);
  net::ByteReader r2(w2.view());
  EXPECT_THROW((void)decode_envelope(r2), net::WireError);
}

TEST(ReceiptStore, AcceptsOnlyRegisteredAndAuthentic) {
  ReceiptStore store;
  store.register_producer(5, 0xabc);
  EXPECT_EQ(store.ingest(seal(5, 1, bytes_of("a"), 0xabc)),
            IngestResult::kAccepted);
  EXPECT_EQ(store.ingest(seal(6, 1, bytes_of("b"), 0xabc)),
            IngestResult::kUnknownProducer);
  EXPECT_EQ(store.ingest(seal(5, 2, bytes_of("c"), 0xdef)),
            IngestResult::kBadAuthenticator);
  EXPECT_EQ(store.accepted_count(), 1u);
  EXPECT_EQ(store.rejected_count(), 2u);
}

TEST(ReceiptStore, DedupesReplayAndFilesReorderedArrivals) {
  ReceiptStore store;
  store.register_producer(5, 1);
  EXPECT_EQ(store.ingest(seal(5, 10, bytes_of("x"), 1)),
            IngestResult::kAccepted);
  // Replay of a retained envelope dedupes (idempotent no-op)...
  const IngestOutcome dup = store.ingest(seal(5, 10, bytes_of("x"), 1));
  EXPECT_EQ(dup, IngestResult::kDuplicate);
  EXPECT_EQ(dup.got_sequence, 10u);
  // ...while a lower NEVER-SEEN sequence is a reordered arrival, not a
  // rollback: it files into place (ISSUE 6 — reordering must not become
  // loss).  Rollback rejection is the GC-floor test, pinned by
  // StoreCursor.StaleSequenceRejectionSurvivesGc.
  EXPECT_EQ(store.ingest(seal(5, 9, bytes_of("y"), 1)),
            IngestResult::kAccepted);
  EXPECT_EQ(store.ingest(seal(5, 11, bytes_of("z"), 1)),
            IngestResult::kAccepted);
  const auto payloads = store.payloads_from(5);
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], bytes_of("y")) << "sequence order, not arrival";
}

TEST(ReceiptStore, PayloadsReturnedInSequenceOrder) {
  ReceiptStore store;
  store.register_producer(3, 9);
  ASSERT_EQ(store.ingest(seal(3, 2, bytes_of("two"), 9)),
            IngestResult::kAccepted);
  ASSERT_EQ(store.ingest(seal(3, 5, bytes_of("five"), 9)),
            IngestResult::kAccepted);
  const auto payloads = store.payloads_from(3);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0].size(), 3u);
  EXPECT_EQ(payloads[1].size(), 4u);
  EXPECT_TRUE(store.payloads_from(99).empty());
}

// Regression for the span-lifetime hazard: payloads_from used to return
// spans into the stored envelopes, views whose validity silently depended
// on the store's container internals surviving later ingest.  It now
// returns owning copies — results must stay intact however much is
// ingested afterwards — and streaming consumers use for_each_payload,
// whose spans are documented valid only during the visit.
TEST(ReceiptStore, PayloadsFromSurvivesLaterIngest) {
  ReceiptStore store;
  store.register_producer(3, 9);
  ASSERT_EQ(store.ingest(seal(3, 1, bytes_of("first payload"), 9)),
            IngestResult::kAccepted);
  const auto before = store.payloads_from(3);
  ASSERT_EQ(before.size(), 1u);

  // Hammer the store: many new producers (rehashes the outer maps) and a
  // long run of further envelopes for the same producer.
  for (DomainId producer = 100; producer < 200; ++producer) {
    store.register_producer(producer, producer);
    ASSERT_EQ(store.ingest(seal(producer, 1, bytes_of("x"), producer)),
              IngestResult::kAccepted);
  }
  for (std::uint64_t seq = 2; seq <= 64; ++seq) {
    ASSERT_EQ(store.ingest(seal(3, seq, bytes_of("later"), 9)),
              IngestResult::kAccepted);
  }

  auto after = store.payloads_from(3);
  ASSERT_EQ(after.size(), 64u);
  EXPECT_EQ(before.front(), after.front());
  EXPECT_EQ(before.front(), bytes_of("first payload"));
}

TEST(ReceiptStore, ForEachPayloadVisitsInSequenceOrder) {
  ReceiptStore store;
  store.register_producer(4, 1);
  ASSERT_EQ(store.ingest(seal(4, 5, bytes_of("bb"), 1)),
            IngestResult::kAccepted);
  ASSERT_EQ(store.ingest(seal(4, 9, bytes_of("cccc"), 1)),
            IngestResult::kAccepted);
  std::vector<std::size_t> sizes;
  store.for_each_payload(4, [&](std::span<const std::byte> payload) {
    sizes.push_back(payload.size());
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 4}));
  store.for_each_payload(99, [&](std::span<const std::byte>) { FAIL(); });
}

TEST(ReceiptStore, KeyRotationInvalidatesOldKey) {
  ReceiptStore store;
  store.register_producer(5, 111);
  EXPECT_EQ(store.ingest(seal(5, 1, bytes_of("a"), 111)),
            IngestResult::kAccepted);
  store.register_producer(5, 222);
  EXPECT_EQ(store.ingest(seal(5, 2, bytes_of("b"), 111)),
            IngestResult::kBadAuthenticator);
  EXPECT_EQ(store.ingest(seal(5, 2, bytes_of("b"), 222)),
            IngestResult::kAccepted);
}

TEST(ReceiptStore, EndToEndReceiptBatchDelivery) {
  // A HOP produces real receipts, seals them into an envelope, publishes
  // to the store; the verifier-side consumer fetches, verifies, decodes.
  auto cfg = test::small_trace_config(401);
  const auto trace = trace::generate_trace(cfg);
  sim::PathEnvironment env;
  env.domains.resize(2);
  env.links.resize(1);
  env.seed = 402;
  const auto run = sim::run_path(trace, env);

  const auto protocol = test::test_protocol();
  auto monitor = test::make_monitor(
      protocol, core::HopTuning{.sample_rate = 0.02, .cut_rate = 1e-3},
      net::kNoHop, 2);
  test::feed(monitor, trace, run.hop_observations[0]);
  const core::PathDrain drain = monitor.drain_path(0, true);
  const core::SampleReceipt& samples = drain.samples;

  net::ByteWriter payload;
  const core::RoundHeader header{.sample_threshold = samples.sample_threshold,
                                 .marker_threshold = samples.marker_threshold,
                                 .base = net::Timestamp{}};
  core::encode_entry(core::size_entry(1, drain, header), drain, header,
                     payload);

  ReceiptStore store;
  store.register_producer(1, 0xC0FFEE);
  ASSERT_EQ(store.ingest(seal(1, 1,
                              std::vector<std::byte>(payload.view().begin(),
                                                     payload.view().end()),
                              0xC0FFEE)),
            IngestResult::kAccepted);

  const auto payloads = store.payloads_from(1);
  ASSERT_EQ(payloads.size(), 1u);
  net::ByteReader reader(payloads[0]);
  const core::PathDrain got =
      core::decode_entry(core::read_item(reader), samples.path, header);
  EXPECT_TRUE(reader.done());
  const core::SampleReceipt& got_samples = got.samples;
  const auto& got_aggs = got.aggregates;
  // Times quantise to 1 us on the wire; everything else is exact.
  ASSERT_EQ(got_samples.samples.size(), samples.samples.size());
  for (std::size_t i = 0; i < samples.samples.size(); ++i) {
    EXPECT_EQ(got_samples.samples[i].pkt_id, samples.samples[i].pkt_id);
    EXPECT_EQ(got_samples.samples[i].is_marker,
              samples.samples[i].is_marker);
    EXPECT_LE(
        std::abs((got_samples.samples[i].time - samples.samples[i].time)
                     .nanoseconds()),
        1000);
  }
  EXPECT_EQ(got_aggs.size(), drain.aggregates.size());
}

}  // namespace
}  // namespace vpm::dissem
