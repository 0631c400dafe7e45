#include "deployment.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "adversary/strategies.hpp"
#include "core/receipt_sink.hpp"
#include "dissem/segment_store.hpp"
#include "dissem/storage.hpp"

namespace e2e {
namespace {

constexpr dissem::DomainKey kKey = 0x5CE7A110;
constexpr const char* kConsumer = "verifier";
constexpr double kMarkerRate = 1e-3;
constexpr net::Duration kMarkerMaxAge = net::milliseconds(50);
/// Transit delay the lying egress claims for packets X dropped.
constexpr net::Duration kFakeDelay = net::milliseconds(2);
/// Threaded ingest hands the producer's packets to feed() in slices this
/// big, so shard workers start while the producer is still routing.
constexpr std::size_t kFeedSlice = 4096;
/// Segment-file size of the disk store: small, so every round rolls
/// segments and unlinks the ones the consumer has acked.
constexpr std::size_t kSegmentBytes = 32 * 1024;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Threads of this process.  A worker the previous HOP's stop() joined
/// can stay listed for a moment while the kernel finishes its exit (join
/// returns before the task is reaped), so a count above `limit` is read
/// again for up to 10 ms before it stands.
std::size_t live_threads(std::size_t limit) {
  std::size_t n = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    if (n <= limit) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return n;
}

std::vector<net::PathId> path_ids(const collector::MonitoringCache::Config& c,
                                  const std::vector<net::PrefixPair>& paths) {
  std::vector<net::PathId> out;
  out.reserve(paths.size());
  for (const net::PrefixPair& pair : paths) {
    out.push_back(net::PathId{.header_spec_id = c.protocol.header_spec.id(),
                              .prefixes = pair,
                              .previous_hop = c.previous_hop,
                              .next_hop = c.next_hop,
                              .max_diff = c.max_diff});
  }
  return out;
}

/// X's egress publishes, for every path, receipts claiming it delivered
/// everything its ingress saw.  A competent liar publishes well-formed
/// receipts, which the wire codec insists on: fabricated sample times are
/// clamped monotone, as the scenario engine does, and marker flags are
/// copied from the ingress records the lie is rebuilt from, so every
/// published sampling round still ends with a marker (time-keyed markers
/// fire at different packets once X drops some).
void hide_loss(std::vector<core::IndexedPathDrain>& egress,
               const std::vector<core::IndexedPathDrain>& ingress) {
  std::size_t j = 0;
  for (core::IndexedPathDrain& g : egress) {
    while (j < ingress.size() && ingress[j].path < g.path) ++j;
    if (j == ingress.size() || ingress[j].path != g.path) continue;
    const core::PathDrain& in = ingress[j].drain;
    g.drain.samples = vpm::adversary::hide_loss_samples(
        g.drain.samples, in.samples, kFakeDelay);
    std::vector<core::SampleRecord>& s = g.drain.samples.samples;
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i].is_marker = in.samples.samples[i].is_marker;
      if (i > 0) s[i].time = std::max(s[i].time, s[i - 1].time);
    }
    g.drain.aggregates =
        vpm::adversary::hide_loss_aggregates(g.drain.aggregates, in.aggregates);
  }
}

const core::LinkFinding* link_from(const core::PathAnalysis& a,
                                   const std::string& upstream) {
  for (const core::LinkFinding& l : a.links) {
    if (l.upstream_domain == upstream) return &l;
  }
  return nullptr;
}

}  // namespace

Ledger::Ledger(std::size_t paths) : dropped(paths, 0) {
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    observed[hop].assign(paths, 0);
    wire[hop].assign(paths, 0);
    delivered[hop].assign(paths, 0);
  }
}

Deployment::Deployment(const WorkloadSpec& spec,
                       const std::vector<net::PrefixPair>& paths,
                       const std::filesystem::path& store_dir, Tracer& tracer,
                       Ledger& ledger)
    : spec_(spec), tracer_(tracer), ledger_(ledger), paths_(paths.size()) {
  layout_.hops = {1, 2, 3, 4};
  layout_.domain_of = {"S", "X", "X", "D"};
  std::array<collector::MonitoringCache::Config, kHops> hop_cfg;
  for (std::size_t pos = 0; pos < kHops; ++pos) {
    collector::MonitoringCache::Config& c = hop_cfg[pos];
    c.protocol.marker_rate = kMarkerRate;
    c.protocol.marker_max_age = kMarkerMaxAge;
    c.tuning.sample_rate = spec.sample_rate;
    c.tuning.cut_rate = spec.cut_rate;
    c.self = layout_.hops[pos];
    c.previous_hop = pos == 0 ? net::kNoHop : layout_.hops[pos - 1];
    c.next_hop = pos + 1 == kHops ? net::kNoHop : layout_.hops[pos + 1];
  }

  // --- collectors ---------------------------------------------------------
  std::int64_t t = now_ns();
  for (std::size_t pos = 0; pos < kHops; ++pos) {
    collector::ShardedCollector::Config scfg;
    scfg.cache = hop_cfg[pos];
    scfg.shard_count = std::max<std::size_t>(1, spec.worker_shards);
    collectors_.push_back(
        std::make_unique<collector::ShardedCollector>(scfg, paths));
  }
  setup_.collectors_s = seconds_since(t);

  // --- store, exporters, importers, fetch clients -------------------------
  t = now_ns();
  if (spec.disk_store) {
    store_ = std::make_unique<dissem::ReceiptStore>(
        dissem::make_segment_storage(dissem::SegmentStoreConfig{
            .directory = store_dir,
            .max_segment_bytes = kSegmentBytes}));
  } else {
    store_ = std::make_unique<dissem::ReceiptStore>();
  }
  for (net::HopId hop : layout_.hops) store_->register_producer(hop, kKey);
  store_->register_consumer(kConsumer);
  for (std::size_t pos = 0; pos < kHops; ++pos) {
    exporters_.push_back(std::make_unique<dissem::WireExporter>(
        dissem::WireExporter::Config{.producer = layout_.hops[pos],
                                     .key = kKey,
                                     .max_chunk_bytes = spec.max_chunk_bytes},
        [this](dissem::Envelope&& e) {
          Scoped span(tracer_, Layer::kIngest);
          if (store_->ingest(std::move(e)) != dissem::IngestResult::kAccepted) {
            ++ledger_.ingest_rejects;
          }
        }));
    importers_.push_back(std::make_unique<dissem::WireImporter>(
        path_ids(hop_cfg[pos], paths)));
    dissem::FetchClient::Config ccfg;
    ccfg.consumer = kConsumer;
    ccfg.producer = layout_.hops[pos];
    ccfg.producer_name = layout_.domain_of[pos];
    ccfg.hop = layout_.hops[pos];
    ccfg.seed = 0xC11E57ull + pos;
    clients_.push_back(std::make_unique<dissem::FetchClient>(
        *importers_[pos], *store_, ccfg,
        [this, pos](std::vector<core::IndexedPathDrain>&& groups) {
          Scoped span(tracer_, Layer::kAddRound);
          const net::HopId hop = layout_.hops[pos];
          for (core::IndexedPathDrain& g : groups) {
            std::uint64_t packets = 0;
            for (const core::AggregateReceipt& a : g.drain.aggregates) {
              packets += a.packet_count;
            }
            ledger_.wire[pos][g.path] += packets;
            ++ledger_.delivered[pos][g.path];
            verifiers_[g.path].add_round(hop, std::move(g.drain));
          }
        },
        [this](core::RoundGap&&) { ++ledger_.gaps; }));
  }
  setup_.store_s = seconds_since(t);

  // --- verifiers ----------------------------------------------------------
  t = now_ns();
  const core::IncrementalPathVerifier::Config vcfg{.layout = layout_};
  verifiers_.reserve(paths_);
  for (std::size_t p = 0; p < paths_; ++p) verifiers_.emplace_back(vcfg);
  analyses_.resize(paths_);
  setup_.verifiers_s = seconds_since(t);

  // Benchmark bookkeeping (untimed): where each path's open receipt lives.
  const std::size_t shards = collectors_[0]->shard_count();
  std::vector<std::uint32_t> next_local(shards, 0);
  location_.resize(paths_);
  for (std::size_t p = 0; p < paths_; ++p) {
    const auto shard = static_cast<std::uint32_t>(
        collector::ShardedCollector::shard_of_key(
            collector::PathClassifier::key_of(paths[p]), shards));
    location_[p] = {shard, next_local[shard]++};
    const collector::MonitoringCache* cache =
        collectors_[0]->shard_cache(shard);
    if (cache == nullptr ||
        !(cache->path_id(location_[p].second).prefixes == paths[p])) {
      throw std::logic_error("shard layout differs from the routing rule");
    }
  }
}

Deployment::~Deployment() = default;

void Deployment::observe_hop(std::size_t hop, const Traffic& traffic) {
  collector::ShardedCollector& c = *collectors_[hop];
  const std::span<const net::Packet> packets(traffic.packets(hop));
  const std::span<const net::Timestamp> when(traffic.when(hop));
  if (spec_.worker_shards == 0) {
    Scoped span(tracer_, Layer::kObserve);
    c.observe_batch(packets, when);
    return;
  }
  {
    Scoped span(tracer_, Layer::kStartStop);
    c.start(1);
  }
  if (!threads_checked_) {
    max_threads_ =
        std::max(max_threads_, live_threads(max_ingest_threads()));
  }
  {
    Scoped span(tracer_, Layer::kFeed);
    for (std::size_t i = 0; i < packets.size(); i += kFeedSlice) {
      const std::size_t n = std::min(kFeedSlice, packets.size() - i);
      c.feed(0, packets.subspan(i, n), when.subspan(i, n));
    }
    c.flush(0);
  }
  {
    Scoped span(tracer_, Layer::kWaitIdle);
    c.wait_idle();
  }
  {
    Scoped span(tracer_, Layer::kStartStop);
    c.stop();
  }
}

Deployment::RoundTimes Deployment::run_round(const Traffic& traffic) {
  RoundTimes t;
  const std::int32_t root = tracer_.open(Layer::kRound);
  t.start_ns = now_ns();
  for (std::size_t hop = 0; hop < kHops; ++hop) observe_hop(hop, traffic);
  threads_checked_ = true;
  t.observed_ns = now_ns();

  std::array<std::vector<core::IndexedPathDrain>, kHops> streams;
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    Scoped span(tracer_, Layer::kDrain);
    core::VectorSink sink;
    collectors_[hop]->drain(sink, /*flush_open=*/false);
    streams[hop] = std::move(sink).take();
  }
  if (spec_.liar) {
    Scoped span(tracer_, Layer::kTransform);
    hide_loss(streams[kXEgress], streams[kXIngress]);
  }
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    Scoped span(tracer_, Layer::kExport);
    core::emit_stream(*exporters_[hop], std::move(streams[hop]));
    exporters_[hop]->end_round();
    exporters_[hop]->flush();
  }
  // Upstream HOPs first: the order the verifier retires state fastest in.
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    Scoped span(tracer_, Layer::kPoll);
    clients_[hop]->poll();
  }
  {
    Scoped span(tracer_, Layer::kAnalyze);
    for (std::size_t p = 0; p < paths_; ++p) {
      analyses_[p] = verifiers_[p].analyze();
    }
  }
  t.end_ns = now_ns();
  tracer_.close(root);
  return t;
}

std::uint64_t Deployment::unshipped(std::size_t hop, std::size_t path) const {
  const auto [shard, local] = location_[path];
  const core::PathStateSoA& s =
      collectors_[hop]->shard_cache(shard)->state();
  std::uint64_t n = s.slots[local].hot.agg_count;
  for (const core::PendingAggregate& a : s.pending[local]) {
    n += a.data.packet_count;
  }
  for (const core::AggregateData& a : s.closed[local]) n += a.packet_count;
  return n;
}

std::string Deployment::check_round(std::uint64_t round) {
  const std::string at = "round " + std::to_string(round) + ": ";
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    // The lying egress publishes its claim, not its observations.
    const bool conserved = !(spec_.liar && hop == kXEgress);
    for (std::size_t p = 0; p < paths_; ++p) {
      if (ledger_.delivered[hop][p] != round + 1) {
        return at + "hop " + std::to_string(hop) + " path " +
               std::to_string(p) + " has " +
               std::to_string(ledger_.delivered[hop][p]) + " rounds verified";
      }
      if (conserved &&
          ledger_.wire[hop][p] + unshipped(hop, p) != ledger_.observed[hop][p]) {
        return at + "receipt conservation broken at hop " +
               std::to_string(hop) + " path " + std::to_string(p);
      }
    }
  }
  if (ledger_.gaps != 0) return at + "round gaps reported";
  if (ledger_.ingest_rejects != 0 || store_->rejected_count() != 0) {
    return at + "store rejected envelopes";
  }
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    const dissem::FetchClient::Stats& s = clients_[hop]->stats();
    if (s.ack_rejections != 0 || s.fatal_errors != 0 || s.gaps_reported != 0) {
      return at + "fetch client errors at hop " + std::to_string(hop);
    }
    const net::HopId id = layout_.hops[hop];
    if (store_->consumer_lag(kConsumer, id) != 0 ||
        store_->gc_floor(id) != store_->last_sequence(id)) {
      return at + "store retains acked envelopes of hop " +
             std::to_string(hop);
    }
  }
  for (std::size_t p = 0; p < paths_; ++p) {
    const core::PathAnalysis& a = analyses_[p];
    const core::LinkFinding* sx = link_from(a, "S");
    const core::LinkFinding* xd = link_from(a, "X");
    if (!a.complete() || sx == nullptr || xd == nullptr) {
      return at + "incomplete verdict on path " + std::to_string(p);
    }
    if (sx->implicates_pair()) {
      return at + "honest link S->X implicated on path " + std::to_string(p);
    }
    if (xd->implicates_pair()) {
      if (!spec_.liar || ledger_.dropped[p] == 0) {
        return at + "X->D implicated on loss-free path " + std::to_string(p);
      }
      if (first_finding_round_ < 0) {
        first_finding_round_ = static_cast<std::int64_t>(round);
      }
    }
  }
  return {};
}

std::uint64_t Deployment::envelope_bytes() const {
  std::uint64_t n = 0;
  for (const auto& e : exporters_) n += e->stats().envelope_bytes;
  return n;
}

std::uint64_t Deployment::envelopes_sealed() const {
  std::uint64_t n = 0;
  for (const auto& e : exporters_) n += e->stats().chunks;
  return n;
}

std::uint64_t Deployment::sections_written() const {
  std::uint64_t n = 0;
  for (const auto& e : exporters_) {
    n += e->stats().sample_batches + e->stats().aggregate_batches;
  }
  return n;
}

collector::DataPlaneOps Deployment::data_plane_ops() const {
  collector::DataPlaneOps ops;
  for (const auto& c : collectors_) ops += c->ops();
  return ops;
}

std::size_t Deployment::arena_bytes() const {
  std::size_t n = 0;
  for (const auto& c : collectors_) n += c->arena_bytes();
  return n;
}

std::size_t Deployment::store_payload_bytes() const {
  return store_->stored_payload_bytes();
}

std::size_t Deployment::segments_unlinked() const {
  return store_->storage_stats().segments_unlinked;
}

core::IncrementalPathVerifier::ResidentStats Deployment::resident_stats()
    const {
  core::IncrementalPathVerifier::ResidentStats sum;
  for (const core::IncrementalPathVerifier& v : verifiers_) {
    const auto s = v.resident_stats();
    sum.pending_ingress_samples += s.pending_ingress_samples;
    sum.pending_egress_samples += s.pending_egress_samples;
    sum.pending_sample_rounds += s.pending_sample_rounds;
    sum.tail_aggregate_receipts += s.tail_aggregate_receipts;
    sum.retained_delays += s.retained_delays;
    sum.retained_aligned_groups += s.retained_aligned_groups;
    sum.expired_unmatched += s.expired_unmatched;
  }
  return sum;
}

}  // namespace e2e
