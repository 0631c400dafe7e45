// A Click-style software-router pipeline (the paper's proof-of-concept ran
// the VPM modules as Click elements on a Nehalem server, §7.1).
//
// Substitution note (DESIGN.md §2): we cannot reproduce the 8-core server
// with real NICs; what the paper measured is that the VPM data-plane adds
// no throughput penalty because the box is I/O-bound.  We measure the
// complementary number: the CPU cost per packet of the forwarding path
// with and without the VPM element, which bounds the rate one core
// sustains.
#ifndef VPM_COLLECTOR_PIPELINE_HPP
#define VPM_COLLECTOR_PIPELINE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collector/monitoring_cache.hpp"
#include "collector/sharded_collector.hpp"
#include "net/lpm.hpp"
#include "net/packet.hpp"
#include "net/prefix.hpp"
#include "net/time.hpp"

namespace vpm::collector {

/// A forwarding element; returns false to drop the packet.
class Element {
 public:
  virtual ~Element() = default;
  virtual bool process(const net::Packet& p, net::Timestamp when) = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Control-plane report hook: stream whatever receipts this element has
  /// accumulated into `sink` (the processor module's periodic egress).
  /// Default: no receipts.  Path indices restart per element, and the
  /// wire exporter cares about indices: it closes a round at the first
  /// index that does not ascend, so one exporter fed a multi-element
  /// Pipeline::report ships each element that restarts the index space as
  /// a round of its own, against one path table per element.  Report one
  /// element at a time (with end_round() between) to keep them apart
  /// whatever indices they drain.
  virtual void report(core::ReceiptSink& sink, bool flush_open = false) {
    (void)sink;
    (void)flush_open;
  }
};

/// Header sanity checks (Click's CheckIPHeader analogue).
class CheckHeaderElement final : public Element {
 public:
  bool process(const net::Packet& p, net::Timestamp when) override;
  [[nodiscard]] std::string name() const override { return "CheckHeader"; }
  [[nodiscard]] std::uint64_t bad_packets() const noexcept { return bad_; }

 private:
  std::uint64_t bad_ = 0;
};

/// Longest-prefix-match route lookup over a static table (RadixIPLookup
/// analogue, backed by the net::LpmTable binary trie).
class RouteLookupElement final : public Element {
 public:
  struct Route {
    net::Prefix prefix;
    std::uint32_t next_hop_index = 0;
  };
  /// Throws std::invalid_argument on an empty table.
  explicit RouteLookupElement(std::vector<Route> routes);

  bool process(const net::Packet& p, net::Timestamp when) override;
  [[nodiscard]] std::string name() const override { return "RouteLookup"; }
  [[nodiscard]] std::uint64_t no_route_packets() const noexcept {
    return no_route_;
  }
  /// Last matched next hop (sink for the lookup result).
  [[nodiscard]] std::uint32_t last_next_hop() const noexcept {
    return last_next_hop_;
  }

  /// A default table with `n` random /16-ish routes plus a default route.
  [[nodiscard]] static std::vector<Route> synthetic_table(std::size_t n,
                                                          std::uint64_t seed);

 private:
  net::LpmTable table_;
  std::uint64_t no_route_ = 0;
  std::uint32_t last_next_hop_ = 0;
};

/// The VPM collector as a pipeline element.
class VpmElement final : public Element {
 public:
  VpmElement(MonitoringCache::Config cfg,
             std::span<const net::PrefixPair> paths)
      : cache_(cfg, paths) {}

  bool process(const net::Packet& p, net::Timestamp when) override {
    cache_.observe(p, when);
    return true;
  }
  [[nodiscard]] std::string name() const override { return "VpmCollector"; }
  void report(core::ReceiptSink& sink, bool flush_open = false) override {
    cache_.drain_all(sink, flush_open);
  }
  /// Batch callers go through cache().observe_batch() directly — that is
  /// a cache-level entry and does not traverse the other elements.
  [[nodiscard]] MonitoringCache& cache() noexcept { return cache_; }

 private:
  MonitoringCache cache_;
};

/// The sharded VPM collector as a pipeline element (synchronous mode: the
/// forwarding thread routes each packet to its shard's cache inline, so a
/// one-box pipeline still works; a multi-core deployment drives the
/// collector's threaded ingest via collector().start()/feed() instead of
/// pushing packets through Element::process).
class ShardedVpmElement final : public Element {
 public:
  ShardedVpmElement(ShardedCollector::Config cfg,
                    std::span<const net::PrefixPair> paths)
      : collector_(cfg, paths) {}

  bool process(const net::Packet& p, net::Timestamp when) override {
    collector_.observe(p, when);
    return true;
  }
  [[nodiscard]] std::string name() const override {
    return "ShardedVpmCollector";
  }
  void report(core::ReceiptSink& sink, bool flush_open = false) override {
    collector_.drain(sink, flush_open);
  }
  [[nodiscard]] ShardedCollector& collector() noexcept { return collector_; }

 private:
  ShardedCollector collector_;
};

/// A chain of elements plus counters.
class Pipeline {
 public:
  void append(std::unique_ptr<Element> element) {
    elements_.push_back(std::move(element));
  }

  /// Push one packet through; returns true if it survived all elements.
  bool process(const net::Packet& p, net::Timestamp when) {
    for (const auto& e : elements_) {
      if (!e->process(p, when)) {
        ++dropped_;
        return false;
      }
    }
    ++forwarded_;
    return true;
  }

  /// Stream every element's accumulated receipts into `sink`, in pipeline
  /// order (the box's whole control-plane egress in one call; see
  /// Element::report on path indices).
  void report(core::ReceiptSink& sink, bool flush_open = false) {
    for (const auto& e : elements_) e->report(sink, flush_open);
  }

  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t element_count() const noexcept {
    return elements_.size();
  }

 private:
  std::vector<std::unique_ptr<Element>> elements_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace vpm::collector

#endif  // VPM_COLLECTOR_PIPELINE_HPP
