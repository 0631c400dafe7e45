// In-memory span recorder for the traced run.
//
// One span per call into a layer: (layer, start, end, parent, round).
// Spans live in a preallocated vector and are written out once, at exit,
// so recording costs two clock reads and a push.  A disabled tracer
// records nothing; the untraced rounds of a traced run and every round of
// an untraced run pay one branch per span.
#ifndef E2EBENCH_TRACER_HPP
#define E2EBENCH_TRACER_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace e2e {

enum class Layer : std::uint8_t {
  kRound,  ///< root: one per round; its self time is the unattributed rest
  kObserve,
  kStartStop,  ///< threaded ingest: spawning and joining shard workers
  kFeed,
  kWaitIdle,
  kDrain,
  kTransform,
  kExport,
  kIngest,
  kPoll,
  kAddRound,
  kAnalyze,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::uint32_t round = 0;
    Layer layer = Layer::kRound;
    std::int32_t parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  explicit Tracer(std::size_t reserve_spans) { spans_.reserve(reserve_spans); }

  /// Rounds recorded from now on carry `round`; `on` turns recording on or
  /// off for them (a span open across the switch still closes).
  void begin_round(std::uint32_t round, bool on) {
    round_ = round;
    on_ = on;
  }

  std::int32_t open(Layer layer) {
    if (!on_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{.round = round_,
                          .layer = layer,
                          .parent = stack_.empty() ? -1 : stack_.back(),
                          .start = now_ns(),
                          .end = 0});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    stack_.pop_back();
  }

  /// Per round: each layer's self time (span minus the spans it caused),
  /// in ns, summed over that round's spans of the layer.  Rounds that
  /// recorded nothing are absent.
  struct RoundSelf {
    std::uint32_t round = 0;
    std::array<std::int64_t, kLayerCount> self_ns{};
    std::array<std::uint32_t, kLayerCount> calls{};
  };
  [[nodiscard]] std::vector<RoundSelf> self_times() const;

  /// One line per span: round, layer, start, end, parent.  Returns false
  /// when the file cannot be written.
  bool write_tsv(const std::filesystem::path& file) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t round_ = 0;
  bool on_ = false;
};

/// RAII span around one layer call.
class Scoped {
 public:
  Scoped(Tracer& tracer, Layer layer)
      : tracer_(tracer), index_(tracer.open(layer)) {}
  ~Scoped() { tracer_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACER_HPP
