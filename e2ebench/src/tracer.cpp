#include "tracer.hpp"

#include <fstream>

namespace e2e {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRound: return "round";
    case Layer::kObserve: return "collector.observe";
    case Layer::kStartStop: return "collector.start_stop";
    case Layer::kFeed: return "collector.feed";
    case Layer::kWaitIdle: return "collector.wait_idle";
    case Layer::kDrain: return "collector.drain";
    case Layer::kTransform: return "adversary.transform";
    case Layer::kExport: return "dissem.export";
    case Layer::kIngest: return "dissem.ingest";
    case Layer::kPoll: return "dissem.poll";
    case Layer::kAddRound: return "core.add_round";
    case Layer::kAnalyze: return "core.analyze";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<Tracer::RoundSelf> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::vector<RoundSelf> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (out.empty() || out.back().round != s.round) {
      out.push_back(RoundSelf{.round = s.round});
    }
    const auto l = static_cast<std::size_t>(s.layer);
    out.back().self_ns[l] += self[i];
    ++out.back().calls[l];
  }
  return out;
}

bool Tracer::write_tsv(const std::filesystem::path& file) const {
  std::ofstream out(file);
  out << "round\tlayer\tstart_ns\tend_ns\tparent\n";
  for (const Span& s : spans_) {
    out << s.round << '\t' << layer_name(s.layer) << '\t' << s.start << '\t'
        << s.end << '\t' << s.parent << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
