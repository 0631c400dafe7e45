#include "core/receipt_sink.hpp"

#include <stdexcept>
#include <utility>

namespace vpm::core {

void emit_stream(ReceiptSink& sink, std::vector<IndexedPathDrain> stream) {
  for (IndexedPathDrain& d : stream) {
    sink.on_drain(d.path, std::move(d.drain));
  }
}

DrainRoundSink::DrainRoundSink(Consumer consumer)
    : consumer_(std::move(consumer)) {
  if (!consumer_) {
    throw std::invalid_argument("DrainRoundSink: null consumer");
  }
}

}  // namespace vpm::core
