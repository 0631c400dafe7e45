#include "stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/binomial.hpp"

namespace vpm::stats {

double sorted_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    throw std::logic_error("quantile of empty sample set");
  }
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile " + std::to_string(q) +
                                " outside [0,1]");
  }
  // Nearest-rank: the smallest value with empirical CDF >= q.
  const double nd = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * nd));
  if (rank > 0) --rank;  // 1-based rank -> 0-based index
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

double quantile_of(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return sorted_quantile(copy, q);
}

void QuantileEstimator::ensure_sorted() const {
  if (sorted_valid_ && sorted_.size() == values_.size()) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

QuantileEstimate sorted_estimate(std::span<const double> sorted, double q,
                                 double confidence) {
  const IndexInterval idx =
      quantile_index_interval(sorted.size(), q, confidence);
  return QuantileEstimate{
      .quantile = q,
      .value = sorted_quantile(sorted, q),
      .lower = sorted[idx.lo],
      .upper = sorted[idx.hi],
      .samples = sorted.size(),
  };
}

QuantileEstimate QuantileEstimator::estimate(double q,
                                             double confidence) const {
  if (values_.empty()) {
    throw std::logic_error("QuantileEstimator::estimate with no samples");
  }
  ensure_sorted();
  return sorted_estimate(sorted_, q, confidence);
}

std::vector<QuantileEstimate> QuantileEstimator::estimate_many(
    std::span<const double> quantiles, double confidence) const {
  std::vector<QuantileEstimate> out;
  out.reserve(quantiles.size());
  for (const double q : quantiles) {
    out.push_back(estimate(q, confidence));
  }
  return out;
}

}  // namespace vpm::stats
