// Delay-quantile estimation from samples, after Sommers et al. [20].
//
// Section 2.2 (Computability): VPM must support statements like "domain X
// introduced delay below 5 msec to 90% of the traffic with probability
// pi".  Given the delays of the commonly-sampled packets, we estimate the
// q-quantile as an order statistic and attach a binomial confidence
// interval; the interval half-width is the "accuracy" that Figure 2 plots.
#ifndef VPM_STATS_QUANTILE_HPP
#define VPM_STATS_QUANTILE_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace vpm::stats {

/// A quantile estimate with its confidence interval.
struct QuantileEstimate {
  double quantile = 0.0;    ///< which quantile (e.g. 0.9)
  double value = 0.0;       ///< estimated quantile value
  double lower = 0.0;       ///< confidence interval lower bound
  double upper = 0.0;       ///< confidence interval upper bound
  std::size_t samples = 0;  ///< number of samples the estimate used

  /// Half-width of the confidence interval: the estimation "accuracy".
  [[nodiscard]] double accuracy() const { return (upper - lower) / 2.0; }

  friend bool operator==(const QuantileEstimate&,
                         const QuantileEstimate&) = default;
};

/// Accumulates sample values (delays) and answers quantile queries.
class QuantileEstimator {
 public:
  void add(double value) { values_.push_back(value); }
  void add_all(std::span<const double> values) {
    values_.insert(values_.end(), values.begin(), values.end());
  }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Estimate the q-quantile at the given confidence level.  Throws
  /// std::logic_error if no samples were added.
  [[nodiscard]] QuantileEstimate estimate(double q,
                                          double confidence = 0.95) const;

  /// Estimate several quantiles at once (single sort).
  [[nodiscard]] std::vector<QuantileEstimate> estimate_many(
      std::span<const double> quantiles, double confidence = 0.95) const;

 private:
  // Sorted lazily on query; mutable cache keeps add() O(1).
  void ensure_sorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Exact empirical quantile of a *sorted* array (nearest-rank definition).
/// Throws std::logic_error on empty input and std::invalid_argument on q
/// outside [0,1].  The order is not checked: sorting is the caller's job.
[[nodiscard]] double sorted_quantile(std::span<const double> sorted, double q);

/// The q-quantile estimate of a *sorted* sample: the nearest-rank value
/// and its binomial confidence interval.  QuantileEstimator answers
/// through this, and a caller that keeps its sample sorted reads it with
/// no copy.  Throws like sorted_quantile (and std::invalid_argument on a
/// confidence outside (0,1)).
[[nodiscard]] QuantileEstimate sorted_estimate(std::span<const double> sorted,
                                               double q,
                                               double confidence = 0.95);

/// Exact empirical quantile of an unsorted array (copies and sorts).
[[nodiscard]] double quantile_of(std::span<const double> values, double q);

}  // namespace vpm::stats

#endif  // VPM_STATS_QUANTILE_HPP
