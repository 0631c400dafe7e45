// Unit + property tests for the statistics substrate: quantile estimation
// with binomial confidence intervals (the Sommers-style estimator VPM uses
// for delay quantiles) and the Figure-2 accuracy scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "stats/binomial.hpp"
#include "stats/delay_accuracy.hpp"
#include "stats/quantile.hpp"
#include "stats/summary.hpp"

namespace vpm::stats {
namespace {

TEST(ZValue, KnownCriticalValues) {
  EXPECT_NEAR(z_value(0.95), 1.9600, 1e-3);
  EXPECT_NEAR(z_value(0.99), 2.5758, 1e-3);
  EXPECT_NEAR(z_value(0.90), 1.6449, 1e-3);
}

TEST(ZValue, RejectsDegenerateConfidence) {
  EXPECT_THROW((void)z_value(0.0), std::invalid_argument);
  EXPECT_THROW((void)z_value(1.0), std::invalid_argument);
}

TEST(QuantileIndexInterval, ClampsToValidIndices) {
  const auto iv = quantile_index_interval(10, 0.99, 0.95);
  EXPECT_LT(iv.hi, 10u);
  EXPECT_LE(iv.lo, iv.hi);
  const auto iv0 = quantile_index_interval(0, 0.5, 0.95);
  EXPECT_EQ(iv0.lo, 0u);
  EXPECT_EQ(iv0.hi, 0u);
}

TEST(QuantileIndexInterval, WidensWithConfidence) {
  const auto narrow = quantile_index_interval(10'000, 0.9, 0.80);
  const auto wide = quantile_index_interval(10'000, 0.9, 0.99);
  EXPECT_GE(narrow.lo, wide.lo);
  EXPECT_LE(narrow.hi, wide.hi);
}

TEST(WilsonInterval, CoversTrueProportion) {
  std::mt19937_64 rng(5);
  const double p = 0.07;
  int covered = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    std::size_t successes = 0;
    constexpr std::size_t kN = 2000;
    for (std::size_t i = 0; i < kN; ++i) {
      if (std::uniform_real_distribution<double>(0, 1)(rng) < p) ++successes;
    }
    const auto iv = wilson_interval(successes, kN, 0.95);
    if (iv.lower <= p && p <= iv.upper) ++covered;
  }
  // 95% nominal coverage; allow slack for randomness.
  EXPECT_GT(covered, kTrials * 0.90);
}

TEST(WilsonInterval, EdgeCases) {
  const auto zero = wilson_interval(0, 100, 0.95);
  EXPECT_EQ(zero.estimate, 0.0);
  EXPECT_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.0);
  const auto all = wilson_interval(100, 100, 0.95);
  EXPECT_EQ(all.estimate, 1.0);
  EXPECT_EQ(all.upper, 1.0);
  EXPECT_THROW((void)wilson_interval(5, 4, 0.95), std::invalid_argument);
}

TEST(SortedQuantile, NearestRankSemantics) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(sorted_quantile(v, 0.0), 1.0);
  EXPECT_EQ(sorted_quantile(v, 0.1), 1.0);
  EXPECT_EQ(sorted_quantile(v, 0.5), 5.0);
  EXPECT_EQ(sorted_quantile(v, 0.91), 10.0);
  EXPECT_EQ(sorted_quantile(v, 1.0), 10.0);
}

TEST(SortedQuantile, Validation) {
  const std::vector<double> empty;
  EXPECT_THROW((void)sorted_quantile(empty, 0.5), std::logic_error);
  const std::vector<double> one = {3.0};
  EXPECT_THROW((void)sorted_quantile(one, 1.5), std::invalid_argument);
  EXPECT_EQ(sorted_quantile(one, 0.99), 3.0);
}

// The helper that reads an estimate off a kept-sorted sample must give
// exactly what QuantileEstimator gives for the same values: ties, a single
// sample, and every quantile of the delay grid.
TEST(SortedEstimate, EqualsQuantileEstimatorEstimateMany) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<int> tied(0, 9);  // many repeated values
  std::normal_distribution<double> spread(5.0, 2.0);
  for (const std::size_t n : {1, 2, 3, 7, 10, 64, 501}) {
    for (const bool ties : {true, false}) {
      QuantileEstimator est;
      std::vector<double> values;
      for (std::size_t i = 0; i < n; ++i) {
        values.push_back(ties ? 0.5 * tied(rng) : spread(rng));
        est.add(values.back());
      }
      std::sort(values.begin(), values.end());
      for (const double confidence : {0.8, 0.95}) {
        std::vector<QuantileEstimate> from_sorted;
        for (const double q : kDelayQuantiles) {
          from_sorted.push_back(sorted_estimate(values, q, confidence));
        }
        EXPECT_EQ(from_sorted, est.estimate_many(kDelayQuantiles, confidence))
            << "n=" << n << " ties=" << ties;
      }
    }
  }
  const std::vector<double> one = {3.5};
  for (const double q : kDelayQuantiles) {
    const QuantileEstimate e = sorted_estimate(one, q);
    EXPECT_EQ(e.value, 3.5);
    EXPECT_EQ(e.lower, 3.5);
    EXPECT_EQ(e.upper, 3.5);
    EXPECT_EQ(e.samples, 1u);
  }
  const std::vector<double> empty;
  EXPECT_THROW((void)sorted_estimate(empty, 0.5), std::logic_error);
  EXPECT_THROW((void)sorted_estimate(one, 1.5), std::invalid_argument);
}

TEST(QuantileEstimator, EstimateMatchesTruthOnLargeSamples) {
  std::mt19937_64 rng(17);
  std::lognormal_distribution<double> dist(1.0, 0.5);
  QuantileEstimator est;
  for (int i = 0; i < 100'000; ++i) est.add(dist(rng));
  const double true_median = std::exp(1.0);
  const auto q = est.estimate(0.5, 0.95);
  EXPECT_NEAR(q.value, true_median, 0.05);
  EXPECT_LE(q.lower, q.value);
  EXPECT_GE(q.upper, q.value);
  EXPECT_LT(q.accuracy(), 0.05);
}

TEST(QuantileEstimator, IntervalShrinksWithSampleSize) {
  std::mt19937_64 rng(23);
  std::normal_distribution<double> dist(10.0, 2.0);
  QuantileEstimator small;
  QuantileEstimator large;
  for (int i = 0; i < 500; ++i) small.add(dist(rng));
  for (int i = 0; i < 50'000; ++i) large.add(dist(rng));
  EXPECT_GT(small.estimate(0.9).accuracy(), large.estimate(0.9).accuracy());
}

TEST(QuantileEstimator, ConfidenceIntervalCoverage) {
  // Property: the 95% CI on the 0.9-quantile should cover the true value
  // in >= ~90% of repeated experiments.
  std::mt19937_64 rng(29);
  std::exponential_distribution<double> dist(0.25);
  const double truth = -std::log(0.1) / 0.25;
  int covered = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    QuantileEstimator est;
    for (int i = 0; i < 1000; ++i) est.add(dist(rng));
    const auto q = est.estimate(0.9, 0.95);
    if (q.lower <= truth && truth <= q.upper) ++covered;
  }
  EXPECT_GT(covered, kTrials * 0.88);
}

TEST(QuantileEstimator, ThrowsWithNoSamples) {
  QuantileEstimator est;
  EXPECT_THROW((void)est.estimate(0.5), std::logic_error);
}

TEST(QuantileEstimator, AddAfterEstimateReflectsNewData) {
  QuantileEstimator est;
  for (int i = 1; i <= 10; ++i) est.add(i);
  EXPECT_EQ(est.estimate(1.0).value, 10.0);
  est.add(100.0);
  EXPECT_EQ(est.estimate(1.0).value, 100.0);
}

TEST(DelayAccuracy, PerfectSamplesGiveTinyError) {
  std::mt19937_64 rng(31);
  std::gamma_distribution<double> dist(2.0, 3.0);
  std::vector<double> truth;
  for (int i = 0; i < 50'000; ++i) truth.push_back(dist(rng));
  const auto report = score_delay_estimate(truth, truth);
  EXPECT_EQ(report.worst_abs_error, 0.0);
  EXPECT_EQ(report.samples_used, truth.size());
  EXPECT_EQ(report.per_quantile.size(), kDelayQuantiles.size());
}

TEST(DelayAccuracy, ErrorGrowsAsSamplesShrink) {
  std::mt19937_64 rng(37);
  std::gamma_distribution<double> dist(2.0, 3.0);
  std::vector<double> truth;
  for (int i = 0; i < 200'000; ++i) truth.push_back(dist(rng));

  auto subsample = [&](double rate) {
    std::vector<double> out;
    std::bernoulli_distribution keep(rate);
    for (const double d : truth) {
      if (keep(rng)) out.push_back(d);
    }
    return out;
  };
  // Average over a few trials to keep the comparison stable.
  double err_big = 0.0;
  double err_small = 0.0;
  for (int t = 0; t < 5; ++t) {
    err_big += score_delay_estimate(truth, subsample(0.05)).worst_abs_error;
    err_small += score_delay_estimate(truth, subsample(0.0005)).worst_abs_error;
  }
  EXPECT_LT(err_big, err_small);
}

TEST(DelayAccuracy, RejectsEmptyInputs) {
  const std::vector<double> some = {1.0, 2.0};
  const std::vector<double> none;
  EXPECT_THROW(score_delay_estimate(none, some), std::invalid_argument);
  EXPECT_THROW(score_delay_estimate(some, none), std::invalid_argument);
}

TEST(OnlineSummary, MatchesDirectComputation) {
  OnlineSummary s;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), 4.5, 1e-12);
  EXPECT_NEAR(s.variance(), 6.0, 1e-12);  // sample variance of 1..8
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.sum(), 36.0, 1e-9);
}

TEST(OnlineSummary, EmptyIsSafe) {
  const OnlineSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

}  // namespace
}  // namespace vpm::stats
