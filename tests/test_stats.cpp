// Statistics used by the benchmark harness (geomean speedups etc.).
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace crcw::util {
namespace {

TEST(Accumulator, EmptyState) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 5.0);
  EXPECT_EQ(acc.max(), 5.0);
}

TEST(Accumulator, MeanAndVariance) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(Accumulator, HandlesNegatives) {
  Accumulator acc;
  acc.add(-3.0);
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), -3.0);
}

TEST(Summarize, Empty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Summarize, OrderStatistics) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(QuantileSorted, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.25), 2.5);
}

TEST(QuantileSorted, Rejections) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted(xs, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted(xs, 1.1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 1.0);
}

TEST(GeometricMean, MatchesHandComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(geometric_mean(xs), 2.0, 1e-12);
}

TEST(GeometricMean, PaperStyleSpeedups) {
  // Per-point speedups like §7.2's "geometric mean 1.98x".
  const std::vector<double> speedups = {1.5, 2.0, 2.5, 1.98};
  const double g = geometric_mean(speedups);
  EXPECT_GT(g, 1.5);
  EXPECT_LT(g, 2.5);
}

TEST(GeometricMean, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(GeometricMean, RejectsNonPositive) {
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_THROW((void)geometric_mean(bad), std::invalid_argument);
  const std::vector<double> neg = {1.0, -2.0};
  EXPECT_THROW((void)geometric_mean(neg), std::invalid_argument);
}

TEST(Ratios, ElementWise) {
  const std::vector<double> a = {10.0, 9.0};
  const std::vector<double> b = {2.0, 3.0};
  const auto r = ratios(a, b);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 5.0);
  EXPECT_DOUBLE_EQ(r[1], 3.0);
}

TEST(Ratios, Rejections) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(ratios(a, b), std::invalid_argument);
  const std::vector<double> z = {1.0, 0.0};
  EXPECT_THROW(ratios(a, z), std::invalid_argument);
}

}  // namespace
}  // namespace crcw::util
