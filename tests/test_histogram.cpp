// Parallel histograms (combining adds vs privatization).
#include "algorithms/histogram.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace crcw::algo {
namespace {

std::vector<std::uint64_t> serial_histogram(std::span<const std::uint64_t> keys,
                                            std::uint64_t buckets) {
  std::vector<std::uint64_t> counts(buckets, 0);
  for (const auto k : keys) ++counts[k];
  return counts;
}

TEST(Histogram, EmptyInput) {
  EXPECT_EQ(histogram_atomic({}, 4), (std::vector<std::uint64_t>(4, 0)));
  EXPECT_EQ(histogram_privatized({}, 4), (std::vector<std::uint64_t>(4, 0)));
}

TEST(Histogram, KnownSmall) {
  const std::vector<std::uint64_t> keys = {0, 1, 1, 3, 3, 3};
  const std::vector<std::uint64_t> expected = {1, 2, 0, 3};
  EXPECT_EQ(histogram_atomic(keys, 4), expected);
  EXPECT_EQ(histogram_privatized(keys, 4), expected);
}

TEST(Histogram, Rejections) {
  const std::vector<std::uint64_t> keys = {5};
  EXPECT_THROW((void)histogram_atomic(keys, 4), std::invalid_argument);
  EXPECT_THROW((void)histogram_privatized(keys, 4), std::invalid_argument);
  EXPECT_THROW((void)histogram_atomic(keys, 0), std::invalid_argument);
}

class HistogramRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t, int>> {};

TEST_P(HistogramRandomTest, BothStrategiesMatchSerial) {
  const auto& [n, buckets, threads] = GetParam();
  util::Xoshiro256 rng(n + buckets);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.bounded(buckets);
  const auto expected = serial_histogram(keys, buckets);
  EXPECT_EQ(histogram_atomic(keys, buckets, {.threads = threads}), expected);
  EXPECT_EQ(histogram_privatized(keys, buckets, {.threads = threads}), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HistogramRandomTest,
    ::testing::Values(std::make_tuple(std::uint64_t{100}, std::uint64_t{1}, 4),  // one hot bucket
                      std::make_tuple(std::uint64_t{10000}, std::uint64_t{4}, 8),
                      std::make_tuple(std::uint64_t{10000}, std::uint64_t{1000}, 4),
                      std::make_tuple(std::uint64_t{50000}, std::uint64_t{65536}, 8)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_b";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_t";
      name += std::to_string(std::get<2>(pinfo.param));
      return name;
    });

TEST(Histogram, SingleHotBucketUnderContention) {
  // The §6 worst case: everyone increments one cell. Counts must be exact.
  const std::vector<std::uint64_t> keys(100000, 0);
  for (const int t : {2, 8}) {
    EXPECT_EQ(histogram_atomic(keys, 1, {.threads = t})[0], 100000u) << t;
    EXPECT_EQ(histogram_privatized(keys, 1, {.threads = t})[0], 100000u) << t;
  }
}

}  // namespace
}  // namespace crcw::algo
