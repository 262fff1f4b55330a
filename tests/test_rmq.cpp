// Sparse-table range-minimum queries (substrate of the biconnectivity
// kernel's subtree low/high aggregation).
#include "util/rmq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace crcw::util {
namespace {

TEST(Rmq, EmptyTable) {
  SparseTableRmq<int> rmq;
  EXPECT_EQ(rmq.size(), 0u);
}

TEST(Rmq, SingleElement) {
  const std::vector<int> xs = {42};
  const SparseTableRmq<int> rmq(xs);
  EXPECT_EQ(rmq.best(0, 0), 42);
  EXPECT_EQ(rmq.argbest(0, 0), 0u);
}

TEST(Rmq, SmallKnownAnswers) {
  const std::vector<int> xs = {5, 2, 8, 1, 9, 3};
  const SparseTableRmq<int> rmq(xs);
  EXPECT_EQ(rmq.best(0, 5), 1);
  EXPECT_EQ(rmq.argbest(0, 5), 3u);
  EXPECT_EQ(rmq.best(0, 2), 2);
  EXPECT_EQ(rmq.best(4, 5), 3);
  EXPECT_EQ(rmq.best(2, 2), 8);
  EXPECT_EQ(rmq.best(1, 3), 1);
}

TEST(Rmq, MaxViaGreaterComparator) {
  const std::vector<int> xs = {5, 2, 8, 1, 9, 3};
  const SparseTableRmq<int, std::greater<int>> rmq(xs);
  EXPECT_EQ(rmq.best(0, 5), 9);
  EXPECT_EQ(rmq.best(0, 2), 8);
  EXPECT_EQ(rmq.best(5, 5), 3);
}

TEST(Rmq, BadRangesThrow) {
  const std::vector<int> xs = {1, 2, 3};
  const SparseTableRmq<int> rmq(xs);
  EXPECT_THROW((void)rmq.argbest(2, 1), std::out_of_range);
  EXPECT_THROW((void)rmq.argbest(0, 3), std::out_of_range);
}

class RmqRandomTest : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RmqRandomTest, EveryRangeMatchesLinearScan) {
  const auto& [n, threads] = GetParam();
  util::Xoshiro256 rng(n * 31 + 7);
  std::vector<std::uint64_t> xs(n);
  for (auto& x : xs) x = rng.bounded(1000);
  const SparseTableRmq<std::uint64_t> rmq(xs, threads);

  // All ranges for small n, random sample for larger.
  const std::size_t samples = n <= 64 ? 0 : 500;
  if (samples == 0) {
    for (std::size_t lo = 0; lo < n; ++lo) {
      for (std::size_t hi = lo; hi < n; ++hi) {
        const auto expected = *std::min_element(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                                                xs.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        ASSERT_EQ(rmq.best(lo, hi), expected) << lo << ".." << hi;
      }
    }
  } else {
    for (std::size_t s = 0; s < samples; ++s) {
      std::size_t lo = rng.bounded(n);
      std::size_t hi = rng.bounded(n);
      if (lo > hi) std::swap(lo, hi);
      const auto expected = *std::min_element(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                                              xs.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
      ASSERT_EQ(rmq.best(lo, hi), expected) << lo << ".." << hi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RmqRandomTest,
                         ::testing::Values(std::make_tuple(std::size_t{2}, 1),
                                           std::make_tuple(std::size_t{3}, 1),
                                           std::make_tuple(std::size_t{17}, 4),
                                           std::make_tuple(std::size_t{64}, 4),
                                           std::make_tuple(std::size_t{1000}, 4),
                                           std::make_tuple(std::size_t{100000}, 8)),
                         [](const auto& pinfo) {
                           std::string name = "n";
                           name += std::to_string(std::get<0>(pinfo.param));
                           name += "_t";
                           name += std::to_string(std::get<1>(pinfo.param));
                           return name;
                         });

TEST(Rmq, ArgbestReturnsAWitness) {
  util::Xoshiro256 rng(3);
  std::vector<std::uint64_t> xs(300);
  for (auto& x : xs) x = rng.bounded(50);  // many ties
  const SparseTableRmq<std::uint64_t> rmq(xs);
  for (int s = 0; s < 100; ++s) {
    std::size_t lo = rng.bounded(xs.size());
    std::size_t hi = rng.bounded(xs.size());
    if (lo > hi) std::swap(lo, hi);
    const std::size_t arg = rmq.argbest(lo, hi);
    ASSERT_GE(arg, lo);
    ASSERT_LE(arg, hi);
    ASSERT_EQ(xs[arg], rmq.best(lo, hi));
  }
}

}  // namespace
}  // namespace crcw::util
