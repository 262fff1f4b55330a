// Parallel counting / radix sort.
#include "algorithms/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace crcw::algo {
namespace {

TEST(CountingSort, EmptyAndSingleton) {
  EXPECT_TRUE(counting_sort_perm({}, 4).empty());
  const std::vector<std::uint64_t> one = {2};
  EXPECT_EQ(counting_sort_perm(one, 4), (std::vector<std::uint64_t>{0}));
}

TEST(CountingSort, PermutationSortsKeys) {
  const std::vector<std::uint64_t> keys = {3, 1, 2, 1, 0, 3};
  const auto perm = counting_sort_perm(keys, 4);
  ASSERT_EQ(perm.size(), keys.size());
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(keys[perm[i - 1]], keys[perm[i]]);
  }
}

TEST(CountingSort, IsStable) {
  // Equal keys must keep input order: the two 1s at positions 1 and 3.
  const std::vector<std::uint64_t> keys = {3, 1, 2, 1, 0};
  const auto perm = counting_sort_perm(keys, 4);
  EXPECT_EQ(perm, (std::vector<std::uint64_t>{4, 1, 3, 2, 0}));
}

TEST(CountingSort, Rejections) {
  const std::vector<std::uint64_t> keys = {5};
  EXPECT_THROW((void)counting_sort_perm(keys, 4), std::invalid_argument);
  EXPECT_THROW((void)counting_sort_perm(keys, 0), std::invalid_argument);
}

TEST(RadixSort, EmptySingletonAllEqual) {
  EXPECT_TRUE(radix_sort({}).empty());
  const std::vector<std::uint64_t> one = {7};
  EXPECT_EQ(radix_sort(one), one);
  const std::vector<std::uint64_t> same(100, 9);
  EXPECT_EQ(radix_sort(same), same);
  const std::vector<std::uint64_t> zeros(50, 0);
  EXPECT_EQ(radix_sort(zeros), zeros);
}

TEST(RadixSort, KnownSmall) {
  const std::vector<std::uint64_t> keys = {170, 45, 75, 90, 802, 24, 2, 66};
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(radix_sort(keys), expected);
}

class SortRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t, int>> {};

TEST_P(SortRandomTest, MatchesStdSort) {
  const auto& [n, bound, threads] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    util::Xoshiro256 rng(seed * 101 + n);
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = bound == 0 ? rng.next() : rng.bounded(bound);
    auto expected = keys;
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(radix_sort(keys, {.threads = threads}), expected)
        << "n=" << n << " bound=" << bound << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SortRandomTest,
    ::testing::Values(std::make_tuple(std::uint64_t{2}, std::uint64_t{10}, 1),
                      std::make_tuple(std::uint64_t{100}, std::uint64_t{256}, 4),
                      std::make_tuple(std::uint64_t{1000}, std::uint64_t{1 << 20}, 4),
                      std::make_tuple(std::uint64_t{10000}, std::uint64_t{0}, 4),  // full 64-bit
                      std::make_tuple(std::uint64_t{100000}, std::uint64_t{1000}, 8)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_b";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_t";
      name += std::to_string(std::get<2>(pinfo.param));
      return name;
    });

TEST(RadixSort, AlreadySortedAndReversed) {
  std::vector<std::uint64_t> asc(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) asc[i] = i * 3;
  EXPECT_EQ(radix_sort(asc), asc);

  std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
  EXPECT_EQ(radix_sort(desc), asc);
}

TEST(CountingSort, ThreadSweepStable) {
  util::Xoshiro256 rng(8);
  std::vector<std::uint64_t> keys(5000);
  for (auto& k : keys) k = rng.bounded(16);
  const auto ref = counting_sort_perm(keys, 16, {.threads = 1});
  for (const int t : {2, 4, 8}) {
    ASSERT_EQ(counting_sort_perm(keys, 16, {.threads = t}), ref) << t;
  }
}

}  // namespace
}  // namespace crcw::algo
