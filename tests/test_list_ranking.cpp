// Pointer-jumping list ranking (the CREW counterpoint, §8 future work).
#include "algorithms/list_ranking.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace crcw::algo {
namespace {

TEST(ListRankSeq, SmallList) {
  // List: 2 → 0 → 1(tail).
  const std::vector<std::uint64_t> next = {1, 1, 0};
  const auto rank = list_rank_seq(next);
  EXPECT_EQ(rank, (std::vector<std::uint64_t>{1, 0, 2}));
}

TEST(ListRankSeq, SingletonList) {
  const std::vector<std::uint64_t> next = {0};
  EXPECT_EQ(list_rank_seq(next), (std::vector<std::uint64_t>{0}));
}

TEST(ListRankSeq, RejectsCycle) {
  const std::vector<std::uint64_t> next = {1, 0};
  EXPECT_THROW((void)list_rank_seq(next), std::invalid_argument);
}

TEST(ListRankSeq, RejectsOutOfRange) {
  const std::vector<std::uint64_t> next = {9};
  EXPECT_THROW((void)list_rank_seq(next), std::invalid_argument);
}

TEST(ListRank, MatchesSeqOnIdentityChain) {
  // 0 → 1 → 2 → … → 9(tail).
  std::vector<std::uint64_t> next(10);
  for (std::uint64_t i = 0; i < 9; ++i) next[i] = i + 1;
  next[9] = 9;
  const auto rank = list_rank(next);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(rank[i], 9 - i);
}

TEST(ListRank, EmptyList) {
  EXPECT_TRUE(list_rank({}).empty());
}

TEST(ListRank, RejectsOutOfRange) {
  const std::vector<std::uint64_t> next = {3};
  EXPECT_THROW((void)list_rank(next), std::invalid_argument);
}

class ListRankRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListRankRandomTest, MatchesSequentialOnRandomLists) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RandomList list = make_random_list(n, seed);
    const auto expected = list_rank_seq(list.next);
    for (const int threads : {1, 4}) {
      const auto got = list_rank(list.next, {.threads = threads});
      ASSERT_EQ(got, expected) << "n=" << n << " seed=" << seed << " t=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListRankRandomTest,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                           std::uint64_t{3}, std::uint64_t{17},
                                           std::uint64_t{256}, std::uint64_t{1000}),
                         [](const ::testing::TestParamInfo<std::uint64_t>& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(MakeRandomList, StructureIsAProperList) {
  const RandomList list = make_random_list(100, 5);
  EXPECT_EQ(list.next[list.tail], list.tail);
  // head has rank n-1, tail has rank 0.
  const auto rank = list_rank_seq(list.next);
  EXPECT_EQ(rank[list.head], 99u);
  EXPECT_EQ(rank[list.tail], 0u);
}

TEST(MakeRandomList, DeterministicPerSeed) {
  EXPECT_EQ(make_random_list(50, 3).next, make_random_list(50, 3).next);
}

TEST(MakeRandomList, EmptyThrows) {
  EXPECT_THROW((void)make_random_list(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace crcw::algo
