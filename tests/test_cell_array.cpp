// ConWriteArray — the packaged array-of-CW-targets abstraction.
#include "core/cell_array.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <vector>

namespace crcw {
namespace {

TEST(ConWriteArray, ConstructionAndInitialValues) {
  ConWriteArray<int> arr(5, -1);
  EXPECT_EQ(arr.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(arr[i], -1);
  EXPECT_EQ(arr.round(), kInitialRound);
}

TEST(ConWriteArray, SingleWinnerPerCellPerRound) {
  ConWriteArray<int> arr(3);
  arr.begin_round();
  EXPECT_TRUE(arr.try_write(0, 10));
  EXPECT_FALSE(arr.try_write(0, 20));
  EXPECT_EQ(arr[0], 10);
  EXPECT_TRUE(arr.try_write(1, 30));

  arr.begin_round();
  EXPECT_TRUE(arr.try_write(0, 40));
  EXPECT_EQ(arr[0], 40);
}

TEST(ConWriteArray, ExplicitRoundOverload) {
  ConWriteArray<int> arr(2);
  for (round_t l = 1; l <= 5; ++l) {
    EXPECT_TRUE(arr.try_write(0, l, static_cast<int>(l)));
    EXPECT_FALSE(arr.try_write(0, l, 99));
  }
  EXPECT_EQ(arr[0], 5);
}

TEST(ConWriteArray, WrittenProbe) {
  ConWriteArray<int> arr(2);
  arr.begin_round();
  EXPECT_FALSE(arr.written(0));
  ASSERT_TRUE(arr.try_write(0, 1));
  EXPECT_TRUE(arr.written(0));
  EXPECT_FALSE(arr.written(1));
}

TEST(ConWriteArray, WrittenProbeGatekeeper) {
  ConWriteArray<int, GatekeeperPolicy> arr(1);
  arr.begin_round();
  EXPECT_FALSE(arr.written(0));
  ASSERT_TRUE(arr.try_write(0, 7));
  EXPECT_TRUE(arr.written(0));
  arr.begin_round();  // gatekeeper reset re-opens
  EXPECT_FALSE(arr.written(0));
  EXPECT_TRUE(arr.try_write(0, 8));
}

TEST(ConWriteArray, FactoryForm) {
  ConWriteArray<std::vector<int>, CriticalPolicy> arr(1);
  arr.begin_round();
  int calls = 0;
  const auto make = [&] {
    ++calls;
    return std::vector<int>{1, 2, 3};
  };
  EXPECT_TRUE(arr.try_write_with(0, make));
  EXPECT_FALSE(arr.try_write_with(0, make));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(arr[0].size(), 3u);
}

TEST(ConWriteArray, ParallelBeginRoundResetsGatekeepers) {
  ConWriteArray<int, GatekeeperPolicy> arr(64);
  arr.begin_round_parallel(4);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_TRUE(arr.try_write(i, 1));
  for (std::size_t i = 0; i < 64; ++i) ASSERT_FALSE(arr.try_write(i, 1));
  arr.begin_round_parallel(4);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_TRUE(arr.try_write(i, 2));
}

TEST(ConWriteArray, ParallelBeginRoundCasLtIsCheap) {
  ConWriteArray<int> arr(64);
  const round_t r1 = arr.begin_round_parallel();
  const round_t r2 = arr.begin_round_parallel();
  EXPECT_EQ(r2, r1 + 1);
  EXPECT_TRUE(arr.try_write(0, 1));
}

TEST(ConWriteArray, ResetTags) {
  ConWriteArray<int> arr(2);
  arr.begin_round();
  ASSERT_TRUE(arr.try_write(0, 1));
  arr.reset_tags();
  EXPECT_EQ(arr.round(), kInitialRound);
  arr.begin_round();
  EXPECT_TRUE(arr.try_write(0, 2));
}

TEST(ConWriteArray, ConfigCtorWithParallelRounds) {
  ArbiterConfig cfg;
  cfg.first_touch = util::FirstTouch::kParallel;
  ConWriteArray<int, GatekeeperPolicy> arr(64, cfg, -1);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(arr[i], -1);

  arr.begin_round_parallel(2);
  for (std::size_t i = 0; i < 64; i += 8) ASSERT_TRUE(arr.try_write(i, 1));
  for (std::size_t i = 0; i < 64; i += 8) ASSERT_FALSE(arr.try_write(i, 9));
  // The parallel sweep re-opens every cell, so after it the whole array
  // accepts writes again.
  arr.begin_round_parallel(2);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_TRUE(arr.try_write(i, 2));
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(arr[i], 2);

  // CAS-LT through the same constructor: a round is a plain increment.
  ConWriteArray<int> caslt(4, cfg, 0);
  const round_t r1 = caslt.begin_round_parallel(2);
  EXPECT_EQ(caslt.begin_round_parallel(2), r1 + 1);
  EXPECT_TRUE(caslt.try_write(0, 1));
}

TEST(ConWriteArrayStress, ManyRoundsManyCells) {
  constexpr std::size_t kCells = 32;
  ConWriteArray<std::uint64_t> arr(kCells);
  const int threads = std::max(4, omp_get_max_threads());

  for (int round = 0; round < 30; ++round) {
    arr.begin_round();
    std::vector<std::atomic<int>> winners(kCells);
#pragma omp parallel num_threads(threads)
    {
      const auto me = static_cast<std::uint64_t>(omp_get_thread_num());
      for (std::size_t c = 0; c < kCells; ++c) {
        if (arr.try_write(c, me * 1000 + c)) {
          winners[c].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    for (std::size_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(winners[c].load(), 1) << "cell " << c;
      ASSERT_EQ(arr[c] % 1000, c) << "payload must come from the winner's offer";
    }
  }
}

}  // namespace
}  // namespace crcw
