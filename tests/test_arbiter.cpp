// WriteArbiter — per-target tag arrays with round management.
#include "core/arbiter.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <vector>

namespace crcw {
namespace {

TEST(WriteArbiter, SizeAndInitialRound) {
  WriteArbiter<CasLtPolicy> arb(10);
  EXPECT_EQ(arb.size(), 10u);
  EXPECT_EQ(arb.round(), kInitialRound);
}

TEST(WriteArbiter, NextRoundAdvances) {
  WriteArbiter<CasLtPolicy> arb(4);
  EXPECT_EQ(arb.next_round().round(), 1u);
  EXPECT_EQ(arb.next_round().round(), 2u);
  EXPECT_EQ(arb.round(), 2u);
}

TEST(WriteArbiter, OneWinnerPerTargetPerRound) {
  WriteArbiter<CasLtPolicy> arb(3);
  {
    auto scope = arb.next_round();
    EXPECT_TRUE(scope.acquire(0));
    EXPECT_FALSE(scope.acquire(0));
    EXPECT_TRUE(scope.acquire(1));  // distinct targets are independent
    EXPECT_TRUE(scope.acquire(2));
  }
  auto scope = arb.next_round();
  EXPECT_TRUE(scope.acquire(0));  // re-armed without any reset
}

TEST(WriteArbiter, GatekeeperPolicyModeResets) {
  WriteArbiter<GatekeeperPolicy> arb(5);
  {
    auto scope = arb.next_round(ResetMode::kPolicy);
    for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(scope.acquire(i));
    for (std::size_t i = 0; i < 5; ++i) ASSERT_FALSE(scope.acquire(i));
  }
  // kPolicy must perform the gatekeeper re-initialisation sweep.
  auto scope = arb.next_round(ResetMode::kPolicy);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(scope.acquire(i));
}

TEST(WriteArbiter, CallerModeDefersTheSweep) {
  WriteArbiter<GatekeeperPolicy> arb(5);
  {
    auto scope = arb.next_round();
    for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(scope.acquire(i));
  }
  {
    // Without the sweep the gatekeeper tags stay taken…
    auto scope = arb.next_round(ResetMode::kNone);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(scope.acquire(i));
  }
  // …until the caller runs it (work-shared form).
  arb.reset_tags_parallel(2);
  auto scope = arb.next_round(ResetMode::kCaller);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(scope.acquire(i));
}

TEST(WriteArbiter, ResetModeIrrelevantWithoutPolicySweep) {
  // CAS-LT never resets; all three modes are pure round increments.
  WriteArbiter<CasLtPolicy> arb(2);
  EXPECT_EQ(arb.next_round(ResetMode::kPolicy).round(), 1u);
  EXPECT_EQ(arb.next_round(ResetMode::kCaller).round(), 2u);
  EXPECT_EQ(arb.next_round(ResetMode::kNone).round(), 3u);
  arb.reset_tags_parallel();  // no-op, must compile and not perturb rounds
  EXPECT_EQ(arb.round(), 3u);
}

TEST(WriteArbiter, ExplicitRoundAcquireAt) {
  WriteArbiter<CasLtPolicy> arb(2);
  // Loop iteration used as the round id (§5: "round could be substituted
  // by the loop iteration").
  for (round_t l = 1; l <= 10; ++l) {
    EXPECT_TRUE(arb.acquire_at(0, l));
    EXPECT_FALSE(arb.acquire_at(0, l));
  }
}

TEST(WriteArbiter, RoundScopePinsTheRoundId) {
  WriteArbiter<CasLtPolicy> arb(1);
  auto scope = arb.next_round();
  const round_t r = scope.round();
  EXPECT_EQ(arb.round(), r);
  EXPECT_TRUE(scope.acquire(0));
  EXPECT_FALSE(scope.acquire(0));
}

TEST(WriteArbiter, ResetAllRestoresFreshState) {
  WriteArbiter<CasLtPolicy> arb(2);
  {
    auto scope = arb.next_round();
    ASSERT_TRUE(scope.acquire(0));
  }
  arb.reset_all();
  EXPECT_EQ(arb.round(), kInitialRound);
  auto scope = arb.next_round();
  EXPECT_TRUE(scope.acquire(0));
}

TEST(WriteArbiter, PaddedLayoutSpacing) {
  WriteArbiter<CasLtPolicy, TagLayout::kPadded> arb(4);
  auto scope = arb.next_round();
  const auto a = reinterpret_cast<std::uintptr_t>(&arb.tag(0));
  const auto b = reinterpret_cast<std::uintptr_t>(&arb.tag(1));
  EXPECT_GE(b - a, util::kCacheLineSize);
  EXPECT_TRUE(scope.acquire(0));
  EXPECT_FALSE(scope.acquire(0));
}

TEST(WriteArbiter, PackedLayoutIsDense) {
  WriteArbiter<CasLtPolicy, TagLayout::kPacked> arb(4);
  const auto a = reinterpret_cast<std::uintptr_t>(&arb.tag(0));
  const auto b = reinterpret_cast<std::uintptr_t>(&arb.tag(1));
  EXPECT_EQ(b - a, sizeof(RoundTag));
}

TEST(WriteArbiterStress, PerTargetExactlyOneWinner) {
  constexpr std::size_t kTargets = 64;
  WriteArbiter<CasLtPolicy> arb(kTargets);
  std::vector<std::atomic<int>> winners(kTargets);

  for (int round = 0; round < 20; ++round) {
    for (auto& w : winners) w.store(0);
    auto scope = arb.next_round();
#pragma omp parallel num_threads(8)
    {
      for (std::size_t t = 0; t < kTargets; ++t) {
        if (scope.acquire(t)) winners[t].fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (std::size_t t = 0; t < kTargets; ++t) ASSERT_EQ(winners[t].load(), 1) << t;
  }
}

TEST(WriteArbiterStress, CriticalPolicyUnderContention) {
  WriteArbiter<CriticalPolicy> arb(8);
  auto scope = arb.next_round();
  std::atomic<int> winners{0};
#pragma omp parallel num_threads(8)
  {
    for (std::size_t t = 0; t < arb.size(); ++t) {
      if (scope.acquire(t)) winners.fetch_add(1, std::memory_order_relaxed);
    }
  }
  EXPECT_EQ(winners.load(), 8);
}

}  // namespace
}  // namespace crcw
