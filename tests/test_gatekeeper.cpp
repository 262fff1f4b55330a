// Gatekeeper — the prefix-sum baseline of paper Figure 2.
#include "core/gatekeeper.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>

namespace crcw {
namespace {

TEST(Gatekeeper, FirstContenderWins) {
  Gatekeeper g;
  EXPECT_TRUE(g.try_acquire());
  EXPECT_FALSE(g.try_acquire());
  EXPECT_FALSE(g.try_acquire());
}

TEST(Gatekeeper, CountsContenders) {
  Gatekeeper g;
  (void)g.try_acquire();
  (void)g.try_acquire();
  (void)g.try_acquire();
  EXPECT_EQ(g.contenders(), 3u);
  EXPECT_TRUE(g.taken());
}

TEST(Gatekeeper, RequiresResetBetweenRounds) {
  Gatekeeper g;
  ASSERT_TRUE(g.try_acquire());
  // Without a reset, no one can ever win again — the structural weakness
  // CAS-LT removes (§5).
  EXPECT_FALSE(g.try_acquire());
  g.reset();
  EXPECT_TRUE(g.try_acquire());
}

TEST(Gatekeeper, SkipVariantSameWinnerSemantics) {
  Gatekeeper g;
  EXPECT_TRUE(g.try_acquire_skip());
  EXPECT_FALSE(g.try_acquire_skip());
  g.reset();
  EXPECT_TRUE(g.try_acquire_skip());
}

TEST(Gatekeeper, SkipVariantAvoidsRmwWhenTaken) {
  Gatekeeper g;
  ASSERT_TRUE(g.try_acquire());
  const auto before = g.contenders();
  // The mitigated check must not bump the counter once a winner exists.
  EXPECT_FALSE(g.try_acquire_skip());
  EXPECT_EQ(g.contenders(), before);
  // The unmitigated check always pays the RMW.
  EXPECT_FALSE(g.try_acquire());
  EXPECT_EQ(g.contenders(), before + 1);
}

TEST(GatekeeperStress, ExactlyOneWinnerPerRound) {
  Gatekeeper g;
  constexpr int kRounds = 200;
  const int threads = std::max(4, omp_get_max_threads());
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> winners{0};
#pragma omp parallel num_threads(threads)
    {
      if (g.try_acquire()) winners.fetch_add(1, std::memory_order_relaxed);
    }
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    ASSERT_EQ(g.contenders(), static_cast<std::uint64_t>(threads));
    g.reset();
  }
}

TEST(GatekeeperStress, SkipExactlyOneWinnerPerRound) {
  Gatekeeper g;
  constexpr int kRounds = 200;
  const int threads = std::max(4, omp_get_max_threads());
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> winners{0};
#pragma omp parallel num_threads(threads)
    {
      if (g.try_acquire_skip()) winners.fetch_add(1, std::memory_order_relaxed);
    }
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    // With the skip, contenders that arrive after the winner never RMW.
    ASSERT_LE(g.contenders(), static_cast<std::uint64_t>(threads));
    g.reset();
  }
}

TEST(Gatekeeper, SizeIsOneWord) {
  EXPECT_EQ(sizeof(Gatekeeper), sizeof(std::uint64_t));
}

/// Reset racing late acquires: one thread resets at full speed while the
/// rest hammer both acquire paths with no round structure. Every win
/// consumes a zero, and zeros only come from the initial state or a reset,
/// so total wins <= resets + 1. (The release/acquire pair added to
/// reset()/try_acquire_skip() also makes this hand-off well-ordered for
/// payloads — the TSan stress tier checks that half; see
/// tests/stress/stress_gatekeeper.cpp.)
TEST(GatekeeperStress, ResetRacingLateAcquiresBoundedWins) {
  Gatekeeper gate;
  const int threads = std::max(4, omp_get_max_threads());
  constexpr int kResets = 500;
  std::atomic<std::uint64_t> total_wins{0};
  std::atomic<bool> stop{false};

#pragma omp parallel num_threads(threads)
  {
    const int tid = omp_get_thread_num();
    if (tid == 0) {
      for (int e = 0; e < kResets; ++e) gate.reset();
      stop.store(true, std::memory_order_release);
    } else {
      std::uint64_t wins = 0;
      do {
        if (tid % 2 == 0 ? gate.try_acquire_skip() : gate.try_acquire()) ++wins;
      } while (!stop.load(std::memory_order_acquire));
      total_wins.fetch_add(wins, std::memory_order_relaxed);
    }
  }

  EXPECT_GE(total_wins.load(), 1u);
  EXPECT_LE(total_wins.load(), static_cast<std::uint64_t>(kResets) + 1);
}

/// Per-round exactly-one-winner with the reset issued by a *different*
/// thread each round (rotating coordinator): the release reset must hand
/// the re-opened gate to whichever thread resets next, regardless of
/// affinity.
TEST(GatekeeperStress, RotatingCoordinatorExactlyOneWinnerPerRound) {
  Gatekeeper gate;
  const int threads = std::max(4, omp_get_max_threads());
  constexpr int kRounds = 200;
  std::atomic<int> winners{0};
  std::atomic<int> failures{0};

#pragma omp parallel num_threads(threads)
  {
    const int tid = omp_get_thread_num();
    for (int r = 0; r < kRounds; ++r) {
      if (gate.try_acquire_skip()) winners.fetch_add(1, std::memory_order_relaxed);
#pragma omp barrier
      if (tid == r % threads) {
        if (winners.exchange(0, std::memory_order_relaxed) != 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        gate.reset();
      }
#pragma omp barrier
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace crcw
