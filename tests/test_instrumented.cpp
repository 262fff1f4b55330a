// InstrumentedPolicy — measuring the §6 cost claims directly: under R
// rounds with A attempts each, the gatekeeper issues Θ(A·R) atomic RMWs
// while CAS-LT issues O(R) plus failed races, and both admit exactly R
// winners. Counters are instance-owned (one obs::ContentionSite per
// arbiter), so independent arbiters — and independent tests — never leak
// counts into each other.
#include "core/instrumented.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include "core/arbiter.hpp"
#include "obs/metrics.hpp"

namespace crcw {
namespace {

using ICasLt = InstrumentedPolicy<CasLtPolicy>;
using IGate = InstrumentedPolicy<GatekeeperPolicy>;
using IGateSkip = InstrumentedPolicy<GatekeeperSkipPolicy>;

/// Raw-tag harness: a private registry (so the process-global one stays
/// untouched) plus one site the tag-level calls count into.
struct SiteFixture {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped{registry};
  obs::ContentionSite site{"test"};
};

TEST(Instrumented, CasLtSkipsAtomicsOnceCommitted) {
  SiteFixture f;
  ICasLt::tag_type tag;
  ASSERT_TRUE(ICasLt::try_acquire(tag, 1, f.site));
  for (int i = 0; i < 99; ++i) ASSERT_FALSE(ICasLt::try_acquire(tag, 1, f.site));
  const obs::ContentionTotals c = f.site.totals();
  EXPECT_EQ(c.attempts, 100u);
  EXPECT_EQ(c.atomics, 1u) << "99 late contenders must skip the CAS";
  EXPECT_EQ(c.wins, 1u);
}

TEST(Instrumented, GatekeeperPaysOneRmwPerAttempt) {
  SiteFixture f;
  IGate::tag_type tag;
  ASSERT_TRUE(IGate::try_acquire(tag, 1, f.site));
  for (int i = 0; i < 99; ++i) ASSERT_FALSE(IGate::try_acquire(tag, 1, f.site));
  const obs::ContentionTotals c = f.site.totals();
  EXPECT_EQ(c.attempts, 100u);
  EXPECT_EQ(c.atomics, 100u) << "every contender executes the RMW (§5)";
  EXPECT_EQ(c.wins, 1u);
  EXPECT_EQ(c.failures(), 99u);
}

TEST(Instrumented, GatekeeperSkipAvoidsLateRmws) {
  SiteFixture f;
  IGateSkip::tag_type tag;
  ASSERT_TRUE(IGateSkip::try_acquire(tag, 1, f.site));
  for (int i = 0; i < 99; ++i) ASSERT_FALSE(IGateSkip::try_acquire(tag, 1, f.site));
  EXPECT_EQ(f.site.totals().atomics, 1u);
}

TEST(Instrumented, UncountedFallbackKeepsSemantics) {
  // The 2-argument overload (the WritePolicy concept's surface) acquires
  // identically but records nothing.
  SiteFixture f;
  ICasLt::tag_type tag;
  EXPECT_TRUE(ICasLt::try_acquire(tag, 1));
  EXPECT_FALSE(ICasLt::try_acquire(tag, 1));
  EXPECT_TRUE(ICasLt::try_acquire(tag, 2));
  EXPECT_EQ(f.site.totals(), obs::ContentionTotals{});
}

TEST(Instrumented, MultiRoundSerialCosts) {
  // R rounds, A attempts per round, one serial thread.
  constexpr round_t kRounds = 50;
  constexpr int kAttempts = 20;

  {
    SiteFixture f;
    ICasLt::tag_type tag;
    for (round_t r = 1; r <= kRounds; ++r) {
      for (int a = 0; a < kAttempts; ++a) (void)ICasLt::try_acquire(tag, r, f.site);
    }
    EXPECT_EQ(f.site.totals().wins, kRounds);
    EXPECT_EQ(f.site.totals().atomics, kRounds) << "serial: exactly one CAS/round";
  }

  {
    SiteFixture f;
    IGate::tag_type tag;
    for (round_t r = 1; r <= kRounds; ++r) {
      IGate::reset(tag);  // the mandatory per-round re-initialisation
      for (int a = 0; a < kAttempts; ++a) (void)IGate::try_acquire(tag, r, f.site);
    }
    EXPECT_EQ(f.site.totals().wins, kRounds);
    EXPECT_EQ(f.site.totals().atomics, kRounds * kAttempts)
        << "gatekeeper: A RMWs per round";
  }
}

TEST(Instrumented, ContendedCasLtAtomicsBoundedByThreadsPerRound) {
  // §6: once the write commits, remaining P_phys threads fail at most one
  // CAS each; later arrivals skip entirely. So atomics <= threads per
  // round (and usually far fewer).
  const int threads = std::max(4, omp_get_max_threads());
  constexpr round_t kRounds = 50;
  constexpr int kAttempts = 32;

  SiteFixture f;
  ICasLt::tag_type tag;
  for (round_t r = 1; r <= kRounds; ++r) {
    std::atomic<int> winners{0};
#pragma omp parallel num_threads(threads)
    {
      for (int a = 0; a < kAttempts; ++a) {
        if (ICasLt::try_acquire(tag, r, f.site)) {
          winners.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    ASSERT_EQ(winners.load(), 1);
  }
  const obs::ContentionTotals c = f.site.totals();
  EXPECT_EQ(c.wins, kRounds);
  EXPECT_LE(c.atomics, kRounds * static_cast<std::uint64_t>(threads));
  // The total attempt volume is far larger than the atomics issued.
  EXPECT_EQ(c.attempts, kRounds * static_cast<std::uint64_t>(threads) * kAttempts);
  EXPECT_LT(c.atomics, c.attempts / 4);
}

TEST(Instrumented, WorksInsideWriteArbiter) {
  WriteArbiter<ICasLt> arbiter(8);
  auto scope = arbiter.next_round();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(scope.acquire(i));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(scope.acquire(i));
  EXPECT_EQ(arbiter.contention().totals().wins, 8u);
  EXPECT_EQ(arbiter.contention().totals().atomics, 8u);
  EXPECT_EQ(arbiter.contention().totals().attempts, 16u);
}

TEST(Instrumented, TwoArbitersCountIndependently) {
  // The regression the instance-owned redesign exists for: with static
  // per-policy-type counters, the second arbiter's traffic polluted the
  // first one's numbers.
  WriteArbiter<ICasLt> a(4);
  WriteArbiter<ICasLt> b(4);
  {
    auto sa = a.next_round();
    for (std::size_t i = 0; i < 4; ++i) (void)sa.acquire(i);
  }
  {
    auto sb = b.next_round();
    (void)sb.acquire(0);
  }
  EXPECT_EQ(a.contention().totals().wins, 4u);
  EXPECT_EQ(b.contention().totals().wins, 1u);
}

TEST(Instrumented, RoundScopeFlushCountsRounds) {
  WriteArbiter<ICasLt> arbiter(16);
  for (int r = 0; r < 3; ++r) {
    auto scope = arbiter.next_round();
    for (std::size_t i = 0; i < 16; ++i) (void)scope.acquire(i);
  }  // each scope exit flushes one round
  const obs::ContentionSite& site = arbiter.contention();
  EXPECT_EQ(site.totals().rounds, 3u);
  EXPECT_EQ(site.totals().attempts, 3u * 16u);
}

TEST(Instrumented, ArbiterSiteReportsToScopedRegistry) {
  obs::MetricsRegistry local;
  {
    obs::ScopedRegistry scoped(local);
    WriteArbiter<IGate> arbiter(4);
    {
      auto scope = arbiter.next_round();
      for (std::size_t i = 0; i < 4; ++i) (void)scope.acquire(i);
    }
    EXPECT_EQ(local.live_sites(), 1u);
    EXPECT_EQ(local.totals().atomics, 4u);
  }
  // The arbiter died, but the registry retains its totals.
  EXPECT_EQ(local.live_sites(), 0u);
  EXPECT_EQ(local.totals().atomics, 4u);
  ASSERT_EQ(local.snapshot().size(), 1u);
  EXPECT_EQ(local.snapshot()[0].first, "gatekeeper");
}

}  // namespace
}  // namespace crcw
