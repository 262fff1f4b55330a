// ds/ tables under raw std::thread + std::barrier schedules — the tier
// that must stay clean under TSan (ctest labels: stress, ds).
//
// The cooperative-resize safety argument is entirely barrier-shaped:
// inserts never overlap the migration sweep, helpers claim disjoint
// chunks, and the array swap happens after every helper passed the
// barrier. This file replays that protocol with primitives TSan models
// natively, so a hole in the argument shows up as a reported race, not a
// flaky assertion.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <set>
#include <vector>

#include "ds/chained_hash_set.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "stress_common.hpp"

namespace crcw::stress {
namespace {

// The grow protocol spelled out with explicit barriers: insert | decide |
// help | finish, each phase separated. Starts tiny so nearly every round
// triggers a migration (the resize-storm schedule).
TEST(StressHashResize, OpenSetGrowsUnderLockstepInserts) {
  const int threads = thread_count();
  const int rounds = scaled(64, 16);
  const std::uint64_t keys_per_thread = scaled(256, 64);

  ds::HashConfig cfg;
  cfg.migrate_chunk = 32;  // small chunks → every helper claims some
  const std::uint64_t round_size =
      static_cast<std::uint64_t>(threads) * keys_per_thread;
  // Sized for exactly one round: every later round depends on the grows.
  ds::ConcurrentHashSet<> set(round_size, cfg);
  std::atomic<std::uint64_t> inserted{0};
  std::barrier sync(threads);

  run_barrier_threads(sync, threads, [&](int tid) {
    for (int r = 0; r < rounds; ++r) {
      // Phase 1: disjoint key ranges, so every insert must win.
      const std::uint64_t base =
          (static_cast<std::uint64_t>(r) * threads + static_cast<std::uint64_t>(tid)) *
          keys_per_thread;
      for (std::uint64_t i = 0; i < keys_per_thread; ++i) {
        ASSERT_EQ(set.insert(base + i), ds::SetInsert::kInserted);
      }
      inserted.fetch_add(keys_per_thread, std::memory_order_relaxed);
      sync.arrive_and_wait();

      // Phase 2 (serial): open the migration window when the NEXT round
      // would cross the load factor — the grow must land between rounds,
      // so the decision reserves headroom instead of reacting to kFull.
      if (tid == 0 &&
          (set.size() + round_size) * 2 > set.bucket_count()) {
        set.grow_prepare(4);
      }
      sync.arrive_and_wait();

      // Phase 3 (parallel): everyone helps sweep.
      if (set.growing()) set.grow_help();
      sync.arrive_and_wait();

      // Phase 4 (serial): swap arrays, audit.
      if (tid == 0) {
        if (set.growing()) set.grow_finish();
        const std::uint64_t expect = inserted.load(std::memory_order_relaxed);
        ASSERT_EQ(set.size(), expect);
        // Spot-check survival across the round's migration.
        ASSERT_TRUE(set.contains(base));
        ASSERT_TRUE(set.contains(0));
        ASSERT_FALSE(set.contains(expect + threads * keys_per_thread * rounds));
      }
      sync.arrive_and_wait();
    }
  });

  const std::uint64_t total =
      static_cast<std::uint64_t>(threads) * rounds * keys_per_thread;
  EXPECT_EQ(set.size(), total);
  for (std::uint64_t k = 0; k < total; k += 97) EXPECT_TRUE(set.contains(k));
}

// All threads upsert the SAME keys each round: exactly one kWon per
// (key, round), committed value readable post-barrier, migration between
// rounds preserves round monotonicity.
TEST(StressHashResize, MapUpsertOneWinnerPerKeyAcrossGrows) {
  const int threads = thread_count();
  const round_t rounds = scaled(200, 40);
  constexpr std::uint64_t kKeys = 32;

  ds::ConcurrentHashMap<std::uint64_t, std::uint64_t> map(kKeys);
  std::vector<std::atomic<int>> winners(kKeys);
  std::barrier sync(threads);

  run_barrier_threads(sync, threads, [&](int tid) {
    for (round_t r = 1; r <= rounds; ++r) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        if (map.upsert(r, k, r * 1000 + static_cast<std::uint64_t>(tid)) ==
            ds::MapUpsert::kWon) {
          winners[k].fetch_add(1, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      if (tid == 0) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          ASSERT_EQ(winners[k].exchange(0, std::memory_order_relaxed), 1)
              << "round " << r << " key " << k;
          const std::uint64_t* v = map.find(k);
          ASSERT_NE(v, nullptr);
          ASSERT_EQ(*v / 1000, r);  // the committed value is this round's
        }
        // Exercise migration mid-stream: single-helper grow keeps the
        // committed rounds, so next round's upserts still arbitrate right.
        if (r % 16 == 0) {
          map.grow_prepare();
          map.grow_help();
          map.grow_finish();
        }
      }
      sync.arrive_and_wait();
    }
  });
  EXPECT_EQ(map.size(), kKeys);
}

// Chained set: raw-thread lanes, overlapping key ranges, Treiber push +
// self-tombstone dedup under TSan's eye.
TEST(StressHashResize, ChainedSetDedupesUnderContention) {
  const int threads = thread_count();
  const round_t rounds = scaled(50, 10);
  const std::uint64_t keys_per_round = scaled(128, 48);

  // Arena bound: every thread may spend a node for every offer.
  ds::ChainedHashSet<> set(
      static_cast<std::uint64_t>(threads) * rounds * keys_per_round, threads);

  run_lockstep(threads, rounds,
               [&](int tid, round_t r) {
                 // All threads offer the same window → maximal dedup races.
                 const std::uint64_t base = (r - 1) * keys_per_round;
                 for (std::uint64_t i = 0; i < keys_per_round; ++i) {
                   (void)set.insert(tid, base + i);
                 }
               },
               [&](round_t r) {
                 ASSERT_EQ(set.size(), r * keys_per_round);
                 std::set<std::uint64_t> seen;
                 set.for_each([&](std::uint64_t k) {
                   ASSERT_TRUE(seen.insert(k).second) << "duplicate live key " << k;
                 });
                 ASSERT_EQ(seen.size(), r * keys_per_round);
               });
}

}  // namespace
}  // namespace crcw::stress
