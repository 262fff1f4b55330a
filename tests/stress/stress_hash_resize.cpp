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
#include <memory>
#include <thread>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "obs/metrics.hpp"
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

// The map's claim telemetry under a real claim race: all threads start
// together and offer the same fresh keys, in the same order, through
// insert_first. A thread that falls behind skips keys already claimed
// (no CAS) until it catches up, and from then on the threads race for
// the same empty buckets, so some claim CASes lose. The claim walk counts
// every CAS it issues, so atomics must come to exceed wins (one per fresh
// key); counting only the winning CASes would pin the two equal and
// report zero failures under any contention. Every window gets a fresh
// table, so memory stays flat; repeats are bounded, and the loop stops as
// soon as a lost CAS has shown.
TEST(StressHashResize, MapInsertFirstCountsLostClaimCases) {
  using Map = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kWindow = 4096;
  const int repeats = scaled(200, 50);

  ds::HashConfig cfg;
  cfg.telemetry = true;
  cfg.site_name = "stress-insert-first";
  std::unique_ptr<Map> map;
  std::atomic<std::uint64_t> inserted{0};
  std::atomic<bool> stop{false};
  std::atomic<int> arrived{0};
  bool lost_seen = false;  // thread 0 only
  std::barrier sync(kThreads);

  run_barrier_threads(sync, kThreads, [&](int tid) {
    for (int rep = 0; rep < repeats; ++rep) {
      if (tid == 0) {
        map = std::make_unique<Map>(kWindow, cfg);
        inserted.store(0, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();
      // A barrier wakes its waiters one at a time; a spin release lets
      // every running thread into the window at nearly the same moment.
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < kThreads * (rep + 1)) {
        std::this_thread::yield();
      }
      for (std::uint64_t k = 0; k < kWindow; ++k) {
        if (map->insert_first(k, static_cast<std::uint64_t>(tid)) ==
            ds::SetInsert::kInserted) {
          inserted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      // Thread 0 audits with EXPECT, not ASSERT: an early return would
      // leave the others spinning on `arrived` for a thread that is gone.
      // Every thread stops together once the window is wrong or a lost
      // CAS has been counted.
      if (tid == 0) {
        const obs::ContentionTotals t = map->telemetry().site()->totals();
        const std::uint64_t got = inserted.load(std::memory_order_relaxed);
        EXPECT_EQ(got, kWindow) << "one winner per fresh key, repeat " << rep;
        EXPECT_EQ(t.wins, kWindow);
        lost_seen = t.atomics > t.wins;
        stop.store(got != kWindow || t.wins != kWindow || lost_seen,
                   std::memory_order_relaxed);
      }
      sync.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) return;
    }
  });

  EXPECT_TRUE(lost_seen) << "no lost claim CAS counted in " << repeats
                         << " contended windows";
}

}  // namespace
}  // namespace crcw::stress
