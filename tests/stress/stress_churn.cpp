// Long-lived churn under raw std::thread + std::barrier schedules (ctest
// label: churn-stress — the compound token matches both `-L churn` and
// `-L stress`).
//
// The erase/reclaim safety argument has two legs, and each gets its own
// TSan-visible schedule here: (1) erase and upsert share ONE CAS-LT
// arbitration, so mixed same-round writers still produce exactly one
// winner; (2) the reclaim rebuild is the grow protocol pointed the other
// way — prepare | help | finish between rounds — and must preserve every
// committed (round, value) while dropping every tombstone, so the bucket
// count stays bounded while lifetime churn exceeds it many times over.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "stress_common.hpp"

namespace crcw::stress {
namespace {

// Threads race erase against upsert on every key every round; the winner's
// kind decides the key's liveness for the round. Every 16 rounds the
// threads run a cooperative reclaim and the surviving commits must keep
// arbitrating correctly afterwards; each round first reserves room for
// its writes, since a reclaim may shrink the table below kKeys.
TEST(StressChurn, MapMixedOpsOneWinnerAcrossReclaims) {
  const int threads = thread_count();
  const round_t rounds = scaled(120, 24);
  constexpr std::uint64_t kKeys = 48;

  ds::ConcurrentHashMap<std::uint64_t, std::uint64_t> map(kKeys);
  std::vector<std::atomic<int>> winners(kKeys);
  std::vector<std::atomic<int>> erase_won(kKeys);
  std::barrier sync(threads);

  run_barrier_threads(sync, threads, [&](int tid) {
    for (round_t r = 1; r <= rounds; ++r) {
      // Phase 0 (serial): reserve room for this round's writes, the way
      // every writer after a reclaim does. A reclaim sizes the table for
      // its live keys, so after one that left few keys live, a round of
      // kKeys writes would otherwise find the table full (kFull) and some
      // key would have no winner.
      if (tid == 0) {
        const std::uint64_t want = ds::bucket_count_for(
            ds::required_buckets(map.occupied() + kKeys, 0.5));
        if (want > map.bucket_count()) {
          map.grow_prepare(want / map.bucket_count());
        }
      }
      sync.arrive_and_wait();
      if (map.growing()) map.grow_help();
      sync.arrive_and_wait();
      if (tid == 0 && map.growing()) map.grow_finish();
      sync.arrive_and_wait();

      for (std::uint64_t k = 0; k < kKeys; ++k) {
        // Parity split over (tid, r, k): both op kinds contend on every
        // key every round, and each thread plays both roles.
        const bool erase = (static_cast<round_t>(tid) + r + k) % 2 == 0;
        const ds::MapUpsert out =
            erase ? map.erase(r, k)
                  : map.upsert(r, k, r * 1000 + static_cast<std::uint64_t>(tid));
        if (out == ds::MapUpsert::kWon) {
          winners[k].fetch_add(1, std::memory_order_relaxed);
          if (erase) erase_won[k].store(1, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();

      if (tid == 0) {
        std::uint64_t live = 0;
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          ASSERT_EQ(winners[k].exchange(0, std::memory_order_relaxed), 1)
              << "round " << r << " key " << k;
          const std::uint64_t* v = map.find(k);
          if (erase_won[k].exchange(0, std::memory_order_relaxed) != 0) {
            ASSERT_EQ(v, nullptr) << "round " << r << " key " << k;
          } else {
            ASSERT_NE(v, nullptr) << "round " << r << " key " << k;
            ASSERT_EQ(*v / 1000, r);  // the winner committed THIS round
            ++live;
          }
        }
        ASSERT_EQ(map.size(), live);
      }
      sync.arrive_and_wait();

      // Cooperative reclaim between rounds: same barrier shape as the
      // grow protocol, arrays swapped only after every helper passed.
      if (r % 16 == 0) {
        if (tid == 0) map.reclaim_prepare();
        sync.arrive_and_wait();
        if (map.growing()) map.grow_help();
        sync.arrive_and_wait();
        if (tid == 0) {
          map.grow_finish();
          ASSERT_EQ(map.tombstones(), 0u);
          ASSERT_EQ(map.occupied(), map.size());
        }
        sync.arrive_and_wait();
      }
    }
  });
}

// Fresh disjoint keys every round, all erased the same round — the
// worst-case schedule for a grow-only table. Cooperative backlog-grow and
// watermark-reclaim bracket each round; bucket_count must oscillate
// inside one band instead of ratcheting up.
TEST(StressChurn, SetBucketCountStaysBoundedUnderLockstepChurn) {
  const int threads = thread_count();
  const round_t rounds = scaled(64, 16);
  const std::uint64_t keys_per_thread = scaled(128, 32);
  const std::uint64_t round_size =
      static_cast<std::uint64_t>(threads) * keys_per_thread;

  ds::ConcurrentHashSet<> set(round_size);
  const std::uint64_t band = set.bucket_count() * 4;
  std::atomic<std::uint64_t> erased{0};
  std::uint64_t max_buckets = 0;  // tid 0 only, barrier-separated
  std::barrier sync(threads);

  run_barrier_threads(sync, threads, [&](int tid) {
    for (round_t r = 1; r <= rounds; ++r) {
      // Phase 0 (serial): size the table for this round's batch — the
      // backlog-grow decision, cooperatively swept. After a shrink the
      // needed factor exceeds 2, so it is computed, not hardcoded.
      if (tid == 0) {
        const std::uint64_t want = ds::bucket_count_for(
            ds::required_buckets(set.size() + round_size, 0.5));
        if (want > set.bucket_count()) {
          set.grow_prepare(want / set.bucket_count());
        }
      }
      sync.arrive_and_wait();
      if (set.growing()) set.grow_help();
      sync.arrive_and_wait();
      if (tid == 0 && set.growing()) set.grow_finish();
      sync.arrive_and_wait();

      // Phase 1: disjoint fresh ranges — every insert must win.
      const std::uint64_t base =
          (static_cast<std::uint64_t>(r - 1) * threads +
           static_cast<std::uint64_t>(tid)) *
          keys_per_thread;
      for (std::uint64_t i = 0; i < keys_per_thread; ++i) {
        ASSERT_EQ(set.insert(base + i), ds::SetInsert::kInserted);
      }
      sync.arrive_and_wait();

      // Phase 2: erase the whole round back out (own range → all first).
      for (std::uint64_t i = 0; i < keys_per_thread; ++i) {
        if (set.erase(base + i)) erased.fetch_add(1, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();

      // Phase 3: watermark-gated cooperative shrink, then audit.
      if (tid == 0) {
        ASSERT_EQ(erased.exchange(0, std::memory_order_relaxed), round_size);
        ASSERT_EQ(set.size(), 0u);
        ASSERT_EQ(set.tombstones(), round_size);
        if (set.needs_reclaim()) set.reclaim_prepare();
      }
      sync.arrive_and_wait();
      if (set.growing()) set.grow_help();
      sync.arrive_and_wait();
      if (tid == 0) {
        if (set.growing()) set.grow_finish();
        max_buckets = std::max(max_buckets, set.bucket_count());
        ASSERT_LE(set.bucket_count(), band) << "round " << r;
      }
      sync.arrive_and_wait();
    }
  });

  EXPECT_LE(max_buckets, band);
  EXPECT_EQ(set.size(), 0u);
}

}  // namespace
}  // namespace crcw::stress
