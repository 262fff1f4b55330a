// ConcurrentHashMap: claim + round-tag composition, grow with values,
// round monotonicity across migration.
#include "ds/concurrent_hash_map.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace crcw::ds {
namespace {

using Map = ConcurrentHashMap<std::uint64_t, std::uint64_t>;

TEST(HashMap, InsertFirstThenFind) {
  Map map(16);
  EXPECT_EQ(map.insert_first(7, 70), SetInsert::kInserted);
  EXPECT_EQ(map.insert_first(7, 71), SetInsert::kFound);  // loser, value kept
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 70u);
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_TRUE(map.contains(7));
  EXPECT_EQ(map.size(), 1u);
}

TEST(HashMap, SentinelKeyThrows) {
  Map map(4);
  EXPECT_THROW((void)map.insert_first(Map::kEmptyKey, 0), std::invalid_argument);
  EXPECT_THROW((void)map.upsert(1, Map::kEmptyKey, 0), std::invalid_argument);
  EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
}

TEST(HashMap, UpsertOneWinnerPerRound) {
  Map map(16);
  EXPECT_EQ(map.upsert(1, 7, 100), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(1, 7, 200), MapUpsert::kLost);  // round 1 closed
  EXPECT_EQ(*map.find(7), 100u);
  EXPECT_EQ(map.upsert(2, 7, 300), MapUpsert::kWon);  // round 2 reopens
  EXPECT_EQ(*map.find(7), 300u);
  EXPECT_EQ(map.size(), 1u);  // still one key
}

TEST(HashMap, UpsertWithRunsFactoryOnlyForWinner) {
  Map map(16);
  int calls = 0;
  const auto make = [&]() -> std::uint64_t {
    ++calls;
    return 5;
  };
  EXPECT_EQ(map.upsert_with(1, 9, make), MapUpsert::kWon);
  EXPECT_EQ(map.upsert_with(1, 9, make), MapUpsert::kLost);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(*map.find(9), 5u);
}

TEST(HashMap, FullTableReportsKFull) {
  HashConfig cfg;
  cfg.max_load = 1.0;
  Map map(2, cfg);
  ASSERT_EQ(map.bucket_count(), 2u);
  EXPECT_EQ(map.upsert(1, 10, 1), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(1, 11, 2), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(1, 12, 3), MapUpsert::kFull);
}

TEST(HashMap, ForEachSeesCommittedPairs) {
  Map map(64);
  for (std::uint64_t k = 0; k < 40; ++k) (void)map.insert_first(k, k * 10);
  std::map<std::uint64_t, std::uint64_t> seen;
  map.for_each([&](std::uint64_t k, const std::uint64_t& v) { seen[k] = v; });
  ASSERT_EQ(seen.size(), 40u);
  for (const auto& [k, v] : seen) EXPECT_EQ(v, k * 10);
}

TEST(HashMap, GrowCarriesValuesAndCommittedRounds) {
  Map map(8);
  ASSERT_EQ(map.upsert(5, 1, 111), MapUpsert::kWon);
  ASSERT_EQ(map.upsert(5, 2, 222), MapUpsert::kWon);
  const std::uint64_t before = map.bucket_count();

  map.grow_prepare();
  map.grow_help();
  map.grow_finish();

  EXPECT_GT(map.bucket_count(), before);
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 111u);
  EXPECT_EQ(*map.find(2), 222u);
  // Round monotonicity survived the swap: round 5 is still committed, so a
  // round-5 (or older) upsert must lose; round 6 must win.
  EXPECT_EQ(map.upsert(5, 1, 999), MapUpsert::kLost);
  EXPECT_EQ(map.upsert(4, 2, 999), MapUpsert::kLost);
  EXPECT_EQ(*map.find(1), 111u);
  EXPECT_EQ(map.upsert(6, 1, 666), MapUpsert::kWon);
  EXPECT_EQ(*map.find(1), 666u);
}

TEST(HashMap, RepeatedGrowsKeepEveryPair) {
  Map map(4);
  std::map<std::uint64_t, std::uint64_t> reference;
  round_t round = 0;
  for (std::uint64_t k = 1; k <= 500; ++k) {
    ++round;
    ASSERT_EQ(map.upsert(round, k, k + 7), MapUpsert::kWon);
    reference[k] = k + 7;
    map.maybe_grow_parallel(2);
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const std::uint64_t* found = map.find(k);
    ASSERT_NE(found, nullptr) << "key " << k;
    EXPECT_EQ(*found, v);
  }
}

TEST(HashMap, ParallelUpsertOneWinnerPerKeyPerRound) {
  const int threads = std::max(4, omp_get_max_threads());
  constexpr std::uint64_t kKeys = 64;
  Map map(kKeys);
  for (round_t round = 1; round <= 20; ++round) {
    std::vector<std::atomic<int>> winners(kKeys);
#pragma omp parallel num_threads(threads)
    {
      const auto tid = static_cast<std::uint64_t>(omp_get_thread_num());
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        // Winner encodes its thread id so the audit can check the
        // committed value belongs to the (single) winner.
        if (map.upsert(round, k, round * 1000 + tid) == MapUpsert::kWon) {
          winners[k].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Post-barrier audit (the omp region's end is the barrier).
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(winners[k].load(), 1) << "round " << round << " key " << k;
      const std::uint64_t* v = map.find(k);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v / 1000, round);  // this round's write, not a stale one
      EXPECT_LT(*v % 1000, static_cast<std::uint64_t>(threads));
    }
  }
  EXPECT_EQ(map.size(), kKeys);
}

TEST(HashMap, BacklogSizedGrowIsOneGrowNotACascade) {
  Map map(4);
  ASSERT_EQ(map.bucket_count(), 8u);  // 4 keys at max_load 0.5
  // Sizing for a 1000-key backlog must land in one grow, big enough that
  // 1000 inserts then proceed without any further grow.
  EXPECT_TRUE(map.maybe_grow_for_backlog(1000, 2));
  const std::uint64_t grown = map.bucket_count();
  EXPECT_GE(grown, 2048u);  // 1000 / 0.5 rounded to pow2
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_EQ(map.upsert(k, k, k), MapUpsert::kWon);
  }
  EXPECT_FALSE(map.needs_grow());
  EXPECT_EQ(map.bucket_count(), grown);
  // A backlog that already fits is a no-op.
  EXPECT_FALSE(map.maybe_grow_for_backlog(1, 2));
  EXPECT_EQ(map.bucket_count(), grown);
}

TEST(HashMap, EraseArbitratesAgainstSameRoundUpserts) {
  Map map(16);
  ASSERT_EQ(map.upsert(1, 7, 70), MapUpsert::kWon);

  // Round 2: the erase wins the (key, round) CAS; a same-round upsert
  // must lose and observe the tombstone (find() returns nullptr).
  EXPECT_EQ(map.erase(2, 7), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(2, 7, 71), MapUpsert::kLost);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.occupied(), 1u);  // the bucket stays claimed
  EXPECT_EQ(map.tombstones(), 1u);

  // Round 3, reversed: the upsert wins first, the erase loses.
  EXPECT_EQ(map.upsert(3, 7, 72), MapUpsert::kWon);
  EXPECT_EQ(map.erase(3, 7), MapUpsert::kLost);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 72u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.tombstones(), 0u);  // the revive cleared the tombstone
}

TEST(HashMap, EraseOfAbsentKeyStillArbitrates) {
  // Erasing a key that was never inserted claims and tombstones a bucket,
  // so a same-round upsert loser observes the erase's commit — the
  // arbitration is symmetric whether or not the key existed.
  Map map(16);
  EXPECT_EQ(map.erase(1, 5), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(1, 5, 50), MapUpsert::kLost);
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.occupied(), 1u);
  EXPECT_EQ(map.tombstones(), 1u);
  // Double erase in a later round wins the round but moves no counter.
  EXPECT_EQ(map.erase(2, 5), MapUpsert::kWon);
  EXPECT_EQ(map.tombstones(), 1u);
}

TEST(HashMap, InsertFirstRevivesTombstonedKeys) {
  Map map(16);
  ASSERT_EQ(map.upsert(1, 3, 30), MapUpsert::kWon);
  ASSERT_EQ(map.erase(2, 3), MapUpsert::kWon);
  // Build-phase revive: first-writer-wins on the liveness bit.
  EXPECT_EQ(map.insert_first(3, 31), SetInsert::kInserted);
  EXPECT_EQ(map.insert_first(3, 32), SetInsert::kFound);
  ASSERT_NE(map.find(3), nullptr);
  EXPECT_EQ(*map.find(3), 31u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.tombstones(), 0u);
}

TEST(HashMap, ReclaimDropsTombstonesAndShrinks) {
  Map map(500);
  const std::uint64_t grown = map.bucket_count();
  EXPECT_GE(grown, 1024u);
  round_t r = 1;
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_EQ(map.upsert(r, k, k * 10), MapUpsert::kWon);
  }
  ++r;
  for (std::uint64_t k = 8; k < 500; ++k) {
    ASSERT_EQ(map.erase(r, k), MapUpsert::kWon);
  }
  EXPECT_TRUE(map.needs_reclaim());
  map.reclaim_parallel(2);
  EXPECT_EQ(map.bucket_count(), 16u);  // 8 live keys at 0.5 → 16 buckets
  EXPECT_EQ(map.size(), 8u);
  EXPECT_EQ(map.occupied(), 8u);
  EXPECT_EQ(map.tombstones(), 0u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), k * 10);
  }
  for (std::uint64_t k = 8; k < 500; ++k) ASSERT_EQ(map.find(k), nullptr);
  // Round monotonicity survives the rebuild: round r is still closed for
  // surviving keys, and the erased keys' rounds were dropped with them.
  ++r;
  EXPECT_EQ(map.upsert(r, 0, 999), MapUpsert::kWon);
  EXPECT_EQ(map.upsert(r, 0, 998), MapUpsert::kLost);
}

TEST(HashMap, GrowCarriesTombstonesAway) {
  // Either migration direction reclaims: a grow after churn drops dead
  // buckets instead of copying them.
  Map map(8);
  round_t r = 1;
  for (std::uint64_t k = 0; k < 8; ++k) ASSERT_EQ(map.upsert(r, k, k), MapUpsert::kWon);
  ++r;
  for (std::uint64_t k = 0; k < 4; ++k) ASSERT_EQ(map.erase(r, k), MapUpsert::kWon);
  map.grow_parallel(2);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.occupied(), 4u);
  EXPECT_EQ(map.tombstones(), 0u);
  for (std::uint64_t k = 4; k < 8; ++k) EXPECT_TRUE(map.contains(k));
}

TEST(HashMap, ParallelMixedEraseUpsertOneWinnerPerKeyPerRound) {
  // The tentpole's contract at table level: threads erase AND upsert the
  // same keys in the same round; per (key, round) exactly one op commits,
  // and post-barrier liveness matches the winning op's kind.
  const int threads = std::max(4, omp_get_max_threads());
  constexpr std::uint64_t kKeys = 256;
  Map map(kKeys * 2);
  round_t r = 1;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(map.upsert(r, k, 1), MapUpsert::kWon);
  }
  for (int round = 2; round <= 6; ++round) {
    r = static_cast<round_t>(round);
    std::vector<int> winners(kKeys, 0);
    std::vector<unsigned char> erase_won(kKeys, 0);
#pragma omp parallel num_threads(threads)
    {
      const int tid = omp_get_thread_num();
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        // Even threads erase, odd threads upsert — every key contested.
        const MapUpsert out = tid % 2 == 0 ? map.erase(r, k)
                                           : map.upsert(r, k, r * 1000 + k);
        if (out == MapUpsert::kWon) {
#pragma omp atomic
          ++winners[k];
          if (tid % 2 == 0) erase_won[k] = 1;
        }
      }
    }
    std::uint64_t live = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(winners[k], 1) << "key " << k << " round " << round;
      const std::uint64_t* v = map.find(k);
      if (erase_won[k] != 0) {
        ASSERT_EQ(v, nullptr) << "key " << k;
      } else {
        ASSERT_NE(v, nullptr) << "key " << k;
        ASSERT_EQ(*v, r * 1000 + k);
        ++live;
      }
    }
    ASSERT_EQ(map.size(), live);  // counters track exactly the live keys
  }
}

TEST(HashMap, TelemetryCountsTombstonesAndReclaims) {
  obs::MetricsRegistry local;
  {
    const obs::ScopedRegistry scoped(local);
    HashConfig cfg;
    cfg.telemetry = true;
    cfg.site_name = "unit-map-churn";
    Map map(64, cfg);
    round_t r = 1;
    for (std::uint64_t k = 0; k < 32; ++k) (void)map.upsert(r, k, k);
    ++r;
    for (std::uint64_t k = 0; k < 32; ++k) (void)map.erase(r, k);
    map.reclaim_parallel(1);
    map.flush_round();
  }
  const obs::ContentionTotals t = local.totals();
  // One committed erase per key — the one-CAS-per-(key, round) pin the
  // churn bench divides out — and every tombstone dropped by the rebuild.
  EXPECT_EQ(t.tombstones, 32u);
  EXPECT_EQ(t.reclaimed, 32u);
}

TEST(HashMap, TelemetrySkipsAtomicsForClosedRounds) {
  obs::MetricsRegistry local;
  {
    const obs::ScopedRegistry scoped(local);
    HashConfig cfg;
    cfg.telemetry = true;
    cfg.site_name = "unit-map";
    Map map(16, cfg);
    ASSERT_EQ(map.upsert(1, 7, 1), MapUpsert::kWon);  // claim CAS + tag CAS
    const std::uint64_t after_win = local.totals().atomics;
    EXPECT_EQ(after_win, 2u);
    // A closed-round upsert takes the CAS-LT skip: no new atomic counted.
    ASSERT_EQ(map.upsert(1, 7, 2), MapUpsert::kLost);
    EXPECT_EQ(local.totals().atomics, after_win);
    map.flush_round();
  }
  EXPECT_EQ(local.totals().wins, 1u);
}

TEST(HashMap, TelemetryCountsInsertFirstReviveAsAWin) {
  obs::MetricsRegistry local;
  {
    const obs::ScopedRegistry scoped(local);
    HashConfig cfg;
    cfg.telemetry = true;
    cfg.site_name = "unit-map-revive";
    Map map(16, cfg);
    ASSERT_EQ(map.insert_first(7, 1), SetInsert::kInserted);  // fresh claim: a win
    ASSERT_EQ(map.erase(1, 7), MapUpsert::kWon);
    ASSERT_EQ(map.insert_first(7, 2), SetInsert::kInserted);  // revive: a win too
    const std::uint64_t* value = map.find(7);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 2u);
    map.flush_round();
  }
  const obs::ContentionTotals t = local.totals();
  EXPECT_EQ(t.wins, 2u);
  EXPECT_EQ(t.atomics, 3u);  // claim CAS, erase's tag CAS, revive's fetch_or
}

}  // namespace
}  // namespace crcw::ds
