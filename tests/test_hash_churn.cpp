// Long-lived churn lifecycle across the ds/ tables (ctest label ds-churn):
// erase-vs-upsert round arbitration, live-only size accounting, and the
// property the lifecycle exists for — bucket consumption stays
// BOUNDED under unbounded insert/erase cycles, because reclaim sweeps
// drop tombstones and shrink instead of letting the tables grow forever.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"

namespace crcw::ds {
namespace {

using Map = ConcurrentHashMap<std::uint64_t, std::uint64_t>;

TEST(ChurnSizing, RequiredBucketsCeilingAcrossTables) {
  // The truncating-division regression: 5 keys at max_load 0.6 used to get
  // trunc(8.33) = 8 buckets — load 0.625, above the configured factor —
  // so a fresh table was already grow-worthy. Ceiling lands on 9 → 16.
  HashConfig cfg;
  cfg.max_load = 0.6;
  Map map(5, cfg);
  EXPECT_EQ(map.bucket_count(), 16u);
  EXPECT_FALSE(map.needs_grow());

  ConcurrentHashSet<> set(5, cfg);
  EXPECT_EQ(set.bucket_count(), 16u);
}

TEST(ChurnSizing, SizingArithmeticSurvivesHugeDemands) {
  // The backlog-grow factor loop used to compute `factor` by repeated
  // doubling against a wrapped product; the fixed path sizes straight from
  // the bit width. The arithmetic must stay well-defined at the extremes
  // (no bit_ceil UB past 2^63, no wrap in occupied + backlog).
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  EXPECT_EQ(bucket_count_for(kMax), kTop);
  EXPECT_EQ(bucket_count_for(kTop), kTop);
  EXPECT_EQ(bucket_count_for(kTop + 1), kTop);
  EXPECT_EQ(bucket_count_for((std::uint64_t{1} << 62) + 1), kTop);
  // required_buckets saturates through the same clamp once bucket-rounded.
  EXPECT_EQ(bucket_count_for(required_buckets(kTop, 1.0)), kTop);
}

TEST(ChurnSizing, ReclaimSizesForLiveKeysSoWritersReserveFirst) {
  // The contract every writer after a reclaim relies on: the rebuild sizes
  // the table for its LIVE keys, below the capacity it was built for, so a
  // round that writes more keys than that must reserve room first (the
  // serve backends do so before every round).
  constexpr std::uint64_t kKeys = 48;
  Map map(kKeys);
  ASSERT_EQ(map.bucket_count(), 128u);
  round_t r = 1;
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_EQ(map.upsert(r, k, k), MapUpsert::kWon);
  ++r;
  for (std::uint64_t k = 16; k < kKeys; ++k) ASSERT_EQ(map.erase(r, k), MapUpsert::kWon);
  ASSERT_EQ(map.size(), 16u);
  map.reclaim_parallel(2);
  EXPECT_EQ(map.bucket_count(), 32u);
  EXPECT_EQ(map.tombstones(), 0u);

  // Each key is offered twice per round: the second offer must never be a
  // second winner, and a refused key stays refused for the round.
  const auto write_round = [&](round_t round, std::uint64_t& won, std::uint64_t& full) {
    won = 0;
    full = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const MapUpsert first = map.upsert(round, k, round * 100 + k);
      won += first == MapUpsert::kWon ? 1 : 0;
      full += first == MapUpsert::kFull ? 1 : 0;
      const MapUpsert again = map.upsert(round, k, round * 100 + k + 1);
      EXPECT_EQ(again, first == MapUpsert::kWon ? MapUpsert::kLost : MapUpsert::kFull)
          << "round " << round << " key " << k;
    }
  };
  std::uint64_t won = 0;
  std::uint64_t full = 0;
  write_round(++r, won, full);
  EXPECT_EQ(won, 32u);
  EXPECT_EQ(full, 16u);

  EXPECT_TRUE(map.maybe_grow_for_backlog(kKeys, 2));
  write_round(++r, won, full);
  EXPECT_EQ(won, kKeys);
  EXPECT_EQ(full, 0u);
  EXPECT_EQ(map.size(), kKeys);
}

TEST(ChurnArbitration, EraseVsUpsertOneWinnerEveryRound) {
  // (a) of the churn contract: threads mixing erase and upsert on the
  // same key in the same round, exactly one winner per round, for many
  // rounds — and the committed liveness always matches the winner's kind.
  const int threads = std::max(4, omp_get_max_threads());
  Map map(16);
  constexpr std::uint64_t kKey = 7;
  for (round_t r = 1; r <= 100; ++r) {
    std::atomic<int> winners{0};
    std::atomic<int> erase_winners{0};
#pragma omp parallel num_threads(threads)
    {
      // Alternate each thread's role across rounds so both kinds contend
      // from every lane over time.
      const bool erase = (static_cast<round_t>(omp_get_thread_num()) + r) % 2 == 0;
      const MapUpsert out =
          erase ? map.erase(r, kKey) : map.upsert(r, kKey, r * 10);
      if (out == MapUpsert::kWon) {
        winners.fetch_add(1, std::memory_order_relaxed);
        if (erase) erase_winners.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ASSERT_EQ(winners.load(), 1) << "round " << r;
    const std::uint64_t* v = map.find(kKey);
    if (erase_winners.load() != 0) {
      ASSERT_EQ(v, nullptr) << "round " << r;
      ASSERT_EQ(map.size(), 0u);
    } else {
      ASSERT_NE(v, nullptr) << "round " << r;
      ASSERT_EQ(*v, r * 10);
      ASSERT_EQ(map.size(), 1u);
    }
  }
}

TEST(ChurnAccounting, SizeTracksLiveKeysOnly) {
  // (b): size() is live keys, not claimed buckets, through interleaved
  // insert/erase/revive — on both open-addressing tables.
  Map map(64);
  ConcurrentHashSet<> set(64);
  round_t r = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    ++r;
    for (std::uint64_t k = 0; k < 32; ++k) {
      ASSERT_EQ(map.upsert(r, k, k), MapUpsert::kWon);
      (void)set.insert(k);
    }
    EXPECT_EQ(map.size(), 32u);
    EXPECT_EQ(set.size(), 32u);
    ++r;
    for (std::uint64_t k = 0; k < 32; k += 2) {
      ASSERT_EQ(map.erase(r, k), MapUpsert::kWon);
      ASSERT_TRUE(set.erase(k));
    }
    EXPECT_EQ(map.size(), 16u);
    EXPECT_EQ(set.size(), 16u);
    EXPECT_EQ(map.occupied(), 32u);  // buckets stay claimed either way
    EXPECT_EQ(set.occupied(), 32u);
    ++r;
    for (std::uint64_t k = 0; k < 32; k += 2) {  // revive for the next lap
      ASSERT_EQ(map.upsert(r, k, k), MapUpsert::kWon);
      ASSERT_EQ(set.insert(k), SetInsert::kInserted);
    }
    EXPECT_EQ(map.size(), 32u);
    EXPECT_EQ(set.size(), 32u);
    ++r;
    for (std::uint64_t k = 0; k < 32; ++k) ASSERT_EQ(map.erase(r, k), MapUpsert::kWon);
    for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(set.erase(k));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(map.tombstones(), 32u);
    EXPECT_EQ(set.tombstones(), 32u);
  }
}

/// One serve-shaped churn step: reserve for the batch, write it, erase it,
/// then let the step boundary reclaim if the watermark fired.
template <typename Table, typename WriteFn, typename EraseFn>
std::uint64_t churn_cycles(Table& table, WriteFn&& write, EraseFn&& erase_all,
                           std::uint64_t churn_per_cycle, int cycles) {
  std::uint64_t max_buckets = 0;
  for (int c = 0; c < cycles; ++c) {
    table.maybe_grow_for_backlog(churn_per_cycle, 2);
    write(c);
    erase_all(c);
    table.maybe_reclaim_parallel(2);
    max_buckets = std::max(max_buckets, table.bucket_count());
  }
  return max_buckets;
}

TEST(ChurnBounded, MapBucketCountBoundedOverManyCycles) {
  // (c), the tentpole property: ≥ 100 insert/erase cycles of 64 transient
  // keys (fresh key space every cycle, the worst case for a grow-only
  // table) on top of 32 permanent keys. Without reclaim, tombstones keep
  // every cycle's buckets claimed and the backlog grow doubles the table
  // indefinitely; with it, bucket_count oscillates inside one hysteresis
  // band forever.
  constexpr std::uint64_t kCore = 32;
  constexpr std::uint64_t kChurn = 64;
  constexpr int kCycles = 128;
  Map map(kCore + kChurn);
  const std::uint64_t band = map.bucket_count() * 4;  // one band of headroom
  round_t r = 0;
  ++r;
  for (std::uint64_t k = 0; k < kCore; ++k) {
    ASSERT_EQ(map.upsert(r, k, k), MapUpsert::kWon);
  }

  const std::uint64_t max_buckets = churn_cycles(
      map,
      [&](int c) {
        ++r;
        const std::uint64_t base = 1000 + static_cast<std::uint64_t>(c) * kChurn;
        for (std::uint64_t i = 0; i < kChurn; ++i) {
          ASSERT_EQ(map.upsert(r, base + i, i), MapUpsert::kWon);
        }
        ASSERT_EQ(map.size(), kCore + kChurn);
      },
      [&](int c) {
        ++r;
        const std::uint64_t base = 1000 + static_cast<std::uint64_t>(c) * kChurn;
        for (std::uint64_t i = 0; i < kChurn; ++i) {
          ASSERT_EQ(map.erase(r, base + i), MapUpsert::kWon);
        }
        ASSERT_EQ(map.size(), kCore);
      },
      kChurn, kCycles);

  EXPECT_LE(max_buckets, band);
  // The permanent keys survived every rebuild.
  for (std::uint64_t k = 0; k < kCore; ++k) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), k);
  }
}

TEST(ChurnBounded, SetBucketCountBoundedOverManyCycles) {
  constexpr std::uint64_t kCore = 32;
  constexpr std::uint64_t kChurn = 64;
  constexpr int kCycles = 128;
  ConcurrentHashSet<> set(kCore + kChurn);
  const std::uint64_t band = set.bucket_count() * 4;
  for (std::uint64_t k = 0; k < kCore; ++k) {
    ASSERT_EQ(set.insert(k), SetInsert::kInserted);
  }

  const std::uint64_t max_buckets = churn_cycles(
      set,
      [&](int c) {
        const std::uint64_t base = 1000 + static_cast<std::uint64_t>(c) * kChurn;
        for (std::uint64_t i = 0; i < kChurn; ++i) {
          ASSERT_EQ(set.insert(base + i), SetInsert::kInserted);
        }
        ASSERT_EQ(set.size(), kCore + kChurn);
      },
      [&](int c) {
        const std::uint64_t base = 1000 + static_cast<std::uint64_t>(c) * kChurn;
        for (std::uint64_t i = 0; i < kChurn; ++i) ASSERT_TRUE(set.erase(base + i));
        ASSERT_EQ(set.size(), kCore);
      },
      kChurn, kCycles);

  EXPECT_LE(max_buckets, band);
  for (std::uint64_t k = 0; k < kCore; ++k) ASSERT_TRUE(set.contains(k));
}

}  // namespace
}  // namespace crcw::ds
