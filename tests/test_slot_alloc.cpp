// SlotAllocator — chunked per-lane slot grants and the round-end
// compaction that squeezes out the unused chunk tails. The invariant every
// test drives at: after compact(), data[0, dense) holds exactly the
// elements granted this round — none lost, none duplicated — regardless of
// which lanes granted how much.
#include "core/slot_alloc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace crcw {
namespace {

TEST(SlotAllocator, SingleLaneGrantsAreDense) {
  SlotAllocator slots(1, /*chunk=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(slots.grant(0), i);
  }
  EXPECT_EQ(slots.grants(), 20u);
  // 20 grants at chunk 8 = 3 shared RMWs, not 20.
  EXPECT_EQ(slots.refills(), 3u);
  EXPECT_EQ(slots.high_water(), 24u);
}

TEST(SlotAllocator, RefillsAreGrantsOverChunkPerLane) {
  SlotAllocator slots(2, /*chunk=*/4);
  for (int i = 0; i < 9; ++i) (void)slots.grant(0);  // ceil(9/4)  = 3
  for (int i = 0; i < 4; ++i) (void)slots.grant(1);  // ceil(4/4)  = 1
  EXPECT_EQ(slots.grants(), 13u);
  EXPECT_EQ(slots.refills(), 4u);
}

TEST(SlotAllocator, CapacityCoversWorstCaseHoles) {
  SlotAllocator slots(4, /*chunk=*/16);
  EXPECT_EQ(slots.slack(), 64u);
  EXPECT_EQ(slots.capacity_for(100), 164u);
  // high_water never exceeds capacity_for(G) for G grants: every refill
  // claims one chunk and a lane holds at most one partial chunk.
  std::vector<int> dummy(static_cast<std::size_t>(slots.capacity_for(10)));
  for (int i = 0; i < 10; ++i) (void)slots.grant(i % 4);
  EXPECT_LE(slots.high_water(), slots.capacity_for(10));
}

TEST(SlotAllocator, EmptyRoundCompactsToZero) {
  SlotAllocator slots(3);
  std::vector<int> data(static_cast<std::size_t>(slots.capacity_for(0)));
  EXPECT_EQ(slots.compact(data.data()), 0u);
  EXPECT_EQ(slots.high_water(), 0u);
}

// Drives lanes serially into a known hole pattern and checks the compacted
// prefix is a permutation of the granted values.
void check_compaction(std::size_t lanes, std::uint64_t chunk,
                      const std::vector<int>& grants_per_lane) {
  SlotAllocator slots(static_cast<int>(lanes), chunk);
  std::uint64_t total = 0;
  for (const int g : grants_per_lane) total += static_cast<std::uint64_t>(g);
  std::vector<std::uint64_t> data(static_cast<std::size_t>(slots.capacity_for(total)),
                                  static_cast<std::uint64_t>(-1));

  // Interleave grants across lanes so chunks alternate ownership.
  std::uint64_t value = 0;
  auto remaining = grants_per_lane;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (remaining[l] > 0) {
        --remaining[l];
        any = true;
        data[slots.grant(static_cast<int>(l))] = value++;
      }
    }
  }

  const std::uint64_t dense = slots.compact(data.data());
  ASSERT_EQ(dense, total);
  std::vector<std::uint64_t> prefix(data.begin(),
                                    data.begin() + static_cast<std::ptrdiff_t>(dense));
  std::sort(prefix.begin(), prefix.end());
  for (std::uint64_t i = 0; i < dense; ++i) {
    ASSERT_EQ(prefix[static_cast<std::size_t>(i)], i) << "slot lost or duplicated";
  }
  // Next round starts from a clean cursor.
  EXPECT_EQ(slots.high_water(), 0u);
}

TEST(SlotAllocator, CompactionFillsPartialChunks) {
  check_compaction(2, 4, {5, 3});    // both lanes end mid-chunk
  check_compaction(3, 4, {4, 0, 1}); // idle lane, exact-chunk lane
  check_compaction(4, 8, {1, 1, 1, 1});  // dense << one chunk each
  check_compaction(2, 4, {8, 8});    // no holes at all
  check_compaction(1, 16, {5});      // single lane, single partial chunk
}

TEST(SlotAllocator, CompactionAcrossRoundsReusesSlots) {
  SlotAllocator slots(2, 4);
  std::vector<std::uint64_t> data(static_cast<std::size_t>(slots.capacity_for(6)));
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t v = 0; v < 6; ++v) {
      data[slots.grant(static_cast<int>(v & 1))] = v;
    }
    ASSERT_EQ(slots.compact(data.data()), 6u);
    std::vector<std::uint64_t> prefix(data.begin(), data.begin() + 6);
    std::sort(prefix.begin(), prefix.end());
    for (std::uint64_t v = 0; v < 6; ++v) ASSERT_EQ(prefix[v], v);
  }
  EXPECT_EQ(slots.grants(), 30u);  // lifetime counters survive compaction
}

TEST(SlotAllocator, ResetRoundAbandonsGrants) {
  SlotAllocator slots(1, 8);
  (void)slots.grant(0);
  (void)slots.grant(0);
  slots.reset_round();
  EXPECT_EQ(slots.high_water(), 0u);
  EXPECT_EQ(slots.grant(0), 0u);  // fresh cursor
}

// The torture the allocator exists for: T threads grant concurrently
// (std::barrier between rounds), each stamps its slots with globally
// unique values, and the compacted prefix must be exactly the granted set
// — the property the frontier kernels rely on for correctness.
TEST(SlotAllocatorTorture, NoSlotLostOrDuplicated) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr std::uint64_t kMaxPerThread = 300;
  SlotAllocator slots(kThreads, /*chunk=*/16);
  std::vector<std::uint64_t> data(
      static_cast<std::size_t>(slots.capacity_for(kThreads * kMaxPerThread)));

  std::vector<std::uint64_t> counts(kThreads);
  std::barrier sync(kThreads, [&]() noexcept {});
  std::barrier round_done(kThreads);

  auto worker = [&](int lane) {
    util::SplitMix64 rng(0x5107a110cull + static_cast<std::uint64_t>(lane));
    for (int r = 0; r < kRounds; ++r) {
      const std::uint64_t mine = rng.next() % (kMaxPerThread + 1);
      counts[static_cast<std::size_t>(lane)] = mine;
      for (std::uint64_t i = 0; i < mine; ++i) {
        // Globally unique stamp: (lane, i) encoded.
        data[slots.grant(lane)] = static_cast<std::uint64_t>(lane) * kMaxPerThread + i;
      }
      sync.arrive_and_wait();  // all grants for this round done
      if (lane == 0) {
        std::uint64_t total = 0;
        for (const auto c : counts) total += c;
        const std::uint64_t dense = slots.compact(data.data());
        ASSERT_EQ(dense, total);
        std::vector<std::uint64_t> prefix(
            data.begin(), data.begin() + static_cast<std::ptrdiff_t>(dense));
        std::sort(prefix.begin(), prefix.end());
        ASSERT_EQ(std::adjacent_find(prefix.begin(), prefix.end()), prefix.end())
            << "duplicated slot";
        std::uint64_t expected_i = 0;
        int expected_lane = 0;
        for (const auto v : prefix) {
          while (expected_lane < kThreads &&
                 expected_i >= counts[static_cast<std::size_t>(expected_lane)]) {
            ++expected_lane;
            expected_i = 0;
          }
          ASSERT_LT(expected_lane, kThreads);
          ASSERT_EQ(v, static_cast<std::uint64_t>(expected_lane) * kMaxPerThread +
                           expected_i)
              << "lost slot";
          ++expected_i;
        }
      }
      round_done.arrive_and_wait();  // compaction visible to everyone
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace crcw
