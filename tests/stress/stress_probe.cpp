// Sidecar group probing under raw std::thread + std::barrier schedules —
// the tier that must stay clean under TSan (ctest labels: stress, ds).
//
// What TSan has to bless here: writers publish control bytes with release
// stores while OTHER threads snapshot the same bytes mid-walk. Under TSan
// the snapshot is a per-byte relaxed-atomic loop (util::Group::load), so
// the tool checks exactly the synchronisation the benign-staleness proof
// uses: bytes are a filter, every hit re-verifies the claim word, empty
// and tombstone lanes are always candidates. Each schedule runs with the
// sidecar scan ON and OFF — the arbitration outcome must not notice.
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

ds::HashConfig probe_cfg(bool group) {
  ds::HashConfig cfg;
  cfg.group_probe = group;
  return cfg;
}

// All threads offer the SAME key window each round (maximal claim races on
// fingerprint-hot buckets), erase a sliding sub-window, and read mid-churn;
// the serial audit then walks both paths — contains() races the writers,
// so it is only audited at the barrier.
TEST(StressProbe, SetSharedWindowChurnGroupOnAndOff) {
  const int threads = thread_count();
  const int rounds = scaled(48, 12);
  const std::uint64_t window = scaled(512, 128);

  for (const bool group : {true, false}) {
    ds::ConcurrentHashSet<> set(window * 4, probe_cfg(group));
    std::barrier sync(threads);
    std::atomic<std::uint64_t> insert_wins{0};
    std::atomic<std::uint64_t> erase_wins{0};

    run_barrier_threads(sync, threads, [&](int tid) {
      for (int r = 0; r < rounds; ++r) {
        const std::uint64_t base = static_cast<std::uint64_t>(r) * window / 2;
        // Phase 1: racing inserts over one shared window + racing erases
        // over the window's trailing quarter. The window slides by half
        // each round, so the keys erased here get re-offered next round —
        // revive races (tombstone-bit clear, fingerprint republish) on
        // every schedule, not just claim races.
        for (std::uint64_t i = 0; i < window; ++i) {
          if (set.insert(base + i + 1) == ds::SetInsert::kInserted) {
            insert_wins.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (std::uint64_t i = 0; i < window / 4; ++i) {
          if (set.erase(base + window / 2 + i + 1)) {
            erase_wins.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Concurrent readers on keys both live and tombstoned.
        for (std::uint64_t i = 0; i < window; i += 7) (void)set.contains(base + i + 1);
        sync.arrive_and_wait();

        // Phase 2 (serial): one-winner audit, then open a watermark
        // reclaim for the team — the cooperative rebuild that rewrites the
        // sidecar, spelled out with explicit barriers (no OpenMP in the
        // TSan tier).
        if (tid == 0) {
          ASSERT_EQ(set.size(),
                    insert_wins.load(std::memory_order_relaxed) -
                        erase_wins.load(std::memory_order_relaxed))
              << "group=" << group << " round " << r;
          if (set.needs_reclaim()) set.reclaim_prepare();
        }
        sync.arrive_and_wait();

        // Phase 3 (parallel): every thread helps sweep live buckets into
        // the new array, seeding its control bytes as it goes.
        if (set.growing()) set.grow_help();
        sync.arrive_and_wait();

        // Phase 4 (serial): swap, then the rebuilt sidecar must answer.
        if (tid == 0 && set.growing()) {
          set.grow_finish();
          ASSERT_TRUE(set.contains(base + window / 4 + 1));
        }
        sync.arrive_and_wait();
      }
    });

    // Lockstep replay audit: membership equals wins minus erase-wins.
    EXPECT_EQ(set.size(), insert_wins.load() - erase_wins.load());
  }
}

// Map: upserts and erases race per (key, round) while OTHER threads walk
// the same groups; exactly one commit per key per round, with a
// cooperative grow (sidecar rebuild) injected mid-stream.
TEST(StressProbe, MapOneWinnerPerKeyRoundAcrossSidecarRebuilds) {
  const int threads = thread_count();
  const round_t rounds = scaled(120, 30);
  constexpr std::uint64_t kKeys = 48;

  for (const bool group : {true, false}) {
    ds::ConcurrentHashMap<std::uint64_t, std::uint64_t> map(kKeys, probe_cfg(group));
    std::vector<std::atomic<int>> winners(kKeys);
    std::barrier sync(threads);

    run_barrier_threads(sync, threads, [&](int tid) {
      for (round_t r = 1; r <= rounds; ++r) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          // Erase and upsert contend on the same (key, round) tag — the
          // committed op is whichever CAS landed, one winner total.
          const bool won = (k + r + static_cast<std::uint64_t>(tid)) % 5 == 0
                               ? map.erase(r, k) == ds::MapUpsert::kWon
                               : map.upsert(r, k, r * 100 + k) == ds::MapUpsert::kWon;
          if (won) winners[k].fetch_add(1, std::memory_order_relaxed);
        }
        sync.arrive_and_wait();
        if (tid == 0) {
          for (std::uint64_t k = 0; k < kKeys; ++k) {
            ASSERT_EQ(winners[k].exchange(0, std::memory_order_relaxed), 1)
                << "group=" << group << " round " << r << " key " << k;
          }
          // Rebuild the sidecar mid-stream, both directions: grow keeps
          // every bucket, reclaim drops the tombstoned ones. Single-helper
          // sweeps (serial here) — the parallel-sweep schedule is the set
          // test's job; no OpenMP in the TSan tier.
          if (r % 24 == 0) {
            map.grow_prepare();
            map.grow_help();
            map.grow_finish();
          } else if (map.needs_reclaim()) {
            map.reclaim_prepare();
            map.grow_help();
            map.grow_finish();
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
}

}  // namespace
}  // namespace crcw::stress
