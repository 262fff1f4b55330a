// Raw-thread schedules for src/snap (label: snap-stress): consistent scans
// racing live writers, checkpoints racing erase-heavy churn (reclaim
// pressure parked by held cuts), and cut mint/release storms. Everything
// runs with exec_threads == 1 — no OpenMP region — so TSan natively checks
// the claimed chain: mint_cut's pump-park (atomic_flag acquire) → the
// seqlock-shaped LiveTag read in for_each_at → release_cut → the batch
// epilog's cuts_held() gate on grow/reclaim.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/serve_session.hpp"
#include "snap/checkpointer.hpp"
#include "stress_common.hpp"

namespace crcw::snap {
namespace {

using serve::Op;
using serve::OpFuture;
using serve::Result;
using serve::ServeConfig;
using serve::ServeSession;

[[nodiscard]] ServeConfig serial_config() {
  ServeConfig cfg;
  cfg.batch.exec_threads = 1;  // no OpenMP under TSan
  cfg.batch.max_batch = 64;
  cfg.batch.max_wait_us = 100;
  return cfg;
}

[[nodiscard]] std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "crcw_stress_snap_" + name;
  mkdir(dir.c_str(), 0755);
  return dir;
}

// Scanners fold digests while writers mutate through the self-pumping
// call() path. Every scanned entry must honour the cut predicate (round
// <= cut round) and the offer format — a torn LiveTag/value pair would
// break one or the other. Post-join, a quiesced scan sees every key.
TEST(StressSnap, ScansRaceWriters) {
  const int threads = stress::thread_count();
  const int writers = threads - 2 < 1 ? 1 : threads - 2;
  const std::uint64_t per_writer =
      static_cast<std::uint64_t>(stress::scaled(300, 50));
  constexpr std::uint64_t kKeys = 64;
  ServeSession session(serial_config());
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(session.call(Op::upsert(k, k * 1'000'000)).won);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scans{0};

  stress::run_threads(writers + 2, [&](int tid) {
    if (tid <= 1) {  // two concurrent scanners
      while (!done.load(std::memory_order_acquire)) {
        auto& backend = session.backend();
        const SnapshotCut cut = backend.mint_cut();
        backend.scan_shard_at(
            0, cut.round, [&](std::uint64_t k, std::uint64_t v, round_t r) {
              if (k < 1 || k > kKeys) ADD_FAILURE() << "phantom key " << k;
              if (r > cut.round) {
                ADD_FAILURE() << "entry round " << r << " past cut " << cut.round;
              }
              if (v / 1'000'000 != k) ADD_FAILURE() << "torn value " << v;
            });
        backend.release_cut();
        scans.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    const auto writer = static_cast<std::uint64_t>(tid);
    for (std::uint64_t i = 0; i < per_writer; ++i) {
      const std::uint64_t key = 1 + (writer * 7 + i) % kKeys;
      const Result r = session.call(Op::upsert(key, key * 1'000'000 + i));
      if (r.value / 1'000'000 != key) {
        ADD_FAILURE() << "writer observed torn value " << r.value;
      }
      if (i + 1 == per_writer) done.store(true, std::memory_order_release);
    }
  });

  EXPECT_GT(scans.load(), 0u);
  EXPECT_EQ(session.backend().cuts_held(), 0u);
  const ScanDigest final_scan = scan_digest(session.backend());
  EXPECT_EQ(final_scan.entries, kKeys) << "quiesced scan must see every key";
}

// Checkpoints race erase-heavy churn: the eager reclaim watermark keeps
// asking for tombstone sweeps, held cuts keep parking them, and every
// published file must still restore cleanly into a fresh backend. This is
// the grow/reclaim-vs-scan lifetime race the cuts_held() gate exists for.
TEST(StressSnap, CheckpointsRaceChurnAndEveryFileRestores) {
  const std::string dir = temp_dir("churn");
  ServeConfig cfg = serial_config();
  cfg.table.reclaim_ratio = 0.05;  // reclaim wants to run constantly
  const int threads = stress::thread_count();
  const int writers = threads - 1;
  const std::uint64_t per_writer =
      static_cast<std::uint64_t>(stress::scaled(400, 60));
  constexpr std::uint64_t kKeys = 128;
  ServeSession session(cfg);
  std::atomic<bool> done{false};
  std::string last_path;
  std::uint64_t checkpoints = 0;

  stress::run_threads(writers + 1, [&](int tid) {
    if (tid == 0) {
      Checkpointer<serve::ShardedScheduler> ckpt(session.backend(), dir);
      while (!done.load(std::memory_order_acquire)) {
        std::string err;
        const auto cut = ckpt.begin(&err);
        if (!cut.has_value()) {
          ADD_FAILURE() << "begin failed: " << err;
          break;
        }
        if (!ckpt.wait(&err)) {
          ADD_FAILURE() << "checkpoint failed: " << err;
          break;
        }
        last_path = ckpt.last_path();
        ++checkpoints;
      }
      return;
    }
    const auto writer = static_cast<std::uint64_t>(tid);
    for (std::uint64_t i = 0; i < per_writer; ++i) {
      const std::uint64_t key = 1 + (writer * 13 + i) % kKeys;
      if (i % 2 == 0) {
        (void)session.call(Op::upsert(key, key * 1000 + writer));
      } else {
        (void)session.call(Op::erase(key));  // tombstone pressure
      }
      if (i + 1 == per_writer && tid == 1) {
        done.store(true, std::memory_order_release);
      }
    }
  });

  ASSERT_GT(checkpoints, 0u);
  EXPECT_EQ(session.backend().cuts_held(), 0u);
  ServeSession fresh(cfg);
  std::string err;
  ASSERT_TRUE(restore(fresh.backend(), last_path, &err)) << err;
  // Restored entries honour the file's own cut; spot-check the format.
  const ScanDigest restored = scan_digest(fresh.backend());
  EXPECT_LE(restored.entries, kKeys);
}

// Cut mint/release storm against writers forcing table growth: a held cut
// parks grow, so a round can see kFull and refuse the write (won=false, no
// retry path inside the round) — but every release must re-arm the prolog
// grow, so a client retrying across rounds always gets through. A lost
// release would park grow forever and exhaust the retry budget.
TEST(StressSnap, CutStormNeverWedgesGrow) {
  const int threads = stress::thread_count();
  const int writers = threads - 1;
  const std::uint64_t per_writer =
      static_cast<std::uint64_t>(stress::scaled(500, 80));
  ServeConfig cfg = serial_config();
  cfg.table.expected_keys = 64;  // undersized: inserts demand growth
  ServeSession session(cfg);
  std::atomic<bool> done{false};

  stress::run_threads(writers + 1, [&](int tid) {
    if (tid == 0) {
      while (!done.load(std::memory_order_acquire)) {
        {
          HeldCut<serve::ShardedScheduler> held(session.backend());
          // Overlapping second cut: cuts_held flaps 2 → 1 → 0.
          HeldCut<serve::ShardedScheduler> again(session.backend());
        }
        std::this_thread::yield();  // a real grow window between storms
      }
      return;
    }
    const auto writer = static_cast<std::uint64_t>(tid);
    for (std::uint64_t i = 0; i < per_writer; ++i) {
      const std::uint64_t key = writer * per_writer + i + 1;  // all distinct
      Result r;
      int attempts = 0;
      do {  // kFull under a held cut loses the round; retry in a later one
        r = session.call(Op::upsert(key, key));
        if (!r.won) std::this_thread::yield();
      } while (!r.won && ++attempts < 10'000);
      if (!r.won) ADD_FAILURE() << "upsert wedged, key " << key;
      if (i + 1 == per_writer && tid == 1) {
        done.store(true, std::memory_order_release);
      }
    }
  });

  EXPECT_EQ(session.backend().cuts_held(), 0u);
  const ScanDigest final_scan = scan_digest(session.backend());
  EXPECT_EQ(final_scan.entries,
            static_cast<std::uint64_t>(writers) * per_writer);
}

}  // namespace
}  // namespace crcw::snap
