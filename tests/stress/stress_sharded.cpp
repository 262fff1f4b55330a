// Raw-thread schedules for the sharded backend (label: sharded-stress).
// Like stress_serve, everything runs with batch.exec_threads == 1 so the
// slice executes serially with NO OpenMP region — TSan natively models
// the whole chain: client enqueue into a routed lane → pump drain →
// per-shard execution under the pump flag → OpFuture publish → ready().
// What's new versus the flat tier is the routed-lane layout (clients on
// different shards touch disjoint lanes) and the shared arbiter round.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/serve_session.hpp"
#include "stress_common.hpp"

namespace crcw::serve {
namespace {

[[nodiscard]] ServeConfig serial_sharded_config(int shards) {
  ServeConfig cfg;
  cfg.batch.exec_threads = 1;  // no OpenMP under TSan
  cfg.batch.max_batch = 64;
  cfg.batch.max_wait_us = 100;
  cfg.shards.count = shards;
  return cfg;
}

// Dedicated pump, clients on distinct keys that scatter over every shard.
// The audit checks the values, the per-shard op counts and the counter
// registry: every op served must be executed by exactly one shard and
// counted once, even under thread churn.
TEST(StressSharded, DedicatedPumpDistinctKeysAcrossShards) {
  const int threads = stress::thread_count();
  const int clients = threads - 1;
  const std::uint64_t per_client =
      static_cast<std::uint64_t>(stress::scaled(400, 60));
  ServeConfig cfg = serial_sharded_config(4);
  cfg.batch.counters = true;
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  ShardedServeSession session(cfg);
  std::atomic<std::uint64_t> completed{0};
  const std::uint64_t expected = static_cast<std::uint64_t>(clients) * per_client;

  stress::run_threads(threads, [&](int tid) {
    if (tid == 0) {
      while (completed.load(std::memory_order_acquire) < expected) {
        if (!session.poll()) session.flush();
      }
      return;
    }
    const auto client = static_cast<std::uint64_t>(tid);  // 1-based
    OpFuture f;
    for (std::uint64_t i = 0; i < per_client; ++i) {
      const std::uint64_t key = client * per_client + i + 1;
      session.submit(Op::upsert(key, key * 10), f);
      const Result& r = session.wait(f);
      if (!r.won || r.value != key * 10) {
        ADD_FAILURE() << "client " << client << " op " << i << " saw " << r.value;
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  });

  const BackendStats st = session.stats();
  EXPECT_EQ(st.ops_served, expected);
  std::uint64_t shard_ops = 0;
  for (int s = 0; s < st.shards; ++s) shard_ops += session.backend().shard_ops(s);
  EXPECT_EQ(shard_ops, st.ops_served);
  const obs::ContentionTotals counted = registry.totals();
  EXPECT_EQ(counted.attempts, st.ops_served);
  EXPECT_EQ(counted.rounds, st.rounds);
  for (std::uint64_t c = 1; c <= static_cast<std::uint64_t>(clients); ++c) {
    for (std::uint64_t i = 0; i < per_client; ++i) {
      const std::uint64_t key = c * per_client + i + 1;
      ASSERT_EQ(session.committed(key), key * 10) << "key " << key;
    }
  }
}

// All threads contend on a handful of keys — at least one per shard — via
// the self-pumping call() path: the pump-lock race, routed lanes, and the
// shared-arbiter same-key arbitration together.
TEST(StressSharded, CallersContendOnKeysSpanningShards) {
  const int threads = stress::thread_count();
  const std::uint64_t iterations =
      static_cast<std::uint64_t>(stress::scaled(300, 50));
  ShardedServeSession session(serial_sharded_config(4));
  // Keys 1..8 scatter over the 4 shards by mix64 — with 8 keys every
  // shard gets traffic with overwhelming probability; the audit only
  // relies on per-key value integrity, not the spread.
  constexpr std::uint64_t kKeys = 8;

  stress::run_threads(threads, [&](int tid) {
    const auto client = static_cast<std::uint64_t>(tid);
    for (std::uint64_t i = 0; i < iterations; ++i) {
      const std::uint64_t key = 1 + (client + i) % kKeys;
      const Result r = session.call(Op::upsert(key, key * 1'000'000 + i));
      // Winner or loser, the observed value is some client's live offer
      // for THIS key — a cross-shard mixup would break the key prefix.
      if (r.value / 1'000'000 != key || r.value % 1'000'000 >= iterations) {
        ADD_FAILURE() << "key " << key << " saw torn/foreign value " << r.value;
      }
    }
  });

  EXPECT_EQ(session.backend().ops_served(),
            static_cast<std::uint64_t>(threads) * iterations);
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    ASSERT_TRUE(session.committed(key).has_value());
    EXPECT_EQ(*session.committed(key) / 1'000'000, key);
  }
}

// Per-thread ClientSessions under a dedicated pump: every client keeps
// read-your-writes on its own key while neighbours churn the other keys
// of the same shards.
TEST(StressSharded, ClientSessionsKeepReadYourWrites) {
  const int threads = stress::thread_count();
  const int clients = threads - 1;
  const std::uint64_t rounds_per_client =
      static_cast<std::uint64_t>(stress::scaled(150, 30));
  ShardedServeSession session(serial_sharded_config(4));
  std::atomic<bool> stop{false};
  std::atomic<int> done_clients{0};

  stress::run_threads(threads, [&](int tid) {
    if (tid == 0) {
      while (!stop.load(std::memory_order_acquire)) {
        if (!session.poll()) session.flush();
      }
      session.flush();
      return;
    }
    ClientSession<ShardedServeSession> client(session);
    const auto me = static_cast<std::uint64_t>(tid);
    for (std::uint64_t i = 0; i < rounds_per_client; ++i) {
      const std::uint64_t key = me;  // own key; different shards per client
      const Result w = client.call(Op::upsert(key, i + 1));
      if (!w.round) ADD_FAILURE() << "write without a round";
      const Result r = client.call(Op::lookup(key));
      // RYW: the lookup ran strictly after this client's write round, so
      // it sees the client's own value (nobody else writes this key).
      if (!r.won || r.value != i + 1) {
        ADD_FAILURE() << "client " << me << " lost its own write at i=" << i
                      << ": saw " << r.value;
      }
    }
    if (done_clients.fetch_add(1, std::memory_order_acq_rel) + 1 == clients) {
      stop.store(true, std::memory_order_release);
    }
  });
}

}  // namespace
}  // namespace crcw::serve
