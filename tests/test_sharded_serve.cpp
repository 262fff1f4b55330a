// ShardedScheduler behind BasicServeSession: routing determinism, the
// one-logical-round-across-shards guarantee, shard-local batching (each
// shard executes exactly its own keys' ops), per-shard grow/reclaim, and
// read-your-writes through ClientSession.
#include "serve/serve_session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ds/hash_common.hpp"

namespace crcw::serve {
namespace {

[[nodiscard]] ServeConfig sharded_config(int shards) {
  return ServeConfig{}.with_shards(shards);
}

/// First key (≥ `from`) routed to `shard` — the tests pick keys per shard.
[[nodiscard]] std::uint64_t key_in_shard(const ShardedScheduler& sched, int shard,
                                         std::uint64_t from = 1) {
  for (std::uint64_t k = from;; ++k) {
    if (sched.shard_of(k) == shard) return k;
  }
}

TEST(ShardedServe, RoutingIsDeterministicAndInRange) {
  ShardedServeSession session(sharded_config(8));
  const auto& backend = session.backend();
  ASSERT_EQ(backend.shard_count(), 8);
  for (std::uint64_t k = 1; k < 2000; ++k) {
    const int s = backend.shard_of(k);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
    EXPECT_EQ(s, backend.shard_of(k));  // stable
    // shard choice uses the HIGH mix bits, decorrelated from bucket probes
    EXPECT_EQ(static_cast<std::uint64_t>(s), (ds::mix64(k) >> 32) & 7u);
  }
}

TEST(ShardedServe, ShardCountRoundsUpToPowerOfTwo) {
  ShardedServeSession session(sharded_config(3));
  EXPECT_EQ(session.backend().shard_count(), 4);
  EXPECT_EQ(session.config().shards.count, 4);
}

TEST(ShardedServe, OneLogicalRoundAcrossShards) {
  // One drain, ops spread over every shard: they all execute in the SAME
  // logical round (one arbiter round spans the shards atomically).
  ServeConfig cfg = sharded_config(4);
  cfg.batch.max_wait_us = 1'000'000;
  ShardedServeSession session(cfg);

  constexpr std::uint64_t kOps = 64;
  std::vector<OpFuture> futures(kOps);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    session.submit(Op::upsert(i + 1, i), futures[i]);
  }
  session.flush();

  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(futures[i].ready()) << "op " << i;
    EXPECT_TRUE(futures[i].result().won);
    EXPECT_EQ(futures[i].result().round, 1u) << "op " << i;
  }
  EXPECT_EQ(session.backend().round(), 1u);
  EXPECT_EQ(session.backend().ops_served(), kOps);
}

TEST(ShardedServe, LookupsNeverSeeOwnRoundOnAnyShard) {
  // The cross-shard round boundary: a lookup and the first write of its
  // key in the same round must miss regardless of which shards they and
  // the round's other ops land on.
  ShardedServeSession session(sharded_config(4));
  OpFuture looks[4], writes[4];
  const auto& backend = session.backend();
  for (int s = 0; s < 4; ++s) {
    const std::uint64_t key = key_in_shard(backend, s);
    session.submit(Op::lookup(key), looks[s]);
    session.submit(Op::upsert(key, 100 + static_cast<std::uint64_t>(s)), writes[s]);
  }
  session.flush();
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(looks[s].ready());
    ASSERT_TRUE(writes[s].ready());
    EXPECT_EQ(looks[s].result().round, writes[s].result().round);
    EXPECT_FALSE(looks[s].result().won) << "shard " << s;
    EXPECT_TRUE(writes[s].result().won) << "shard " << s;
  }
}

TEST(ShardedServe, RoutedSubmitsAreShardLocal) {
  ServeConfig cfg = sharded_config(4).with_counters(true);
  ShardedServeSession session(cfg);

  constexpr std::uint64_t kOps = 512;
  std::vector<OpFuture> futures(kOps);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    session.submit(Op::upsert(i + 1, i), futures[i]);
  }
  session.flush();

  const BackendStats st = session.stats();
  EXPECT_EQ(st.shards, 4);
  EXPECT_EQ(st.keys, kOps);

  // session.submit routes every op: every shard executed exactly the ops
  // of its own keys.
  for (int s = 0; s < 4; ++s) {
    std::uint64_t expect = 0;
    for (std::uint64_t k = 1; k <= kOps; ++k) {
      if (session.backend().shard_of(k) == s) ++expect;
    }
    EXPECT_EQ(session.backend().shard_ops(s), expect) << "shard " << s;
  }
}

TEST(ShardedServe, PerShardGrowOnlyTouchesTheLoadedShard) {
  ServeConfig cfg = sharded_config(2);
  cfg.table.expected_keys = 8;  // tiny per-shard start
  cfg.batch.max_wait_us = 1'000'000;
  ShardedServeSession session(cfg);
  const auto& backend = session.backend();
  const std::uint64_t before0 = backend.shard_table(0).bucket_count();
  const std::uint64_t before1 = backend.shard_table(1).bucket_count();

  // One big single-shard batch: every key targets shard 0.
  std::vector<OpFuture> futures(600);
  std::uint64_t k = 1;
  for (auto& f : futures) {
    k = key_in_shard(backend, 0, k + 1);
    session.submit(Op::upsert(k, k), f);
  }
  session.flush();

  EXPECT_GT(backend.shard_table(0).bucket_count(), before0);
  EXPECT_EQ(backend.shard_table(1).bucket_count(), before1);  // untouched
  for (const OpFuture& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.result().won);
  }
}

TEST(ShardedServe, PerShardReclaimDropsTombstonesAtBatchClose) {
  ServeConfig cfg = sharded_config(2);
  cfg.batch.max_wait_us = 1'000'000;
  ShardedServeSession session(cfg);
  const auto& backend = session.backend();

  // Fill shard 0, then erase everything — the erase batch's close must
  // reclaim the tombstones of shard 0 without shard 1's involvement.
  constexpr int kKeys = 256;
  std::vector<std::uint64_t> keys;
  std::uint64_t k = 1;
  for (int i = 0; i < kKeys; ++i) {
    k = key_in_shard(backend, 0, k + 1);
    keys.push_back(k);
  }
  std::vector<OpFuture> futures(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    session.submit(Op::upsert(keys[i], 1), futures[i]);
  }
  session.flush();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    session.submit(Op::erase(keys[i]), futures[i]);
  }
  session.flush();

  EXPECT_EQ(backend.shard_table(0).size(), 0u);
  EXPECT_EQ(backend.shard_table(0).tombstones(), 0u)
      << "batch close must have reclaimed the erased shard";
  for (const OpFuture& f : futures) EXPECT_TRUE(f.result().won);
}

TEST(ShardedServe, ClientSessionReadsItsOwnWritesOnEveryShard) {
  ShardedServeSession session(sharded_config(4));
  ClientSession<ShardedServeSession> client(session);

  for (std::uint64_t i = 1; i <= 200; ++i) {
    const Result w = client.call(Op::upsert(i, i * 10));
    ASSERT_TRUE(w.won);
    const int shard = session.backend().shard_of(i);
    EXPECT_GE(client.last_write_round(shard), w.round);
    const Result r = client.call(Op::lookup(i));
    ASSERT_TRUE(r.won) << "key " << i;
    EXPECT_EQ(r.value, i * 10);
    EXPECT_GT(r.round, w.round);  // strictly later round ⇒ write visible
  }
  // The sync path never needs the retry loop — the guarantee comes from
  // the batch lifecycle; the tracker just checks it.
  EXPECT_EQ(client.stale_retries(), 0u);
}

TEST(ShardedServe, SingleShardDegeneratesToFlatBehavior) {
  ShardedServeSession session(sharded_config(1));
  EXPECT_EQ(session.backend().shard_count(), 1);
  EXPECT_EQ(session.backend().shard_of(0xdeadbeef), 0);
  ASSERT_TRUE(session.call(Op::upsert(5, 50)).won);
  EXPECT_EQ(session.call(Op::lookup(5)).value, 50u);
  EXPECT_EQ(session.backend().shard_ops(0), 2u);  // every op ran on the one shard
}

}  // namespace
}  // namespace crcw::serve
