// src/serve: admission batching onto CRCW rounds — batch boundaries,
// same-key collapse to one winner per round, committed-read visibility,
// deadline-triggered flush, tombstone erase, and the metrics surface.
// ServeSession defaults to the one-table shape; the cases whose
// expectations do not depend on the shard count run at 1 and 4 shards.
#include "serve/serve_session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ds/hash_common.hpp"

namespace crcw::serve {
namespace {

/// The shard counts the shard-independent cases run at.
constexpr int kShardCounts[] = {1, 4};

TEST(Serve, CallUpsertLookupErase) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeSession session(ServeConfig{}.with_shards(shards));
    const Result up = session.call(Op::upsert(7, 70));
    EXPECT_TRUE(up.won);  // uncontended write always wins its round
    EXPECT_EQ(up.value, 70u);

    const Result hit = session.call(Op::lookup(7));
    EXPECT_TRUE(hit.won);
    EXPECT_EQ(hit.value, 70u);
    EXPECT_GT(hit.round, up.round);  // later batch, later round

    const Result miss = session.call(Op::lookup(8));
    EXPECT_FALSE(miss.won);
    EXPECT_EQ(miss.value, 0u);

    const Result erased = session.call(Op::erase(7));
    EXPECT_TRUE(erased.won);
    EXPECT_FALSE(session.committed(7).has_value());
    const Result gone = session.call(Op::lookup(7));
    EXPECT_FALSE(gone.won);
  }
}

TEST(Serve, BatchBoundariesSliceBigDrainsIntoRounds) {
  ServeConfig cfg;
  cfg.batch.max_batch = 8;
  cfg.batch.max_wait_us = 1'000'000;  // no deadline interference
  ServeSession session(cfg);

  std::vector<OpFuture> futures(20);
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    session.submit(Op::upsert(100 + i, i), futures[i]);
  }
  session.flush();

  // One drain of 20 ops with max_batch 8 slices into rounds of 8/8/4, in
  // admission order.
  EXPECT_EQ(session.backend().round(), 3u);
  EXPECT_EQ(session.backend().batches(), 1u);
  EXPECT_EQ(session.backend().ops_served(), 20u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].ready()) << "op " << i;
    EXPECT_TRUE(futures[i].result().won);
    EXPECT_EQ(futures[i].result().round, i / 8 + 1);
  }
}

TEST(Serve, SameKeyCollapsesToOneWinnerPerRound) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeConfig cfg = ServeConfig{}.with_shards(shards);
    cfg.batch.max_batch = 1024;
    ServeSession session(cfg);

    constexpr std::size_t kContenders = 32;
    std::vector<OpFuture> futures(kContenders);
    for (std::size_t i = 0; i < kContenders; ++i) {
      session.submit(Op::upsert(42, 1000 + i), futures[i]);
    }
    session.flush();

    std::size_t winners = 0;
    std::uint64_t winner_value = 0;
    for (const OpFuture& f : futures) {
      ASSERT_TRUE(f.ready());
      EXPECT_EQ(f.result().round, 1u);  // one batch, one round
      if (f.result().won) {
        ++winners;
        winner_value = f.result().value;
      }
    }
    EXPECT_EQ(winners, 1u);
    // The wait-free loser guarantee: every loser observed the winner's
    // committed value, not its own offer.
    for (const OpFuture& f : futures) EXPECT_EQ(f.result().value, winner_value);
    EXPECT_EQ(session.committed(42), winner_value);
  }
}

TEST(Serve, OneShardRoundRunsOnOneThreadAtAnyWidth) {
  // A shard's slice runs on one thread whatever exec_threads says, so
  // same-key upserts drained into one round are won by the first one
  // submitted, and every loser reads that value.
  ServeConfig cfg = ServeConfig{}.with_shards(1).with_exec_threads(4).with_max_batch(1024);
  cfg.batch.max_wait_us = 1'000'000;
  ServeSession session(cfg);

  constexpr std::uint64_t kContenders = 64;
  std::vector<OpFuture> futures(kContenders);
  for (std::uint64_t i = 0; i < kContenders; ++i) {
    session.submit(Op::upsert(42, 1000 + i), futures[i]);
  }
  session.flush();

  for (std::uint64_t i = 0; i < kContenders; ++i) {
    ASSERT_TRUE(futures[i].ready()) << "op " << i;
    EXPECT_EQ(futures[i].result().round, 1u);
    EXPECT_EQ(futures[i].result().won, i == 0) << "op " << i;
    EXPECT_EQ(futures[i].result().value, 1000u) << "op " << i;
  }
  EXPECT_EQ(session.committed(42), 1000u);
}

TEST(Serve, CommittedReadsExcludeOwnRound) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeSession session(ServeConfig{}.with_shards(shards));

    // A lookup admitted into the same round as the first write of its key
    // must miss: lookups see rounds < r only.
    OpFuture look, write;
    session.submit(Op::lookup(5), look);
    session.submit(Op::upsert(5, 55), write);
    session.flush();
    ASSERT_TRUE(look.ready());
    ASSERT_TRUE(write.ready());
    EXPECT_EQ(look.result().round, write.result().round);
    EXPECT_FALSE(look.result().won);
    EXPECT_EQ(look.result().value, 0u);

    // The next batch's lookup runs in a later round and must hit.
    const Result later = session.call(Op::lookup(5));
    EXPECT_TRUE(later.won);
    EXPECT_EQ(later.value, 55u);
    EXPECT_GT(later.round, write.result().round);
  }
}

TEST(Serve, SizeTriggerClosesBatch) {
  ServeConfig cfg;
  cfg.batch.max_batch = 4;
  cfg.batch.max_wait_us = 1'000'000;  // deadline effectively off
  ServeSession session(cfg);

  std::vector<OpFuture> futures(4);
  session.submit(Op::upsert(1, 1), futures[0]);
  session.submit(Op::upsert(2, 2), futures[1]);
  EXPECT_FALSE(session.poll());  // 2 < max_batch and deadline far away
  session.submit(Op::upsert(3, 3), futures[2]);
  session.submit(Op::upsert(4, 4), futures[3]);
  EXPECT_TRUE(session.poll());  // size trigger
  EXPECT_EQ(session.backend().deadline_batches(), 0u);
  for (const OpFuture& f : futures) EXPECT_TRUE(f.ready());
}

TEST(Serve, DeadlineTriggerClosesTrickleBatch) {
  ServeConfig cfg;
  cfg.batch.max_batch = 1 << 20;  // size trigger unreachable
  cfg.batch.max_wait_us = 1000;
  ServeSession session(cfg);

  OpFuture f;
  session.submit(Op::upsert(9, 90), f);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(session.poll());  // the op aged past max_wait_us
  EXPECT_TRUE(f.ready());
  EXPECT_TRUE(f.result().won);
  EXPECT_EQ(session.backend().deadline_batches(), 1u);

  // An unstamped trickle op (latency sampling on, and not its turn) still
  // closes its batch on the deadline: the lane's oldest-enqueue time falls
  // back to a clock read of its own. The sampling tick is per thread and
  // starts at 0, so a fresh client thread stamps its first op only.
  cfg.batch.latency_sample_shift = 3;
  OpFuture first, trickle;  // outlive `sampled`, whose destructor flushes
  ServeSession sampled(cfg);
  std::thread client([&] {
    sampled.submit(Op::upsert(8, 80), first);
    sampled.flush();
    sampled.submit(Op::upsert(9, 90), trickle);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(sampled.poll());  // the unstamped op aged past max_wait_us
    EXPECT_TRUE(trickle.ready());
    EXPECT_TRUE(trickle.result().won);
  });
  client.join();
  EXPECT_EQ(sampled.backend().deadline_batches(), 1u);  // the flush was forced
  EXPECT_EQ(sampled.metrics().enqueue_to_admit().count(), 1u);  // only op 8 stamped
  EXPECT_EQ(sampled.metrics().enqueue_to_commit().count(), 1u);
}

TEST(Serve, EraseArbitratesAndTombstones) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeSession session(ServeConfig{}.with_shards(shards));
    ASSERT_TRUE(session.call(Op::upsert(3, 30)).won);

    // Erase and upsert racing in one round: exactly one wins the (key,
    // round) arbitration and its effect is what the round commits.
    OpFuture erase_f, upsert_f;
    session.submit(Op::erase(3), erase_f);
    session.submit(Op::upsert(3, 31), upsert_f);
    session.flush();
    ASSERT_TRUE(erase_f.ready());
    ASSERT_TRUE(upsert_f.ready());
    EXPECT_NE(erase_f.result().won, upsert_f.result().won);
    if (erase_f.result().won) {
      EXPECT_FALSE(session.committed(3).has_value());
      EXPECT_EQ(upsert_f.result().value, 0u);  // loser observed the tombstone
    } else {
      EXPECT_EQ(session.committed(3), 31u);
      EXPECT_EQ(erase_f.result().value, 31u);  // loser observed the upsert
    }

    // A tombstoned key revives on the next round's upsert.
    ASSERT_TRUE(session.call(Op::erase(3)).won);
    ASSERT_TRUE(session.call(Op::upsert(3, 32)).won);
    EXPECT_EQ(session.committed(3), 32u);
  }
}

TEST(Serve, SentinelKeyFailsWithoutPoisoningTheRound) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeSession session(ServeConfig{}.with_shards(shards));
    const Result bad = session.call(Op::upsert(~std::uint64_t{0}, 1));
    EXPECT_FALSE(bad.won);
    EXPECT_EQ(bad.value, 0u);
    EXPECT_TRUE(session.call(Op::upsert(1, 10)).won);  // engine still serves
  }
}

TEST(Serve, BacklogGrowAbsorbsOneBigBatch) {
  ServeConfig cfg;
  cfg.table.expected_keys = 2;  // force the reservation path
  cfg.batch.max_batch = 4096;
  ServeSession session(cfg);
  const std::uint64_t before = session.backend().shard_table(0).bucket_count();

  constexpr std::uint64_t kKeys = 2000;
  std::vector<OpFuture> futures(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    session.submit(Op::upsert(i + 1, i), futures[i]);
  }
  session.flush();

  EXPECT_GT(session.backend().shard_table(0).bucket_count(), before);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(futures[i].ready());
    EXPECT_TRUE(futures[i].result().won);
    ASSERT_EQ(session.committed(i + 1), i) << "key " << i + 1;
  }
}

TEST(Serve, StringKeysRideTheUint64Space) {
  ServeSession session;
  const std::uint64_t alice = ds::string_key("user:alice");
  const std::uint64_t bob = ds::string_key("user:bob");
  ASSERT_NE(alice, bob);
  ASSERT_TRUE(session.call(Op::upsert(alice, 1)).won);
  ASSERT_TRUE(session.call(Op::upsert(bob, 2)).won);
  EXPECT_EQ(session.call(Op::lookup(alice)).value, 1u);
  EXPECT_EQ(session.call(Op::lookup(bob)).value, 2u);
}

TEST(Serve, BackgroundPumpServesConcurrentClients) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeConfig cfg = ServeConfig{}.with_shards(shards);
    cfg.batch.max_batch = 64;
    cfg.batch.max_wait_us = 200;
    ServeSession session(cfg);
    session.start_pump();

    constexpr int kClients = 4;
    constexpr std::uint64_t kOpsPerClient = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        OpFuture f;
        for (std::uint64_t i = 0; i < kOpsPerClient; ++i) {
          const std::uint64_t key = i + 1;  // all clients contend on all keys
          session.submit(Op::upsert(key, static_cast<std::uint64_t>(c) * 1000 + i), f);
          const Result& r = session.wait(f);
          // Every client observes *some* round-committed value for the key.
          if (r.value % 1000 != i) failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    session.stop_pump();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(session.backend().ops_served(), kClients * kOpsPerClient);
    for (std::uint64_t key = 1; key <= kOpsPerClient; ++key) {
      ASSERT_TRUE(session.committed(key).has_value()) << "key " << key;
    }
  }
}

TEST(Serve, MetricsHistogramsAndCountersFlow) {
  // At latency_sample_shift k only every 2^k-th op per client thread is
  // stamped, from the thread's first op on, and both histograms see
  // exactly the stamped ops: ⌈N/2^k⌉ of N. The round engine tallies them
  // per round and folds the tallies in at the round's epilog, so a stamped
  // admission reject counts once, and so does every op of a drain larger
  // than max_batch, whose batch runs as several rounds. The client runs on
  // a fresh thread because the sampling tick is a per-thread counter that
  // starts at 0.
  struct Case {
    const char* name;
    std::uint64_t max_batch;
    bool reject_last;      // the last op uses the sentinel key
    std::uint64_t rounds;  // one winner per round: all writes hit key 1
  };
  constexpr std::uint64_t kOps = 17;
  constexpr Case kCases[] = {
      {"one round", 4096, false, 1},
      {"admission reject", 4096, true, 1},
      {"sliced drain", 4, false, (kOps + 3) / 4},
  };
  for (const Case& c : kCases) {
    for (const int shards : kShardCounts) {
      for (const int shift : {0, 3}) {
        SCOPED_TRACE(testing::Message() << c.name << " shards=" << shards << " k=" << shift);
        obs::MetricsRegistry local;
        {
          const obs::ScopedRegistry scoped(local);
          ServeConfig cfg = ServeConfig{}.with_shards(shards).with_max_batch(c.max_batch);
          cfg.batch.counters = true;
          cfg.batch.latency_sample_shift = shift;
          ServeSession session(cfg);

          std::vector<OpFuture> futures(kOps);
          std::thread client([&] {
            for (std::uint64_t i = 0; i < kOps; ++i) {
              // Half contend on key 1, half are lookups.
              Op op = i % 2 == 0 ? Op::upsert(1, i) : Op::lookup(1);
              if (c.reject_last && i + 1 == kOps) op = Op::upsert(~std::uint64_t{0}, i);
              session.submit(op, futures[i]);
            }
          });
          client.join();
          session.flush();

          const std::uint64_t stamped = ((kOps - 1) >> shift) + 1;
          const ServeMetrics& m = session.metrics();
          EXPECT_EQ(m.enqueue_to_admit().count(), stamped);
          EXPECT_EQ(m.enqueue_to_commit().count(), stamped);
          EXPECT_GT(m.p99_enqueue_to_commit_ns(), 0u);
          ASSERT_TRUE(m.counters_enabled());
        }
        // The serve site folded into the scoped registry on destruction:
        // attempts = ops admitted, wins = write winners (one per (key,
        // round)), refills = batches closed.
        bool found = false;
        for (const auto& [name, totals] : local.snapshot()) {
          if (name != "serve") continue;
          found = true;
          EXPECT_EQ(totals.attempts, kOps);
          EXPECT_EQ(totals.wins, c.rounds);
          EXPECT_EQ(totals.refills, 1u);
          EXPECT_EQ(totals.rounds, c.rounds);
        }
        EXPECT_TRUE(found);
        // The registry total over every site counts each op, win and
        // round once, at any shard count.
        const obs::ContentionTotals all = local.totals();
        EXPECT_EQ(all.attempts, kOps);
        EXPECT_EQ(all.wins, c.rounds);
        EXPECT_EQ(all.rounds, c.rounds);
      }
    }
  }
}

TEST(Serve, NextDeadlineIsOldestEnqueuePlusMaxWait) {
  // The background pump sleeps until this deadline: 0 with nothing
  // pending, the oldest pending op's enqueue time plus max_wait_us while
  // ops wait (a later op does not move it), and 0 again once drained.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ServeSession session(ServeConfig{}.with_shards(shards).with_max_wait_us(250));
    const auto& engine = session.backend();
    EXPECT_EQ(engine.next_deadline_ns(), 0u);

    OpFuture first, second;
    const std::uint64_t before = now_ns();
    session.submit(Op::upsert(1, 10), first);
    const std::uint64_t after = now_ns();
    const std::uint64_t due = engine.next_deadline_ns();
    EXPECT_GE(due, before + 250'000);
    EXPECT_LE(due, after + 250'000);

    session.submit(Op::upsert(2, 20), second);
    EXPECT_EQ(engine.next_deadline_ns(), due);

    session.flush();
    EXPECT_TRUE(first.ready());
    EXPECT_TRUE(second.ready());
    EXPECT_EQ(engine.next_deadline_ns(), 0u);
  }
}

TEST(Serve, OldestNsClearsWhenLaneDrains) {
  // Regression: the advisory oldest_ns must read "nothing pending" once a
  // lane drains to empty. Before the fix, a drained lane kept reporting
  // its last op's timestamp until the next enqueue overwrote it, so the
  // deadline trigger could fire forever on an op that was already served.
  RequestQueue queue(/*lanes=*/2, /*lane_backlog=*/64);
  OpFuture f;
  ASSERT_TRUE(queue.try_enqueue(Op::upsert(1, 1), f, /*l=*/0));
  EXPECT_NE(queue.oldest_enqueue_ns(), 0u);

  std::vector<Record> drained;
  EXPECT_EQ(queue.drain_lane_into(0, drained), 1u);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(queue.oldest_enqueue_ns(), 0u);  // lane empty ⇒ no advisory age

  // A fresh enqueue (any lane) re-arms the advisory timestamp.
  OpFuture g;
  ASSERT_TRUE(queue.try_enqueue(Op::upsert(2, 2), g, /*l=*/1));
  EXPECT_NE(queue.oldest_enqueue_ns(), 0u);
}

TEST(Serve, ConfigValidationRejectsBadKnobs) {
  EXPECT_THROW((void)ServeConfig{}.with_max_batch(0).validated(),
               std::invalid_argument);
  EXPECT_THROW((void)ServeConfig{}.with_shards(-1).validated(),
               std::invalid_argument);
  ServeConfig bad_load;
  bad_load.table.max_load = 1.5;
  EXPECT_THROW((void)bad_load.validated(), std::invalid_argument);

  // Non-power-of-two shard counts round up rather than reject.
  const ServeConfig cfg = ServeConfig{}.with_shards(3).validated();
  EXPECT_EQ(cfg.shards.count, 4);
}

TEST(Serve, DestructorFlushesSubmittedOps) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    OpFuture f;
    {
      ServeSession session(ServeConfig{}.with_shards(shards));
      session.submit(Op::upsert(2, 20), f);
      // No poll, no flush: the destructor must publish before tearing down.
    }
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.result().won);
  }
}

}  // namespace
}  // namespace crcw::serve
