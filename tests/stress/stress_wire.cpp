// Raw-thread schedule for rounds run on wire handler threads (label:
// wire-stress). Like the other serve stress tiers it pins
// batch.exec_threads == 1, so no OpenMP region runs and TSan sees the
// whole chain: client frames → handler submit → a forced batch under the
// pump lock → OpFuture publish → reply. Four pipelining connections, one
// in-process caller and the background pump all race for the pump lock.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "stress_common.hpp"

namespace crcw::serve {
namespace {

constexpr int kConnections = 4;
constexpr std::uint64_t kOwnKeys = 32;    // per client, single writer
constexpr std::uint64_t kSharedKeys = 8;  // every client upserts these
constexpr std::uint64_t kValueBase = 1'000'000;

[[nodiscard]] std::uint64_t own_key(int client, std::uint64_t k) {
  return (static_cast<std::uint64_t>(client) + 1) * 1000 + k;
}

TEST(StressWire, HandlersRaceThePumpAndAnInProcessCaller) {
  const int windows = stress::scaled(40, 16);
  constexpr std::size_t kWindow = 64;
  const auto calls = static_cast<std::uint64_t>(stress::scaled(400, 120));
  ServeConfig cfg;
  cfg.batch.exec_threads = 1;  // no OpenMP under TSan
  cfg.batch.max_batch = 64;
  cfg.batch.max_wait_us = 100;
  cfg.shards.count = 4;
  ShardedServeSession session(cfg);
  WireServer server(session, WireConfig{});
  server.start();
  // Last value each client wrote to each of its own keys.
  std::vector<std::vector<std::uint64_t>> latest(
      kConnections + 1, std::vector<std::uint64_t>(kOwnKeys, 0));

  stress::run_threads(kConnections + 1, [&](int tid) {
    std::vector<std::uint64_t>& mine = latest[static_cast<std::size_t>(tid)];
    if (tid == kConnections) {
      // In-process: call() help-pumps through the trigger-gated path.
      ClientSession<ShardedServeSession> client(session);
      for (std::uint64_t i = 0; i < calls; ++i) {
        const std::uint64_t k = i % kOwnKeys;
        const Result w = client.call(Op::upsert(own_key(tid, k), i + 1));
        if (!w.won) ADD_FAILURE() << "in-process upsert lost a single-writer key";
        mine[k] = i + 1;
        const Result r = client.call(Op::lookup(own_key(tid, k)));
        if (!r.won || r.value != i + 1) {
          ADD_FAILURE() << "in-process lookup saw " << r.value << ", wrote " << i + 1;
        }
      }
      return;
    }
    WireClient client("127.0.0.1", server.port());
    std::uint64_t seq = 0;
    for (int w = 0; w < windows; ++w) {
      const std::vector<std::uint64_t> before = mine;  // RYW floor for this window
      std::vector<Op> ops;
      for (std::size_t i = 0; i < kWindow; ++i, ++seq) {
        // Even slots write each own key once per window; odd slots look
        // one up or write a shared key.
        const std::uint64_t k = (i / 2 + static_cast<std::size_t>(w)) % kOwnKeys;
        if (i % 2 == 0) {
          ops.push_back(Op::upsert(own_key(tid, k), seq + 1));
          mine[k] = seq + 1;
        } else if (i % 4 == 1) {
          ops.push_back(Op::lookup(own_key(tid, k)));
        } else {
          const std::uint64_t shared = 1 + (seq / 4) % kSharedKeys;
          ops.push_back(Op::upsert(shared, shared * kValueBase + seq));
        }
      }
      const std::vector<wire::Response> resp = client.pipeline(ops, kWindow);
      if (resp.size() != ops.size()) {
        ADD_FAILURE() << "pipeline returned " << resp.size() << " of " << ops.size();
        return;
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const std::uint64_t key = ops[i].key;
        if (ops[i].kind == OpKind::kLookup) {
          // Single writer: the lookup sees at least this client's writes
          // of earlier windows (values grow with seq).
          const std::uint64_t floor = before[key % 1000];
          if (floor != 0 && (!resp[i].won || resp[i].value < floor)) {
            ADD_FAILURE() << "lookup of key " << key << " saw " << resp[i].value
                          << " below this client's write " << floor;
          }
        } else if (key <= kSharedKeys && resp[i].value / kValueBase != key) {
          ADD_FAILURE() << "shared key " << key << " saw foreign value " << resp[i].value;
        } else if (key > kSharedKeys && !resp[i].won) {
          ADD_FAILURE() << "upsert lost a single-writer key " << key;
        }
      }
    }
  });

  server.stop();
  session.stop_pump();
  for (int c = 0; c <= kConnections; ++c) {
    for (std::uint64_t k = 0; k < kOwnKeys; ++k) {
      const std::uint64_t want = latest[static_cast<std::size_t>(c)][k];
      if (want != 0) {
        EXPECT_EQ(session.committed(own_key(c, k)), want);
      }
    }
  }
  for (std::uint64_t key = 1; key <= kSharedKeys; ++key) {
    ASSERT_TRUE(session.committed(key).has_value());
    EXPECT_EQ(*session.committed(key) / kValueBase, key);
  }
}

}  // namespace
}  // namespace crcw::serve
