// The KV wire server over loopback TCP: pipelined windows from one and
// from four connections checked against round semantics, synchronous
// calls that never wait out the batch deadline, connection churn that
// leaves no thread, stack or fd number behind, and a full table that
// answers won=false instead of wedging the pump.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "snap/cut.hpp"

namespace crcw::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr round_t kAfterEveryRound = std::numeric_limits<round_t>::max();

/// One op a connection sent and the response pipeline() returned for it.
struct Logged {
  Op op;
  wire::Response resp;
};

/// Runs `windows` pipelined windows of mixed ops (45% upsert, 45% lookup,
/// 10% erase) over `keys` keys shared by every connection. Values are
/// unique per (connection, op). Checks per-shard read-your-writes against
/// this connection's writes of earlier windows, and stops with a failure
/// once `deadline` has passed.
std::vector<Logged> run_connection(std::uint16_t port, std::uint64_t conn, int windows,
                                   std::size_t window, std::uint64_t keys, int shards,
                                   Clock::time_point deadline) {
  WireClient client("127.0.0.1", port);
  std::vector<Logged> log;
  std::vector<round_t> last_write(static_cast<std::size_t>(shards), 0);
  std::uint64_t seq = 0;
  for (int w = 0; w < windows; ++w) {
    std::vector<Op> ops;
    for (std::size_t i = 0; i < window; ++i, ++seq) {
      const std::uint64_t mix = (seq * 0x9e3779b97f4a7c15ULL) ^ (conn * 0xbf58476d1ce4e5b9ULL);
      const std::uint64_t key = 1 + (mix >> 17) % keys;
      const std::uint64_t pick = (mix >> 40) % 20;
      if (pick < 9) {
        ops.push_back(Op::upsert(key, ((conn + 1) << 32) | (seq + 1)));
      } else if (pick < 18) {
        ops.push_back(Op::lookup(key));
      } else {
        ops.push_back(Op::erase(key));
      }
    }
    const std::vector<wire::Response> resp = client.pipeline(ops, window);
    EXPECT_EQ(resp.size(), ops.size());
    if (resp.size() != ops.size()) return log;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_LT(resp[i].shard, static_cast<std::uint32_t>(shards));
      if (ops[i].kind == OpKind::kLookup) {
        EXPECT_GT(resp[i].round, last_write[resp[i].shard])
            << "lookup of key " << ops[i].key << " missed this connection's write";
      }
      log.push_back({ops[i], resp[i]});
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == OpKind::kLookup) continue;
      round_t& last = last_write[resp[i].shard];
      if (resp[i].round > last) last = resp[i].round;
    }
    if (Clock::now() > deadline) {
      ADD_FAILURE() << "connection " << conn << " finished " << w + 1 << " of " << windows
                    << " windows in the time budget";
      return log;
    }
  }
  return log;
}

/// The committed value of a key after every round < r, given the key's
/// winning ops by round (nullopt: absent).
std::optional<std::uint64_t> committed_before(const std::map<round_t, Op>& winners,
                                              round_t r) {
  auto it = winners.lower_bound(r);
  if (it == winners.begin()) return std::nullopt;
  --it;
  if (it->second.kind == OpKind::kErase) return std::nullopt;
  return it->second.value;
}

/// Checks a complete history of a fresh session against round semantics:
/// one winner per (key, round); a losing write sees what the winner
/// committed; a lookup of round r sees the last commit of a round < r; the
/// final committed state is what the last winner of each key wrote.
void check_history(const std::vector<std::vector<Logged>>& logs,
                   const ShardedServeSession& session) {
  // key → round → winning op (the key's committed state after that round)
  std::map<std::uint64_t, std::map<round_t, Op>> winners;
  std::map<std::pair<std::uint64_t, round_t>, int> writes;
  for (const auto& log : logs) {
    for (const Logged& e : log) {
      if (e.op.kind == OpKind::kLookup) continue;
      ++writes[{e.op.key, e.resp.round}];
      if (!e.resp.won) continue;
      const bool fresh = winners[e.op.key].emplace(e.resp.round, e.op).second;
      EXPECT_TRUE(fresh) << "two winners for key " << e.op.key << " round " << e.resp.round;
    }
  }
  for (const auto& [kr, n] : writes) {
    EXPECT_EQ(winners[kr.first].count(kr.second), 1u)
        << n << " write(s) and no winner for key " << kr.first << " round " << kr.second;
  }
  for (const auto& log : logs) {
    for (const Logged& e : log) {
      const std::uint64_t key = e.op.key;
      const round_t r = e.resp.round;
      if (e.op.kind == OpKind::kLookup) {
        const std::optional<std::uint64_t> want = committed_before(winners[key], r);
        EXPECT_EQ(e.resp.won, want.has_value()) << "lookup of " << key << " round " << r;
        EXPECT_EQ(e.resp.value, want.value_or(0)) << "lookup of " << key << " round " << r;
      } else if (!e.resp.won) {
        const std::optional<std::uint64_t> after = committed_before(winners[key], r + 1);
        EXPECT_EQ(e.resp.value, after.value_or(0)) << "loser of " << key << " round " << r;
      }
    }
  }
  for (const auto& [key, rounds] : winners) {
    const std::optional<std::uint64_t> want = committed_before(rounds, kAfterEveryRound);
    EXPECT_EQ(session.committed(key), want) << "final state of key " << key;
  }
}

// The deadline trigger is 1 s, far beyond the time budget: every window
// must complete on batches the handlers close themselves.
void pipelined_mixed_windows(int connections) {
  constexpr int kShards = 4;
  constexpr int kWindows = 24;
  constexpr std::size_t kWindow = 128;
  constexpr std::uint64_t kKeys = 64;  // shared: same-round contention across connections
  ShardedServeSession session(
      ServeConfig{}.with_shards(kShards).with_exec_threads(2).with_max_wait_us(1'000'000));
  std::vector<std::vector<Logged>> logs(static_cast<std::size_t>(connections));
  {
    WireServer server(session, WireConfig{});
    server.start();
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        logs[static_cast<std::size_t>(c)] =
            run_connection(server.port(), static_cast<std::uint64_t>(c), kWindows, kWindow,
                           kKeys, kShards, deadline);
      });
    }
    for (std::thread& t : threads) t.join();
    server.stop();
    EXPECT_GE(server.requests_served(),
              static_cast<std::uint64_t>(connections) * kWindows * kWindow);
  }
  session.stop_pump();
  for (const auto& log : logs) {
    ASSERT_EQ(log.size(), kWindows * kWindow);
  }
  check_history(logs, session);
}

TEST(WireServer, PipelinedMixedWindowOneConnection) { pipelined_mixed_windows(1); }

TEST(WireServer, PipelinedMixedWindowFourConnections) { pipelined_mixed_windows(4); }

// Each handler closes the batch of its own burst, so a lone synchronous
// client never waits for the deadline trigger (1 s here).
TEST(WireServer, SyncCallsDoNotWaitForTheDeadline) {
  ShardedServeSession session(ServeConfig{}.with_shards(2).with_max_wait_us(1'000'000));
  WireServer server(session, WireConfig{});
  server.start();
  WireClient client("127.0.0.1", server.port());
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    const wire::Response w = client.call(Op::upsert(i, i * 7));
    EXPECT_TRUE(w.won);
    const wire::Response r = client.call(Op::lookup(i));
    EXPECT_TRUE(r.won);
    EXPECT_EQ(r.value, i * 7);
    EXPECT_GT(r.round, w.round);
  }
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
  server.stop();
}

[[nodiscard]] std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

[[nodiscard]] bool wait_for_no_live_connections(const WireServer& server) {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (server.live_connections() != 0) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Finished handlers are joined as new connections arrive, and each erases
// its fd before closing it: churn keeps neither thread stacks nor stale fd
// numbers that stop() would shut down after the number was reused.
TEST(WireServer, ConnectionChurnLeavesNoThreadsOrFds) {
  // One executor thread: a handler that ran a round with exec_threads > 1
  // also leads an OpenMP team, whose workers exit on their own schedule.
  ShardedServeSession session(ServeConfig{}.with_shards(2).with_exec_threads(1));
  WireServer server(session, WireConfig{});
  server.start();
  const auto cycle = [&](std::uint64_t i) {
    {
      WireClient client("127.0.0.1", server.port());
      EXPECT_TRUE(client.call(Op::upsert(i + 1, i)).won);
    }
    EXPECT_TRUE(wait_for_no_live_connections(server));
  };
  constexpr std::uint64_t kWarmup = 10;
  constexpr std::uint64_t kCycles = 300;
  for (std::uint64_t i = 0; i < kWarmup; ++i) cycle(i);
  const std::uint64_t vm_start = vm_size_kib();
  for (std::uint64_t i = kWarmup; i < kWarmup + kCycles; ++i) cycle(i);
  EXPECT_EQ(server.connections_accepted(), kWarmup + kCycles);
  // An unjoined handler keeps its stack (8 MiB by default) mapped.
  EXPECT_LT(vm_size_kib(), vm_start + 4 * 1024) << "started at " << vm_start << " KiB";

  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.stop();
  const char byte = 'x';
  EXPECT_EQ(::send(sv[0], &byte, 1, MSG_NOSIGNAL), 1);
  char got = 0;
  EXPECT_EQ(::recv(sv[1], &got, 1, MSG_DONTWAIT), 1);
  EXPECT_EQ(got, byte);
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(server.live_connections(), 0u);
}

// A held cut parks the backlog grow, so an undersized table fills: the
// overflow is a per-op refusal (won=false, counted) and the pump keeps
// serving; once the cut is released a retry grows the table and wins.
constexpr std::uint64_t kFullTableKeys = 256;

[[nodiscard]] ServeConfig tiny_table_config() {
  return ServeConfig{}.with_shards(2).with_exec_threads(1).with_expected_keys(8);
}

[[nodiscard]] std::uint64_t value_of(std::uint64_t key) { return key + 100; }

TEST(WireServer, FullTableRefusesPerOpInProcess) {
  ShardedServeSession session(tiny_table_config());
  std::vector<OpFuture> futures(kFullTableKeys);
  std::vector<std::uint64_t> refused;
  {
    snap::HeldCut<ShardedScheduler> cut(session.backend());
    EXPECT_NO_THROW({
      for (std::uint64_t k = 0; k < kFullTableKeys; ++k) {
        session.submit(Op::upsert(k + 1, value_of(k + 1)), futures[k]);
      }
      session.flush();
    });
    for (std::uint64_t k = 0; k < kFullTableKeys; ++k) {
      ASSERT_TRUE(futures[k].ready());
      if (!futures[k].result().won) refused.push_back(k + 1);
    }
  }
  ASSERT_FALSE(refused.empty()) << "the table never filled";
  EXPECT_EQ(session.stats().full_refusals, refused.size());
  for (const std::uint64_t key : refused) {
    Result r;
    EXPECT_NO_THROW(r = session.call(Op::upsert(key, value_of(key))));
    EXPECT_TRUE(r.won) << "retry of key " << key;
  }
  for (std::uint64_t key = 1; key <= kFullTableKeys; ++key) {
    EXPECT_EQ(session.committed(key), value_of(key));
  }
  EXPECT_EQ(session.stats().full_refusals, refused.size());
}

TEST(WireServer, FullTableRefusesPerOpOverTheWire) {
  ShardedServeSession session(tiny_table_config());
  WireServer server(session, WireConfig{});
  server.start();
  WireClient client("127.0.0.1", server.port());
  std::vector<Op> ops;
  for (std::uint64_t key = 1; key <= kFullTableKeys; ++key) {
    ops.push_back(Op::upsert(key, value_of(key)));
  }
  std::vector<Op> retry;
  {
    snap::HeldCut<ShardedScheduler> cut(session.backend());
    std::vector<wire::Response> resp;
    EXPECT_NO_THROW(resp = client.pipeline(ops, ops.size()));
    ASSERT_EQ(resp.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!resp[i].won) retry.push_back(ops[i]);
    }
  }
  ASSERT_FALSE(retry.empty()) << "the table never filled";
  EXPECT_EQ(session.stats().full_refusals, retry.size());
  std::vector<wire::Response> again;
  EXPECT_NO_THROW(again = client.pipeline(retry, retry.size()));
  ASSERT_EQ(again.size(), retry.size());
  for (std::size_t i = 0; i < retry.size(); ++i) {
    EXPECT_TRUE(again[i].won) << "retry of key " << retry[i].key;
  }
  server.stop();
  session.stop_pump();
  for (std::uint64_t key = 1; key <= kFullTableKeys; ++key) {
    EXPECT_EQ(session.committed(key), value_of(key));
  }
}

}  // namespace
}  // namespace crcw::serve
