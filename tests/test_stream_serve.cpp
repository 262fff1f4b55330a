// StreamScheduler behind BasicServeSession and the wire: edge writes with
// round arbitration, connectivity queries with committed-read semantics,
// deletion splits, admission rejection (KV kinds, malformed edges,
// out-of-range vertices), KV backends rejecting stream kinds, and the
// end-to-end TCP loop through BasicWireServer<StreamScheduler>.
#include "stream/stream_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "ds/hash_common.hpp"
#include "graph/reference.hpp"
#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "stream/workload.hpp"

namespace crcw::stream {
namespace {

using serve::Op;
using serve::OpFuture;
using serve::OpKind;
using serve::Result;
using StreamSession = serve::BasicServeSession<StreamScheduler>;

[[nodiscard]] serve::ServeConfig stream_config(std::uint32_t vertices = 1 << 10) {
  return serve::ServeConfig{}.with_vertices(vertices).with_expected_keys(1 << 12);
}

TEST(StreamServe, InsertThenQueryConnectivity) {
  StreamSession session(stream_config());
  // Path 1-2-3-4 in one batch; queries in a later round see it whole.
  EXPECT_TRUE(session.call(Op::edge_insert(1, 2)).won);
  EXPECT_TRUE(session.call(Op::edge_insert(2, 3)).won);
  EXPECT_TRUE(session.call(Op::edge_insert(3, 4)).won);

  const Result same = session.call(Op::same_component(1, 4));
  EXPECT_TRUE(same.won);
  EXPECT_EQ(same.value, 1u);
  const Result split = session.call(Op::same_component(1, 5));
  EXPECT_TRUE(split.won);
  EXPECT_EQ(split.value, 0u);
  const Result size = session.call(Op::component_size(2));
  EXPECT_TRUE(size.won);
  EXPECT_EQ(size.value, 4u);
  // Reflexive connectivity needs no edges.
  EXPECT_EQ(session.call(Op::same_component(9, 9)).value, 1u);
}

TEST(StreamServe, EdgeWeightLookupAndLoserObservesCommitted) {
  StreamSession session(stream_config());
  ASSERT_TRUE(session.call(Op::edge_insert(5, 6, 77)).won);

  const Result look = session.call(Op::lookup(ds::pack_edge(6, 5)));
  EXPECT_TRUE(look.won);
  EXPECT_EQ(look.value, 77u);

  // Same-round duplicate insert: one winner, loser sees committed weight.
  OpFuture a, b;
  session.submit(Op::edge_insert(7, 8, 100), a);
  session.submit(Op::edge_insert(7, 8, 200), b);
  session.flush();
  ASSERT_TRUE(a.ready() && b.ready());
  EXPECT_NE(a.result().won, b.result().won);
  const Result& winner = a.result().won ? a.result() : b.result();
  const Result& loser = a.result().won ? b.result() : a.result();
  EXPECT_EQ(loser.value, winner.value) << "loser must observe the committed weight";
  EXPECT_EQ(a.result().round, b.result().round);
}

TEST(StreamServe, EraseSplitsComponentViaRebuild) {
  StreamSession session(stream_config());
  EXPECT_TRUE(session.call(Op::edge_insert(10, 11)).won);
  EXPECT_TRUE(session.call(Op::edge_insert(11, 12)).won);
  EXPECT_TRUE(session.call(Op::edge_insert(12, 13)).won);
  ASSERT_EQ(session.call(Op::same_component(10, 13)).value, 1u);

  EXPECT_TRUE(session.call(Op::edge_erase(11, 12)).won);
  EXPECT_EQ(session.call(Op::same_component(10, 13)).value, 0u);
  EXPECT_EQ(session.call(Op::same_component(10, 11)).value, 1u);
  EXPECT_EQ(session.call(Op::same_component(12, 13)).value, 1u);
  EXPECT_EQ(session.call(Op::component_size(10)).value, 2u);
  EXPECT_GT(session.backend().cc().rebuilds(), 0u);

  // Redundant edge: erasing one of a triangle's edges splits nothing.
  for (auto [u, v] : {std::pair{20, 21}, {21, 22}, {20, 22}}) {
    EXPECT_TRUE(session.call(Op::edge_insert(static_cast<std::uint32_t>(u),
                                             static_cast<std::uint32_t>(v)))
                    .won);
  }
  EXPECT_TRUE(session.call(Op::edge_erase(20, 22)).won);
  EXPECT_EQ(session.call(Op::same_component(20, 22)).value, 1u);
}

TEST(StreamServe, QueriesAreCommittedReadsOfPriorRounds) {
  // A query batched WITH the first insert of its edge must not see it
  // (phase A runs before phase B in the same round).
  StreamSession session(stream_config());
  OpFuture query, write;
  session.submit(Op::same_component(30, 31), query);
  session.submit(Op::edge_insert(30, 31), write);
  session.flush();
  ASSERT_TRUE(query.ready() && write.ready());
  EXPECT_EQ(query.result().round, write.result().round);
  EXPECT_TRUE(write.result().won);
  EXPECT_EQ(query.result().value, 0u) << "round-r query must miss round-r hook";
  // Next round sees it.
  EXPECT_EQ(session.call(Op::same_component(30, 31)).value, 1u);
}

TEST(StreamServe, ClientSessionTreatsConnectivityQueriesAsReads) {
  // One read-your-writes rule for every client (ReadYourWrites, op.hpp):
  // a connectivity query is a read, so it advances no stripe's write
  // round, and one issued after a write runs in a later round.
  StreamSession session(stream_config().with_shards(4));
  ASSERT_EQ(session.backend().shard_count(), 4);
  serve::ClientSession<StreamSession> client(session);
  EXPECT_EQ(client.call(Op::same_component(1, 2)).value, 0u);
  EXPECT_EQ(client.call(Op::component_size(3)).value, 1u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(client.last_write_round(s), 0u) << "stripe " << s;

  const Result w = client.call(Op::edge_insert(1, 2));
  ASSERT_TRUE(w.won);
  const Result q = client.call(Op::same_component(2, 1));
  EXPECT_EQ(q.value, 1u);
  EXPECT_GT(q.round, w.round);
  EXPECT_EQ(client.stale_retries(), 0u);
}

TEST(StreamServe, RejectsMalformedAndKvOps) {
  StreamSession session(stream_config(64));
  // KV vocabulary is not served by the stream backend.
  EXPECT_FALSE(session.call(Op::upsert(1, 2)).won);
  EXPECT_FALSE(session.call(Op::erase(1)).won);
  // Self-loops and out-of-universe endpoints are rejected at admission.
  EXPECT_FALSE(session.call(Op::edge_insert(5, 5)).won);
  EXPECT_FALSE(session.call(Op::edge_insert(5, 64)).won);
  EXPECT_FALSE(session.call(Op::edge_erase(64, 65)).won);
  EXPECT_FALSE(session.call(Op::same_component(5, 64)).won);
  EXPECT_FALSE(session.call(Op::component_size(64)).won);
  // The sentinel key via raw lookup.
  EXPECT_FALSE(session.call(Op::lookup(~std::uint64_t{0})).won);
  // Nothing reached the edge table or the forest.
  EXPECT_EQ(session.backend().graph().edges(), 0u);
  EXPECT_EQ(session.backend().cc().components(), 64u);
}

TEST(StreamServe, KvBackendsRejectStreamKinds) {
  serve::ServeSession kv;
  EXPECT_FALSE(kv.call(Op::edge_insert(1, 2)).won);
  EXPECT_FALSE(kv.call(Op::same_component(1, 2)).won);
  serve::ShardedServeSession sharded;
  EXPECT_FALSE(sharded.call(Op::edge_erase(1, 2)).won);
  EXPECT_FALSE(sharded.call(Op::component_size(3)).won);
  // And the KV tables stayed untouched.
  EXPECT_EQ(kv.stats().keys, 0u);
  EXPECT_EQ(sharded.stats().keys, 0u);
}

TEST(StreamServe, StreamConfigValidation) {
  EXPECT_THROW((void)serve::ServeConfig{}.with_vertices(1).validated(),
               std::invalid_argument);
  EXPECT_NO_THROW((void)serve::ServeConfig{}.with_vertices(2).validated());
}

TEST(StreamServe, ReplayedWorkloadMatchesOracleCounts) {
  // A deterministic trace through the full session: final live-edge count
  // and connectivity answers must match an oracle replay of the same ops
  // under ROUND semantics — each flush window is one round, and within a
  // round the FIRST write of a key is its (key, round) arbitration winner
  // (later same-key writes lose; paper §5). A sequential oracle applying
  // every op would be checking semantics the backend intentionally does
  // not provide.
  WorkloadConfig wcfg;
  wcfg.vertices = 256;
  wcfg.seed = 17;
  const std::vector<Event> trace = generate_trace(wcfg, 2000);
  constexpr std::size_t kWindow = 128;  // < max_batch: one round per flush

  StreamSession session(stream_config(256));
  std::vector<OpFuture> futures(trace.size());
  std::set<std::uint64_t> live;
  std::set<std::uint64_t> claimed;  // keys written this window (round)
  const auto close_window = [&] {
    session.flush();
    claimed.clear();
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    session.submit(trace[i].op, futures[i]);
    const OpKind kind = trace[i].op.kind;
    if (kind == OpKind::kEdgeInsert || kind == OpKind::kEdgeErase) {
      if (claimed.insert(trace[i].op.key).second) {  // first write wins
        if (kind == OpKind::kEdgeInsert) live.insert(trace[i].op.key);
        if (kind == OpKind::kEdgeErase) live.erase(trace[i].op.key);
      }
    }
    if (i % kWindow == kWindow - 1) close_window();
  }
  close_window();
  EXPECT_EQ(session.backend().graph().edges(), live.size());
  graph::UnionFind uf(256);
  for (const std::uint64_t key : live) {
    const ds::EdgeKey e = ds::unpack_edge(key);
    uf.unite(e.u, e.v);
  }
  const auto& cc = session.backend().cc();
  EXPECT_EQ(cc.components(), uf.num_sets());
  for (std::uint32_t v = 0; v < 256; v += 17) {
    for (std::uint32_t u = 0; u < 256; u += 13) {
      ASSERT_EQ(cc.same_component(u, v), uf.find(u) == uf.find(v))
          << u << " vs " << v;
    }
  }
}

TEST(StreamServe, WireLoopbackEndToEnd) {
  // The acceptance shape: stream ops over real TCP through the generic
  // wire server, including read-your-writes on connectivity queries.
  StreamSession session(stream_config());
  session.start_pump();
  serve::BasicWireServer<StreamScheduler> server(session, serve::WireConfig{});
  server.start();
  ASSERT_NE(server.port(), 0);

  {
    serve::WireClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.call(Op::edge_insert(40, 41)).won);
    ASSERT_TRUE(client.call(Op::edge_insert(41, 42)).won);
    // RYW: this query is re-issued until its round passes the writes.
    EXPECT_EQ(client.call(Op::same_component(40, 42)).value, 1u);
    EXPECT_EQ(client.call(Op::component_size(41)).value, 3u);
    ASSERT_TRUE(client.call(Op::edge_erase(41, 42)).won);
    EXPECT_EQ(client.call(Op::same_component(40, 42)).value, 0u);
    // Weight lookup over the wire.
    ASSERT_TRUE(client.call(Op::edge_insert(50, 51, 123)).won);
    const serve::wire::Response look = client.call(Op::lookup(ds::pack_edge(50, 51)));
    EXPECT_TRUE(look.won);
    EXPECT_EQ(look.value, 123u);
    // Pipelined mixed burst.
    std::vector<Op> ops;
    for (std::uint32_t i = 0; i < 64; ++i) ops.push_back(Op::edge_insert(100 + i, 200 + i));
    for (std::uint32_t i = 0; i < 64; ++i) ops.push_back(Op::same_component(100 + i, 200 + i));
    const auto responses = client.pipeline(ops, 16);
    EXPECT_EQ(responses.size(), ops.size());
  }

  server.stop();
  session.stop_pump();
  EXPECT_GE(server.requests_served(), 70u);
}

}  // namespace
}  // namespace crcw::stream
