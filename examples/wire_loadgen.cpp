// wire_loadgen — drive a serve wire server over real TCP.
//
// Two modes:
//
//   client (default)   connect to a running server and pump ops through
//                      pipelined WireClients — the external-process load
//                      generator bench/ext_serve.cpp spawns for its wire
//                      sweep:
//                        wire_loadgen --port 9000 --ops 65536 --threads 2 --window 64 --mixed
//                      Prints one summary line and exits 0 iff every op
//                      completed and the read-your-writes audit held.
//
//   --self-host        bring up a ShardedServeSession + WireServer on an
//                      ephemeral loopback port in-process, then run the
//                      client path against it — a socket-to-socket smoke
//                      test with no external orchestration (the ctest
//                      example_wire_loadgen entry).
//
// The workload: each client thread owns a key range; --mixed alternates
// upsert/lookup per op (lookups audited to see the thread's own latest
// write via the wire RYW protocol), otherwise it is upsert-only.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

struct ClientStats {
  std::uint64_t ops = 0;
  std::uint64_t won = 0;
  std::uint64_t stale_retries = 0;
  std::uint64_t audit_failures = 0;
};

/// One client thread: `ops` ops over its own key block, windowed pipeline.
ClientStats run_client(const std::string& host, std::uint16_t port, int tid,
                       std::uint64_t ops, std::uint64_t window, bool mixed) {
  crcw::serve::WireClient client(host, port);
  ClientStats stats;

  // Own key block so the RYW audit has a single writer per key; values
  // encode the write index so staleness is detectable.
  const std::uint64_t base = static_cast<std::uint64_t>(tid + 1) << 32;
  constexpr std::uint64_t kKeySpan = 512;

  std::vector<crcw::serve::Op> batch;
  std::vector<std::uint64_t> expect;  // per lookup: the latest value written
  std::vector<std::uint64_t> latest(kKeySpan, 0);
  batch.reserve(window * 2);
  std::uint64_t issued = 0;
  while (issued < ops) {
    batch.clear();
    expect.clear();
    // One window's worth of work, submitted as a pipeline: the windows
    // keep writes and their audit lookups in separate pipeline calls, so
    // a lookup's RYW retry loop always has the write's round on record.
    while (issued < ops && batch.size() < window) {
      const std::uint64_t k = issued % kKeySpan;
      if (mixed && issued % 2 != 0) {
        batch.push_back(crcw::serve::Op::lookup(base + k));
        expect.push_back(latest[k]);
      } else {
        const std::uint64_t v = issued + 1;
        batch.push_back(crcw::serve::Op::upsert(base + k, v));
        latest[k] = v;
        expect.push_back(0);
      }
      ++issued;
    }
    const auto replies = client.pipeline(batch, window);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      ++stats.ops;
      if (replies[i].won) ++stats.won;
      if (batch[i].kind != crcw::serve::OpKind::kLookup) continue;
      // RYW audit: this thread is its keys' only writer, so a lookup must
      // see exactly the last value the thread wrote before this window.
      if (expect[i] != 0 && replies[i].value < expect[i]) ++stats.audit_failures;
    }
  }
  stats.stale_retries = client.stale_retries();
  return stats;
}

int run(const crcw::util::Cli& cli) {
  const std::string host = cli.get_string("host", "127.0.0.1");
  auto port = static_cast<std::uint16_t>(cli.get_uint("port", 0));
  const std::uint64_t ops = cli.get_uint("ops", 1 << 14);
  const int threads = static_cast<int>(cli.get_uint("threads", 2));
  const std::uint64_t window = cli.get_uint("window", 64);
  const bool mixed = cli.get_bool("mixed", false);
  const bool self_host = cli.get_bool("self-host", false);

  // Self-host mode owns the whole loop: session → server → clients.
  crcw::serve::ShardedServeSession* session = nullptr;
  crcw::serve::WireServer* server = nullptr;
  if (self_host) {
    const auto cfg = crcw::serve::ServeConfig{}
                         .with_shards(static_cast<int>(cli.get_uint("shards", 4)))
                         .with_max_wait_us(100)
                         .with_counters(true);
    session = new crcw::serve::ShardedServeSession(cfg);
    server = new crcw::serve::WireServer(*session, cfg.wire);
    server->start();
    port = server->port();
  } else if (port == 0) {
    std::fprintf(stderr, "wire_loadgen: --port is required (or --self-host)\n");
    return 2;
  }

  crcw::util::Timer timer;
  std::vector<ClientStats> stats(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const std::uint64_t per_thread = ops / static_cast<std::uint64_t>(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      stats[static_cast<std::size_t>(t)] =
          run_client(host, port, t, per_thread, window, mixed);
    });
  }
  for (auto& w : workers) w.join();
  const double secs = timer.seconds();

  ClientStats total;
  for (const ClientStats& s : stats) {
    total.ops += s.ops;
    total.won += s.won;
    total.stale_retries += s.stale_retries;
    total.audit_failures += s.audit_failures;
  }
  std::printf("wire_loadgen: ops=%" PRIu64 " won=%" PRIu64 " stale_retries=%" PRIu64
              " audit_failures=%" PRIu64 " secs=%.3f ops_per_sec=%.0f\n",
              total.ops, total.won, total.stale_retries, total.audit_failures,
              secs, static_cast<double>(total.ops) / (secs > 0 ? secs : 1e-9));

  int rc = 0;
  if (total.ops != per_thread * static_cast<std::uint64_t>(threads)) rc = 1;
  if (total.audit_failures != 0) rc = 1;

  if (server != nullptr) {
    server->stop();
    const auto st = session->stats();
    std::printf("wire_loadgen: server rounds=%" PRIu64 " served=%" PRIu64
                " shards=%d p99_commit_us=%.1f\n",
                st.rounds, st.ops_served, st.shards,
                static_cast<double>(session->metrics().p99_enqueue_to_commit_ns()) / 1e3);
    if (st.ops_served < total.ops) rc = 1;
    delete server;
    delete session;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const crcw::util::Cli cli(argc, argv);
  return run(cli);
}
