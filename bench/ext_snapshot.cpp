// Extension benchmark: the src/snap snapshot subsystem — four sweeps:
//
//   scan         consistent-scan throughput: scan_digest at a held cut
//                across shard counts WHILE raw writer threads keep
//                committing through the pump — the held-cut discipline is
//                what's measured (a scan that stalled writers, or writers
//                that tore the scan, would show up in time or in the
//                digest entry count);
//   writer       the HEADLINE: writer p99 enqueue→commit with a background
//                checkpoint loop publishing files the whole time, against
//                the same run idle. The acceptance bound rides the sweep:
//                median p99 under checkpoints must stay ≤2x idle. The obs
//                histograms are power-of-two bucketed, so 2x means "at
//                most one bucket worse" — an over-bound row fails via
//                SkipWithError, it does not get reported as if honest;
//   file         checkpoint_sync + restore round-trip across key counts:
//                publish to disk, rebuild a fresh backend, and the scan
//                digests must match bit-for-bit (mismatch fails the row).
//                Counters carry file bytes and entries/sec;
//   killrestore  the deployment story end to end: a sharded wire server
//                publishes a snapshot on request, the process state dies,
//                and the timed region is recovery — restore + server
//                restart + the wire-scan digest audit over loopback TCP.
#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire_client.hpp"
#include "snap/checkpointer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::default_threads;
using crcw::bench::report;
using crcw::bench::RowRecorder;
using crcw::bench::RowSpec;
using crcw::serve::Op;
using crcw::serve::ServeConfig;
using crcw::serve::ServeSession;
using crcw::serve::ShardedServeSession;

constexpr std::uint64_t kWriterOps = 1 << 16;
constexpr std::uint64_t kScanKeys = 1 << 14;
constexpr std::uint64_t kWireKeys = 1 << 12;

[[nodiscard]] std::uint64_t writer_ops() {
  return crcw::bench::smoke_mode() ? kWriterOps / 8 : kWriterOps;
}

/// Scratch directory for published snapshot files; contents are
/// overwritten per round-named path, never cleaned mid-run.
const std::string& snap_dir() {
  static const std::string dir = [] {
    std::string d = "/tmp/crcw_ext_snapshot";
    mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// Writer-traffic keys with ~50% duplication, cached (generation untimed).
const std::vector<std::uint64_t>& cached_keys(std::uint64_t n) {
  static std::map<std::uint64_t, std::unique_ptr<std::vector<std::uint64_t>>> cache;
  auto& slot = cache[n];
  if (!slot) {
    crcw::util::Xoshiro256 rng(42);
    slot = std::make_unique<std::vector<std::uint64_t>>(n);
    for (auto& k : *slot) k = rng.bounded(n / 2 + 1) + 1;
  }
  return *slot;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

[[nodiscard]] std::uint64_t file_bytes(const std::string& path) {
  struct stat st = {};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

RowSpec spec(const char* sweep, const char* policy, const char* baseline,
             int threads, std::uint64_t n, std::uint64_t m) {
  return {.series = std::string("ext_snapshot/") + sweep + "/" + policy,
          .policy = policy,
          .baseline = baseline,
          .threads = threads,
          .n = n,
          .m = m};
}

// -- scan: consistent scans racing live writers (shard-count sweep) ----------

void scan_snapshot(benchmark::State& s) {
  const int shards = static_cast<int>(s.range(0));
  ServeConfig cfg;
  cfg.shards.count = shards;
  cfg.table.expected_keys = kScanKeys + 2;
  cfg.batch.max_wait_us = 100;
  ShardedServeSession session(cfg);
  session.start_pump();
  for (std::uint64_t k = 1; k <= kScanKeys; ++k) {
    (void)session.call(Op::upsert(k, k));
  }
  // Two raw writer threads overwrite live keys through the pump for the
  // whole timing loop: the scans below run against moving state, and the
  // cut predicate is what keeps each one internally consistent.
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&session, &done, w] {
      crcw::util::Xoshiro256 rng(7 + static_cast<std::uint64_t>(w));
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t k = rng.bounded(kScanKeys) + 1;
        (void)session.call(Op::upsert(k, k * 2));
      }
    });
  }
  std::uint64_t entries = 0;
  double last_secs = 1.0;
  {
    RowRecorder rec(s, spec("scan", "snap", "", shards, kScanKeys,
                            static_cast<std::uint64_t>(shards)));
    for (auto _ : s) {
      crcw::util::Timer timer;
      const crcw::snap::ScanDigest d = crcw::snap::scan_digest(session.backend());
      last_secs = timer.seconds();
      rec.record(last_secs);
      entries = d.entries;
      // Writers only overwrite preloaded keys, so a cut may never show
      // more than the table holds (a torn scan double-counts).
      if (d.entries > kScanKeys) {
        s.SkipWithError("scan saw more entries than live keys");
        break;
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  session.stop_pump();
  s.counters["entries"] = static_cast<double>(entries);
  s.counters["entries_per_sec"] =
      static_cast<double>(entries) / (last_secs > 0 ? last_secs : 1.0);
}

// -- writer: p99 under a background checkpoint loop vs idle ------------------

struct WriterRunStats {
  double secs = 0;
  std::uint64_t p99_commit_ns = 0;
  std::uint64_t checkpoints = 0;
};

/// One full writer run: `threads` raw clients enqueue their slice without
/// waiting (the pump's ops_served watermark is completion), optionally with
/// a Checkpointer publishing continuously from a sidecar thread. Mirrors
/// the ext_serve upsert mode so the two benches' p99s are comparable.
WriterRunStats writer_run(const std::vector<std::uint64_t>& keys, int threads,
                          bool checkpoints) {
  namespace sv = crcw::serve;
  ServeConfig cfg;
  cfg.batch.max_batch = 1024;
  cfg.batch.max_wait_us = 100;
  cfg.batch.exec_threads = 0;  // rounds at ambient OpenMP width
  cfg.batch.lanes = threads;
  cfg.batch.lane_backlog = 1024;
  cfg.batch.latency_sample_shift = 6;
  cfg.table.expected_keys = keys.size() / 2 + 2;
  ServeSession session(cfg);

  const std::uint64_t total = keys.size();
  const auto t = static_cast<std::uint64_t>(threads);
  std::vector<std::vector<sv::OpFuture>> futures(t);
  for (std::uint64_t c = 0; c < t; ++c) {
    const std::uint64_t lo = total * c / t, hi = total * (c + 1) / t;
    futures[c] = std::vector<sv::OpFuture>(hi - lo);
  }

  WriterRunStats stats;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> published{0};
  std::optional<std::thread> ckpt_thread;
  if (checkpoints) {
    ckpt_thread.emplace([&session, &done, &published] {
      crcw::snap::Checkpointer<crcw::serve::ShardedScheduler> ckpt(session.backend(),
                                                                 snap_dir());
      while (!done.load(std::memory_order_acquire)) {
        std::string err;
        if (!ckpt.begin(&err).has_value() || !ckpt.wait(&err)) break;
        published.fetch_add(1, std::memory_order_relaxed);
        // Checkpoints are periodic in any real deployment, not a busy
        // loop; the pacing also keeps the sidecar from consuming a whole
        // core of the writer's budget on small containers. Each publish
        // scans the full table, so the run still overlaps checkpoints for
        // most of its lifetime.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  crcw::util::Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(t);
  for (std::uint64_t c = 0; c < t; ++c) {
    clients.emplace_back([&, c] {
      const std::uint64_t lo = total * c / t, hi = total * (c + 1) / t;
      for (std::uint64_t i = lo; i < hi; ++i) {
        session.submit(Op::upsert(keys[i], i), futures[c][i - lo]);
      }
    });
  }
  while (session.backend().ops_served() < total) {
    if (!session.poll()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stats.secs = timer.seconds();
  for (std::thread& th : clients) th.join();
  done.store(true, std::memory_order_release);
  if (ckpt_thread.has_value()) ckpt_thread->join();
  stats.p99_commit_ns = session.metrics().p99_enqueue_to_commit_ns();
  stats.checkpoints = published.load();
  return stats;
}

void writer_snapshot(benchmark::State& s) {
  const int threads = static_cast<int>(s.range(0));
  const std::vector<std::uint64_t>& keys = cached_keys(writer_ops());
  std::vector<double> secs_idle, p99_idle, p99_ckpt;
  std::uint64_t checkpoints = 0;
  {
    RowRecorder rec(s, spec("writer", "checkpoint", "idle", threads,
                            writer_ops(), 0));
    for (auto _ : s) {
      const WriterRunStats idle = writer_run(keys, threads, /*checkpoints=*/false);
      crcw::util::Timer timer;
      const WriterRunStats ck = writer_run(keys, threads, /*checkpoints=*/true);
      rec.record(timer.seconds());
      secs_idle.push_back(idle.secs * 1e9);
      p99_idle.push_back(static_cast<double>(idle.p99_commit_ns));
      p99_ckpt.push_back(static_cast<double>(ck.p99_commit_ns));
      checkpoints = ck.checkpoints;
    }
    // The acceptance bound: median writer p99 with checkpoints publishing
    // continuously stays within 2x of idle. The obs histogram buckets top
    // out at 2^k - 1, so "one bucket worse" is a ratio fractionally above
    // 2.0 — comparing against 2*(idle+1) admits exactly one bucket and no
    // more. An over-bound run must fail loudly, not land in the JSON as a
    // quietly worse row. Enforced only where the run can actually execute
    // concurrently — clients plus the pump thread plus the checkpoint
    // sidecar all need a core; oversubscribed, the p99 measures kernel
    // timeslicing, not checkpoint interference (the one-core caveat,
    // EXPERIMENTS.md §E3) — those rows still publish p99_ratio for review.
    const double idle_ns = median(p99_idle), ckpt_ns = median(p99_ckpt);
    const bool enforce = static_cast<unsigned>(threads) + 2 <=
                         std::thread::hardware_concurrency();
    if (enforce && idle_ns > 0 && ckpt_ns > 2.0 * (idle_ns + 1.0)) {
      s.SkipWithError(("writer p99 under checkpoints exceeded the 2x idle bound: " +
                       std::to_string(idle_ns) + " -> " + std::to_string(ckpt_ns))
                          .c_str());
    }
    s.counters["checkpoints"] = static_cast<double>(checkpoints);
    s.counters["p99_idle_us"] = idle_ns / 1e3;
    s.counters["p99_ckpt_us"] = ckpt_ns / 1e3;
    s.counters["p99_ratio"] = idle_ns > 0 ? ckpt_ns / idle_ns : 0.0;
  }
  report().add_row({"ext_snapshot/writer/idle", "idle", "", threads, writer_ops(),
                    0, std::move(secs_idle), {}});
  report().add_row({"ext_snapshot/p99-writer/idle", "idle", "", threads,
                    writer_ops(), 0, std::move(p99_idle), {}});
  report().add_row({"ext_snapshot/p99-writer/checkpoint", "checkpoint", "idle",
                    threads, writer_ops(), 0, std::move(p99_ckpt), {}});
}

// -- file: checkpoint_sync + restore round-trip across key counts ------------

void file_snapshot(benchmark::State& s) {
  const std::uint64_t n = 1ull << s.range(0);
  ServeConfig cfg;
  cfg.table.expected_keys = n + 2;
  ServeSession session(cfg);
  for (std::uint64_t k = 1; k <= n; ++k) {
    (void)session.call(Op::upsert(k, k * 3));
  }
  const crcw::snap::ScanDigest before = crcw::snap::scan_digest(session.backend());
  const std::string path = snap_dir() + "/file-n" + std::to_string(n) + ".crcwsnap";
  std::uint64_t bytes = 0;
  double last_secs = 1.0;
  {
    RowRecorder rec(s, spec("file", "snap", "", 1, n, 0));
    for (auto _ : s) {
      crcw::util::Timer timer;
      std::string err;
      const auto cut = crcw::snap::checkpoint_sync(session.backend(), path, &err);
      if (!cut.has_value()) {
        s.SkipWithError("checkpoint_sync failed");
        break;
      }
      ServeSession fresh(cfg);
      if (!crcw::snap::restore(fresh.backend(), path, &err)) {
        s.SkipWithError("restore failed");
        break;
      }
      const crcw::snap::ScanDigest after = crcw::snap::scan_digest(fresh.backend());
      last_secs = timer.seconds();
      rec.record(last_secs);
      if (after.digest != before.digest || after.entries != before.entries) {
        s.SkipWithError("restored digest differs from source at the cut");
        break;
      }
      bytes = file_bytes(path);
    }
  }
  s.counters["file_bytes"] = static_cast<double>(bytes);
  s.counters["entries_per_sec"] =
      static_cast<double>(n) / (last_secs > 0 ? last_secs : 1.0);
}

// -- killrestore: wire-published snapshot, process death, timed recovery -----

void killrestore_snapshot(benchmark::State& s) {
  namespace sv = crcw::serve;
  ServeConfig cfg = ServeConfig{}.with_shards(2).with_snapshot_dir(snap_dir());
  // Restore fills tables serially with grow parked, so the restored server
  // must be provisioned for the snapshot's key count up front.
  cfg.table.expected_keys = kWireKeys + 2;
  // Phase A (untimed, once): build state, publish over the wire, record
  // the digest witness, then let everything but the file die.
  std::string snapshot_path;
  std::uint64_t digest_at_cut = 0;
  {
    ShardedServeSession session(cfg);
    session.start_pump();
    for (std::uint64_t k = 1; k <= kWireKeys; ++k) {
      (void)session.call(Op::upsert(k, k * 3));
    }
    sv::BasicWireServer<sv::ShardedScheduler> server(session, sv::WireConfig{});
    server.start();
    sv::WireClient client("127.0.0.1", server.port());
    const sv::wire::Response created = client.snapshot_create();
    const sv::wire::Response scanned = client.snapshot_scan();
    server.stop();
    session.stop_pump();
    if (!created.won || !scanned.won) {
      s.SkipWithError("wire snapshot_create/scan failed");
      return;
    }
    snapshot_path = snap_dir() + "/snapshot-r" + std::to_string(created.round) +
                    ".crcwsnap";
    digest_at_cut = scanned.value;
  }
  // Timed: the recovery path — restore into a fresh backend, bring the
  // wire server back, and answer the cut identically over TCP.
  RowRecorder rec(s, spec("killrestore", "snap", "", 1, kWireKeys, 2));
  for (auto _ : s) {
    crcw::util::Timer timer;
    ShardedServeSession session(cfg);
    std::string err;
    if (!crcw::snap::restore(session.backend(), snapshot_path, &err)) {
      s.SkipWithError(("restore failed: " + err).c_str());
      return;
    }
    session.start_pump();
    sv::BasicWireServer<sv::ShardedScheduler> server(session, sv::WireConfig{});
    server.start();
    sv::WireClient client("127.0.0.1", server.port());
    const sv::wire::Response scanned = client.snapshot_scan();
    server.stop();
    session.stop_pump();
    rec.record(timer.seconds());
    if (!scanned.won || scanned.value != digest_at_cut) {
      s.SkipWithError("restored server answered a different digest");
      return;
    }
  }
}

// -- registration ------------------------------------------------------------

void shard_args(benchmark::internal::Benchmark* b) {
  for (const int n : crcw::bench::sweep_points({1, 2, 4}, 2)) b->Arg(n);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void thread_args(benchmark::internal::Benchmark* b) {
  for (const int t : crcw::bench::sweep_points({1, 2, 4, 8}, 2)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void size_args(benchmark::internal::Benchmark* b) {
  // log2(key count): 4k, 16k, 64k entries per file.
  for (const int e : crcw::bench::sweep_points({12, 14, 16}, 1)) b->Arg(e);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void single_args(benchmark::internal::Benchmark* b) {
  b->Arg(0)->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK(scan_snapshot)->Apply(shard_args);
BENCHMARK(writer_snapshot)->Apply(thread_args);
BENCHMARK(file_snapshot)->Apply(size_args);
BENCHMARK(killrestore_snapshot)->Apply(single_args);

}  // namespace
