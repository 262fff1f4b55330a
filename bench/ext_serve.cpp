// Extension benchmark: the src/serve round-batched engine against a
// mutex-guarded std::unordered_map service and the bare table, five
// sweeps:
//
//   upsert        insert-heavy (≈50% duplicate keys) across client thread
//                 counts at a fixed batch size — the acceptance sweep:
//                 batching converts per-op lock contention into one CAS-LT
//                 race per (key, round), so serve should overtake the mutex
//                 service as clients grow (EXPERIMENTS.md §E3 records the
//                 measured curves and the one-core caveat);
//   upsert-batch  the same workload across batch sizes at fixed threads —
//                 the admission-policy knob: tiny batches pay pump
//                 round-trips, huge ones pay queueing delay;
//   mixed         50/50 upsert/lookup traffic across threads, submitted in
//                 windows with a read-your-writes audit: every lookup of a
//                 completed window must execute in a strictly later round
//                 than the client's writes from earlier windows (throws on
//                 violation — consistency is part of what's measured);
//   shards        the sharded backend across shard counts at fixed
//                 threads/batch (m = shard count) — shard-local batching;
//   wire          the full deployment: a sharded server in this process, a
//                 REAL external client process (examples/wire_loadgen,
//                 fork/exec) pipelining mixed traffic over loopback TCP —
//                 rows time the external run; p99s come from the server's
//                 own enqueue→commit histograms.
//
// Every serve row also emits a p99 enqueue→commit latency row
// (series ext_serve/p99-*/serve, samples = per-repetition p99 from the
// obs histograms) — the SLO number the ROADMAP's serving-layer item asks
// for. Client threads are raw std::threads (admission really is MPMC);
// the bench thread pumps. The mutex baseline spawns the same raw threads
// so thread-spawn cost cancels out.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef CRCW_WIRE_LOADGEN_PATH
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::default_threads;
using crcw::bench::report;
using crcw::bench::RowRecorder;
using crcw::bench::RowSpec;

constexpr std::uint64_t kOps = 1 << 18;
constexpr std::uint64_t kWireOps = 1 << 16;

/// Random keys with ~50% duplication (n draws over n/2 values, +1 so zero
/// stays a valid key and the sentinel is unreachable), cached — generation
/// is never timed.
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

struct ServeRunStats {
  std::uint64_t committed_keys = 0;
  std::uint64_t p99_enqueue_commit_ns = 0;
  std::uint64_t p99_enqueue_admit_ns = 0;
  std::uint64_t rounds = 0;
};

[[nodiscard]] crcw::serve::ServeConfig serve_config(int threads, std::uint64_t batch,
                                                    std::uint64_t n_keys, int shards) {
  crcw::serve::ServeConfig cfg;
  cfg.batch.max_batch = batch;
  cfg.batch.max_wait_us = 100;
  // t is the *client* fan-in axis; the service executes rounds at the
  // ambient OpenMP width (0), its own deployment-time property — forcing
  // exec_threads = t would measure oversubscription, not admission.
  cfg.batch.exec_threads = 0;
  cfg.batch.lanes = threads;
  // Bounded backlog: a client hitting its watermark helps pump, so rounds
  // execute on the thread whose records are cache-hot instead of queueing
  // megabytes for a far-away drain (and p99 stays bounded by ~one batch).
  cfg.batch.lane_backlog = batch;
  // Sample every 64th op into the latency histograms — two clock reads
  // per op would dominate the admission fast path.
  cfg.batch.latency_sample_shift = 6;
  cfg.table.expected_keys = n_keys / 2 + 2;
  cfg.shards.count = shards;
  return cfg;
}

/// One full serve run over any session shape. Upsert-only mode: clients
/// enqueue their whole slice without waiting; completion is the pump's
/// ops_served() watermark. Mixed mode: clients submit in windows and wait
/// each window out, auditing read-your-writes per shard — a lookup of
/// window w must carry a strictly later round than every write the client
/// committed in windows < w (the cross-shard logical round makes that a
/// single per-shard comparison). Audit violations throw.
template <typename Session>
ServeRunStats serve_run(const std::vector<std::uint64_t>& keys, int threads,
                        std::uint64_t batch, bool mixed, int shards,
                        bool counters = false) {
  namespace sv = crcw::serve;
  sv::ServeConfig cfg = serve_config(threads, batch, keys.size(), shards);
  cfg.batch.counters = counters;
  Session session(cfg);

  const std::uint64_t total = keys.size();
  const auto t = static_cast<std::uint64_t>(threads);
  std::vector<std::vector<sv::OpFuture>> futures(t);
  for (std::uint64_t c = 0; c < t; ++c) {
    const std::uint64_t lo = total * c / t, hi = total * (c + 1) / t;
    futures[c] = std::vector<sv::OpFuture>(hi - lo);
  }
  constexpr std::uint64_t kWindow = 256;  // mixed-mode RYW window

  std::vector<std::thread> clients;
  clients.reserve(t);
  std::atomic<std::uint64_t> audit_violations{0};
  for (std::uint64_t c = 0; c < t; ++c) {
    clients.emplace_back([&, c] {
      const std::uint64_t lo = total * c / t, hi = total * (c + 1) / t;
      if (!mixed) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          session.submit(sv::Op::upsert(keys[i], i), futures[c][i - lo]);
        }
        return;
      }
      // Windowed mixed traffic with the per-shard RYW audit.
      std::vector<crcw::round_t> last_write(
          static_cast<std::size_t>(session.backend().shard_count()), 0);
      sv::BackoffState backoff(cfg.batch.backoff_spins);
      for (std::uint64_t w = lo; w < hi; w += kWindow) {
        const std::uint64_t end = std::min(hi, w + kWindow);
        for (std::uint64_t i = w; i < end; ++i) {
          const sv::Op op = (i % 2 != 0) ? sv::Op::lookup(keys[i])
                                         : sv::Op::upsert(keys[i], i);
          session.submit(op, futures[c][i - lo]);
        }
        for (std::uint64_t i = w; i < end; ++i) {
          while (!futures[c][i - lo].ready()) backoff.pause();
        }
        // Audit lookups against the tracker as of the PREVIOUS windows,
        // then fold this window's write rounds in.
        for (std::uint64_t i = w; i < end; ++i) {
          if (i % 2 == 0) continue;
          const auto shard =
              static_cast<std::size_t>(session.backend().shard_of(keys[i]));
          if (futures[c][i - lo].result().round <= last_write[shard]) {
            audit_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        for (std::uint64_t i = w; i < end; ++i) {
          if (i % 2 != 0) continue;
          const auto shard =
              static_cast<std::size_t>(session.backend().shard_of(keys[i]));
          const crcw::round_t r = futures[c][i - lo].result().round;
          if (r > last_write[shard]) last_write[shard] = r;
        }
      }
    });
  }
  // The bench thread is only a fallback pump — under backpressure the
  // clients pump for themselves — so sleep rather than contend for the core.
  while (session.backend().ops_served() < total) {
    if (!session.poll()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (std::thread& th : clients) th.join();
  if (audit_violations.load() != 0) {
    throw std::runtime_error("ext_serve: read-your-writes audit failed (" +
                             std::to_string(audit_violations.load()) +
                             " stale lookups)");
  }

  const crcw::serve::BackendStats bstats = session.stats();
  ServeRunStats stats;
  stats.committed_keys = bstats.keys;
  stats.p99_enqueue_commit_ns = session.metrics().p99_enqueue_to_commit_ns();
  stats.p99_enqueue_admit_ns = session.metrics().p99_enqueue_to_admit_ns();
  stats.rounds = bstats.rounds;
  return stats;
}

/// The lock-service baseline: the same raw client threads, each op taking
/// one mutex around a std::unordered_map — per-op arbitration instead of
/// per-round.
std::uint64_t mutex_run(const std::vector<std::uint64_t>& keys, int threads,
                        bool mixed) {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(keys.size() / 2 + 2);
  std::mutex mu;
  const std::uint64_t total = keys.size();
  const auto t = static_cast<std::uint64_t>(threads);
  std::uint64_t sink = 0;
  std::vector<std::thread> clients;
  clients.reserve(t);
  for (std::uint64_t c = 0; c < t; ++c) {
    clients.emplace_back([&, c] {
      const std::uint64_t lo = total * c / t, hi = total * (c + 1) / t;
      std::uint64_t local = 0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        const std::lock_guard<std::mutex> lock(mu);
        if (mixed && i % 2 != 0) {
          const auto it = map.find(keys[i]);
          if (it != map.end()) local += it->second;
        } else {
          map[keys[i]] = i;
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      sink += local;
    });
  }
  for (std::thread& th : clients) th.join();
  benchmark::DoNotOptimize(sink);
  return map.size();
}

/// The no-service floor: the CW table driven directly by one OpenMP round —
/// what the serving layer's admission machinery costs on top.
std::uint64_t direct_run(const std::vector<std::uint64_t>& keys, int threads) {
  crcw::ds::ConcurrentHashMap<std::uint64_t, std::uint64_t> map(keys.size() / 2 + 2);
  const auto n = static_cast<std::int64_t>(keys.size());
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    (void)map.upsert(1, keys[static_cast<std::size_t>(i)],
                     static_cast<std::uint64_t>(i));
  }
  return map.size();
}

RowSpec spec(const char* sweep, const char* method, int threads, std::uint64_t m,
             const char* baseline = "mutex") {
  return {.series = std::string("ext_serve/") + sweep + "/" + method,
          .policy = method,
          .baseline = baseline,
          .threads = threads,
          .n = kOps,
          .m = m};
}

/// Timing loop for a serve run; also collects per-repetition p99s and
/// emits them as extra latency rows (one BenchRow per histogram, samples =
/// the p99 of each repetition). Rows go through report() directly — a
/// second RowRecorder would double-call SetIterationTime.
template <typename Session>
void bench_serve(benchmark::State& state, const char* sweep, int threads,
                 std::uint64_t batch, bool mixed, int shards, std::uint64_t m) {
  const auto& keys = cached_keys(kOps);
  std::vector<double> p99_commit, p99_admit;
  ServeRunStats stats;
  {
    RowRecorder rec(state, spec(sweep, "serve", threads, m));
    for (auto _ : state) {
      crcw::util::Timer timer;
      stats = serve_run<Session>(keys, threads, batch, mixed, shards);
      rec.record(timer.seconds());
      p99_commit.push_back(static_cast<double>(stats.p99_enqueue_commit_ns));
      p99_admit.push_back(static_cast<double>(stats.p99_enqueue_admit_ns));
    }
    state.counters["keys"] = static_cast<double>(stats.committed_keys);
    state.counters["rounds"] = static_cast<double>(stats.rounds);
    state.counters["p99_us"] = static_cast<double>(stats.p99_enqueue_commit_ns) / 1e3;
    rec.profile([&] {
      crcw::obs::MetricsRegistry local;
      const crcw::obs::ScopedRegistry scoped(local);
      (void)serve_run<Session>(keys, threads, batch, mixed, shards, /*counters=*/true);
      return std::optional(local.totals());
    });
  }
  report().add_row({std::string("ext_serve/p99-enqueue-commit/") + sweep, "serve", "",
                    threads, kOps, m, std::move(p99_commit), {}});
  report().add_row({std::string("ext_serve/p99-enqueue-admit/") + sweep, "serve", "",
                    threads, kOps, m, std::move(p99_admit), {}});
}

/// Shard count of the upsert, upsert-batch and mixed serve rows: the
/// ambient OpenMP width. A shard's slice runs on one thread, so these rows
/// time rounds that use every executor thread only with that many shards.
[[nodiscard]] int executor_shards() { return omp_get_max_threads(); }

// -- upsert: thread sweep at fixed batch ------------------------------------

void upsert_threads_serve(benchmark::State& s) {
  // m carries the batch size on these serve rows (the baseline rows use 0).
  bench_serve<crcw::serve::ServeSession>(s, "upsert", static_cast<int>(s.range(0)), 4096,
                                         /*mixed=*/false, executor_shards(), 4096);
}
void upsert_threads_mutex(benchmark::State& s) {
  const int threads = static_cast<int>(s.range(0));
  const auto& keys = cached_keys(kOps);
  RowRecorder rec(s, spec("upsert", "mutex", threads, 0));
  std::uint64_t size = 0;
  for (auto _ : s) {
    crcw::util::Timer timer;
    size = mutex_run(keys, threads, /*mixed=*/false);
    rec.record(timer.seconds());
  }
  s.counters["keys"] = static_cast<double>(size);
}
void upsert_threads_direct(benchmark::State& s) {
  const int threads = static_cast<int>(s.range(0));
  const auto& keys = cached_keys(kOps);
  RowRecorder rec(s, spec("upsert", "direct", threads, 0));
  std::uint64_t size = 0;
  for (auto _ : s) {
    crcw::util::Timer timer;
    size = direct_run(keys, threads);
    rec.record(timer.seconds());
  }
  s.counters["keys"] = static_cast<double>(size);
}

// -- upsert: batch-size sweep at fixed threads ------------------------------

void upsert_batch_serve(benchmark::State& s) {
  const auto batch = static_cast<std::uint64_t>(s.range(0));
  bench_serve<crcw::serve::ServeSession>(s, "upsert-batch", default_threads(), batch,
                                         /*mixed=*/false, executor_shards(), batch);
}

// -- mixed 50/50 traffic (windowed, read-your-writes audited) ---------------

void mixed_threads_serve(benchmark::State& s) {
  bench_serve<crcw::serve::ServeSession>(s, "mixed", static_cast<int>(s.range(0)), 4096,
                                         /*mixed=*/true, executor_shards(), 4096);
}
void mixed_threads_mutex(benchmark::State& s) {
  const int threads = static_cast<int>(s.range(0));
  const auto& keys = cached_keys(kOps);
  RowRecorder rec(s, spec("mixed", "mutex", threads, 0));
  std::uint64_t size = 0;
  for (auto _ : s) {
    crcw::util::Timer timer;
    size = mutex_run(keys, threads, /*mixed=*/true);
    rec.record(timer.seconds());
  }
  s.counters["keys"] = static_cast<double>(size);
}

// -- shards: shard-count sweep on the sharded backend (m = shards) ----------

void shards_serve(benchmark::State& s) {
  const int shards = static_cast<int>(s.range(0));
  bench_serve<crcw::serve::ShardedServeSession>(
      s, "shards", default_threads(), 4096, /*mixed=*/false, shards,
      static_cast<std::uint64_t>(shards));
}

// -- wire: external client process over loopback TCP ------------------------

#ifdef CRCW_WIRE_LOADGEN_PATH
/// fork/exec the load generator against `port`; true iff it exits 0 (it
/// self-audits op completion and read-your-writes).
bool spawn_loadgen(std::uint16_t port, std::uint64_t ops, int threads,
                   std::uint64_t window) {
  const std::string port_s = std::to_string(port);
  const std::string ops_s = std::to_string(ops);
  const std::string threads_s = std::to_string(threads);
  const std::string window_s = std::to_string(window);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The child's summary line would interleave with the bench table;
    // its exit code carries the verdict, stderr stays for diagnostics.
    if (FILE* devnull = std::fopen("/dev/null", "w")) {
      dup2(fileno(devnull), STDOUT_FILENO);
    }
    const char* argv[] = {CRCW_WIRE_LOADGEN_PATH, "--port", port_s.c_str(),
                          "--ops", ops_s.c_str(), "--threads", threads_s.c_str(),
                          "--window", window_s.c_str(), "--mixed", nullptr};
    execv(CRCW_WIRE_LOADGEN_PATH, const_cast<char* const*>(argv));
    _exit(127);  // exec failed
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}
#endif

void wire_serve(benchmark::State& s) {
#ifndef CRCW_WIRE_LOADGEN_PATH
  s.SkipWithError("examples not built: no wire_loadgen to spawn");
#else
  namespace sv = crcw::serve;
  const int clients = static_cast<int>(s.range(0));
  const std::uint64_t ops = crcw::bench::smoke_mode() ? kWireOps / 8 : kWireOps;
  std::vector<double> p99_commit;
  std::uint64_t rounds = 0;
  {
    RowRecorder rec(s, spec("wire", "serve", clients, 4, /*baseline=*/""));
    for (auto _ : s) {
      sv::ServeConfig cfg = serve_config(clients, 4096, ops, /*shards=*/4);
      sv::ShardedServeSession session(cfg);
      sv::WireServer server(session, cfg.wire);  // port 0 → ephemeral
      server.start();
      crcw::util::Timer timer;
      const bool ok = spawn_loadgen(server.port(), ops, clients, /*window=*/64);
      const double secs = timer.seconds();
      server.stop();
      session.stop_pump();
      if (!ok) {
        s.SkipWithError("wire_loadgen failed (completion or RYW audit)");
        return;
      }
      rec.record(secs);
      p99_commit.push_back(static_cast<double>(session.metrics().p99_enqueue_to_commit_ns()));
      rounds = session.backend().round();
    }
    s.counters["rounds"] = static_cast<double>(rounds);
    if (!p99_commit.empty()) {
      s.counters["p99_us"] = p99_commit.back() / 1e3;
    }
  }
  report().add_row({"ext_serve/p99-enqueue-commit/wire", "serve", "", clients,
                    static_cast<std::uint64_t>(ops), 4, std::move(p99_commit), {}});
#endif
}

// -- registration ------------------------------------------------------------

void client_args(benchmark::internal::Benchmark* b) {
  // Smoke keeps {1, 2, 4}: t = 4 is the acceptance point (serve must beat
  // mutex there), so the committed smoke baseline has to contain it.
  for (const int t : crcw::bench::sweep_points({1, 2, 4, 8}, 3)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void batch_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t m :
       crcw::bench::sweep_points<std::int64_t>({256, 1024, 4096, 16384, 65536}, 2)) {
    b->Arg(m);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void shard_args(benchmark::internal::Benchmark* b) {
  // Smoke keeps {1, 2}: the sharded path and its flat degenerate case.
  for (const std::int64_t m : crcw::bench::sweep_points<std::int64_t>({1, 2, 4, 8}, 2)) {
    b->Arg(m);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void wire_args(benchmark::internal::Benchmark* b) {
  // The axis is external client threads over one TCP connection each.
  for (const int t : crcw::bench::sweep_points({1, 2, 4}, 2)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK(upsert_threads_serve)->Apply(client_args);
BENCHMARK(upsert_threads_mutex)->Apply(client_args);
BENCHMARK(upsert_threads_direct)->Apply(client_args);
BENCHMARK(upsert_batch_serve)->Apply(batch_args);
BENCHMARK(mixed_threads_serve)->Apply(client_args);
BENCHMARK(mixed_threads_mutex)->Apply(client_args);
BENCHMARK(shards_serve)->Apply(shard_args);
BENCHMARK(wire_serve)->Apply(wire_args);

}  // namespace
