// The cost ladder: one op stream replayed through each layer's public
// entry point in turn, timed from outside.
//
//   core.tag_ns           RoundTag::try_acquire per write (lookups read the tag)
//   ds.op_ns              ConcurrentHashMap find / upsert / erase, phase A then B
//   serve.flat_op_ns      ServeSession (BatchScheduler) submit + pump
//   serve.sharded_op_ns   ShardedServeSession submit + pump
//   wire.op_ns            WireClient::pipeline over loopback to a WireServer
//   ladder.mutex_op_ns    std::unordered_map under one std::mutex (reference)
//
// Every in-process rung runs the stream in rounds of `ladder_round` ops on
// the workload's executor width, so a rung's delta over the one below is
// what that layer adds. Counters (obs::ContentionTotals) come from separate
// profile passes that are never timed. Every serve.* and shards.* statistic
// comes from the sharded rung on every workload, with the benchmark thread
// as the only pump; an extra pass, outside the timed ones, times each
// submit() and each window's wait.
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "algorithms/cc.hpp"
#include "bench.hpp"
#include "core/arbiter.hpp"
#include "core/instrumented.hpp"
#include "core/policies.hpp"
#include "core/round_tag.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "graph/reference.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_server.hpp"
#include "serve/wire_client.hpp"

namespace perfbench {

using crcw::serve::Op;
using crcw::serve::OpFuture;
using crcw::serve::OpKind;

namespace {

using Map = crcw::ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

constexpr int kMinPasses = 3;

/// num / den as a double; 0 when there is nothing to divide by.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Repeats `pass` (which returns its elapsed ns) at least kMinPasses times
/// and until `budget_s` is spent; returns the median ns per op.
template <typename Pass>
double median_pass_ns(std::size_t ops, double budget_s, Pass&& pass) {
  std::vector<double> per_op;
  const std::uint64_t start = now_ns();
  while (static_cast<int>(per_op.size()) < kMinPasses || seconds_since(start) < budget_s) {
    per_op.push_back(static_cast<double>(pass()) / static_cast<double>(ops));
  }
  return median(per_op);
}

/// [begin, end) of round j of the stream.
struct Rounds {
  std::size_t n, size;
  [[nodiscard]] std::size_t count() const { return (n + size - 1) / size; }
  [[nodiscard]] std::size_t begin(std::size_t j) const { return j * size; }
  [[nodiscard]] std::size_t end(std::size_t j) const { return std::min(n, (j + 1) * size); }
};

// -- core ----------------------------------------------------------------------

double rung_core(const std::vector<Op>& ops, Rounds rounds, int threads,
                 std::uint64_t universe, double budget) {
  std::vector<crcw::RoundTag> tags(universe);
  crcw::round_t round = 0;
  std::atomic<std::uint64_t> sink{0};
  return median_pass_ns(ops.size(), budget, [&] {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < rounds.count(); ++j) {
      ++round;
      const auto b = static_cast<std::int64_t>(rounds.begin(j));
      const auto e = static_cast<std::int64_t>(rounds.end(j));
      std::uint64_t local = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : local)
      for (std::int64_t i = b; i < e; ++i) {
        const Op& op = ops[static_cast<std::size_t>(i)];
        crcw::RoundTag& tag = tags[op.key];
        local += op.kind == OpKind::kLookup ? tag.last_round() & 1 : tag.try_acquire(round);
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    }
    return now_ns() - t0;
  });
}

/// Contention profile of the same stream through an instrumented CAS-LT
/// arbiter (one target per key).
crcw::obs::ContentionTotals profile_core(const std::vector<Op>& ops, Rounds rounds,
                                         int threads, std::uint64_t universe) {
  crcw::WriteArbiter<crcw::InstrumentedPolicy<crcw::CasLtPolicy>> arbiter(universe);
  for (std::size_t j = 0; j < rounds.count(); ++j) {
    auto scope = arbiter.next_round(crcw::ResetMode::kNone);
    const auto b = static_cast<std::int64_t>(rounds.begin(j));
    const auto e = static_cast<std::int64_t>(rounds.end(j));
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = b; i < e; ++i) {
      const Op& op = ops[static_cast<std::size_t>(i)];
      if (op.kind != OpKind::kLookup) (void)scope.acquire(op.key);
    }
  }
  return arbiter.contention().totals();
}

// -- ds ------------------------------------------------------------------------

struct DsRung {
  double op_ns = 0, grow_ms = 0, reclaim_ms = 0, bytes_per_key = 0;
  std::uint64_t tombstones = 0;
  bool full = false;
};

/// One pass of the stream through `table`, rounds numbered from `round`.
/// Grow reservation before each round and reclaim after it, as the serve
/// schedulers do at batch boundaries; their time is accumulated.
std::uint64_t ds_pass(Map& table, const std::vector<Op>& ops, Rounds rounds, int threads,
                      crcw::round_t& round, DsRung& out) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t grow_ns = 0, reclaim_ns = 0;
  std::atomic<bool> full{false};
  std::atomic<std::uint64_t> sink{0};
  for (std::size_t j = 0; j < rounds.count(); ++j) {
    ++round;
    const auto b = static_cast<std::int64_t>(rounds.begin(j));
    const auto e = static_cast<std::int64_t>(rounds.end(j));
    std::uint64_t writes = 0;
    for (std::int64_t i = b; i < e; ++i) {
      writes += ops[static_cast<std::size_t>(i)].kind != OpKind::kLookup ? 1 : 0;
    }
    const std::uint64_t tg = now_ns();
    (void)table.maybe_grow_for_backlog(writes, threads);
    grow_ns += now_ns() - tg;
    const crcw::round_t r = round;
    std::uint64_t local = 0;
#pragma omp parallel num_threads(threads) reduction(+ : local)
    {
#pragma omp for schedule(static)
      for (std::int64_t i = b; i < e; ++i) {
        const Op& op = ops[static_cast<std::size_t>(i)];
        if (op.kind != OpKind::kLookup) continue;
        const std::uint64_t* v = table.find(op.key);
        local += v != nullptr ? *v : 0;
      }
#pragma omp for schedule(static)
      for (std::int64_t i = b; i < e; ++i) {
        const Op& op = ops[static_cast<std::size_t>(i)];
        if (op.kind == OpKind::kLookup) continue;
        const crcw::ds::MapUpsert u = op.kind == OpKind::kErase
                                          ? table.erase(r, op.key)
                                          : table.upsert(r, op.key, op.value);
        if (u == crcw::ds::MapUpsert::kFull) full.store(true, std::memory_order_relaxed);
      }
    }
    sink.fetch_add(local, std::memory_order_relaxed);
    table.flush_round();
    const std::uint64_t tr = now_ns();
    (void)table.maybe_reclaim_parallel(threads, table.telemetry_signal());
    reclaim_ns += now_ns() - tr;
  }
  out.grow_ms += static_cast<double>(grow_ns) * 1e-6;
  out.reclaim_ms += static_cast<double>(reclaim_ns) * 1e-6;
  out.full = out.full || full.load();
  return now_ns() - t0;
}

std::unique_ptr<Map> ds_table(std::uint64_t universe, std::uint64_t seed, int threads,
                              bool telemetry) {
  crcw::serve::TableConfig tc;
  tc.telemetry = telemetry;
  auto table = std::make_unique<Map>(2 * universe, tc.hash_config("perfbench-ds"));
  const auto n = static_cast<std::int64_t>(universe);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t k = 0; k < n; ++k) {
    (void)table->upsert(1, static_cast<std::uint64_t>(k),
                        prefill_value(static_cast<std::uint64_t>(k), seed));
  }
  table->flush_round();
  return table;
}

DsRung rung_ds(const std::vector<Op>& ops, Rounds rounds, int threads, std::uint64_t universe,
               std::uint64_t seed, double budget) {
  DsRung out;
  const std::uint64_t rss0 = current_rss_bytes();
  auto table = ds_table(universe, seed, threads, false);
  out.bytes_per_key = ratio(current_rss_bytes() - rss0, universe);
  crcw::round_t round = 1;
  std::vector<double> grow, reclaim;  // per timed pass
  out.op_ns = median_pass_ns(ops.size(), budget, [&] {
    DsRung pass;
    const std::uint64_t ns = ds_pass(*table, ops, rounds, threads, round, pass);
    grow.push_back(pass.grow_ms);
    reclaim.push_back(pass.reclaim_ms);
    out.full = out.full || pass.full;
    return ns;
  });
  out.grow_ms = median(grow);
  out.reclaim_ms = median(reclaim);
  out.tombstones = table->tombstones();
  return out;
}

// -- serve ---------------------------------------------------------------------

struct ServeRung {
  double op_ns = 0;
  LatencyHistogram round_ns, shard_round_ops, submit_ns, wait_ns;
  std::uint64_t rounds = 0, ops = 0, batches = 0, deadline_batches = 0, writes = 0, wins = 0;
  double hit_rate = 0;
};

template <typename Session>
ServeRung rung_serve(const std::vector<Op>& ops, Rounds rounds,
                     const crcw::serve::ServeConfig& cfg, std::uint64_t universe,
                     std::uint64_t seed, double budget) {
  ServeRung out;
  Session session(cfg);
  prefill(session, universe, seed);
  auto& backend = session.backend();
  const int shards = backend.shard_count();
  std::vector<OpFuture> fut(rounds.size);
  std::vector<std::uint64_t> shard_ops(static_cast<std::size_t>(shards));
  // One window per round: submit it, then pump with this thread as the
  // only pump. `detail` times each submit (the extra, untimed last pass).
  const auto pass = [&](bool detail) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < rounds.count(); ++j) {
      const std::size_t b = rounds.begin(j);
      const std::size_t e = rounds.end(j);
      for (std::size_t i = b; i < e; ++i) {
        const std::uint64_t ts = detail ? now_ns() : 0;
        session.submit(ops[i], fut[i - b]);
        if (detail) out.submit_ns.record(now_ns() - ts);
      }
      const std::uint64_t t_last = now_ns();
      while (session.pending() > 0) {
        const std::uint64_t tp = now_ns();
        if (!session.poll()) continue;
        const std::uint64_t te = now_ns();
        out.round_ns.record(te - tp);
        if constexpr (requires { backend.shard_ops(0); }) {
          for (int s = 0; s < shards; ++s) {
            const std::uint64_t now_ops = backend.shard_ops(s);
            auto& prev = shard_ops[static_cast<std::size_t>(s)];
            if (now_ops != prev) out.shard_round_ops.record(now_ops - prev);
            prev = now_ops;
          }
        }
      }
      for (std::size_t i = b; i < e; ++i) {
        while (!fut[i - b].ready()) {
        }
        if (ops[i].kind == OpKind::kLookup) continue;
        ++out.writes;
        out.wins += fut[i - b].result().won ? 1 : 0;
      }
      if (detail) out.wait_ns.record(now_ns() - t_last, e - b);
    }
    return now_ns() - t0;
  };
  const crcw::serve::BackendStats before = session.stats();
  out.op_ns = median_pass_ns(ops.size(), budget, [&] { return pass(false); });
  (void)pass(true);
  const crcw::serve::BackendStats after = session.stats();
  out.rounds = after.rounds - before.rounds;
  out.ops = after.ops_served - before.ops_served;
  out.batches = after.batches - before.batches;
  out.deadline_batches = after.deadline_batches - before.deadline_batches;
  out.hit_rate = session.metrics().routing_hit_rate();
  return out;
}

// -- wire ----------------------------------------------------------------------

struct WireRung {
  double op_ns = 0;
  LatencyHistogram window_ns;
  std::uint64_t lookups = 0, stale = 0, windows = 0, rounds = 0;
};

WireRung rung_wire(const std::vector<Op>& ops, const crcw::serve::ServeConfig& cfg,
                   std::uint64_t universe, std::uint64_t seed, std::size_t window,
                   double budget) {
  WireRung out;
  crcw::serve::ShardedServeSession session(cfg);
  prefill(session, universe, seed);
  crcw::serve::WireServer server(session, cfg.wire);
  server.start();
  {
    crcw::serve::WireClient client("127.0.0.1", server.port());
    std::vector<Op> chunk;
    const crcw::round_t r0 = session.backend().round();
    out.op_ns = median_pass_ns(ops.size(), budget, [&] {
      const std::uint64_t t0 = now_ns();
      for (std::size_t b = 0; b < ops.size(); b += window) {
        const std::size_t e = std::min(ops.size(), b + window);
        chunk.assign(ops.begin() + static_cast<std::ptrdiff_t>(b),
                     ops.begin() + static_cast<std::ptrdiff_t>(e));
        const std::uint64_t tw = now_ns();
        (void)client.pipeline(chunk, window);
        out.window_ns.record(now_ns() - tw);
        ++out.windows;
        for (const Op& op : chunk) out.lookups += op.kind == OpKind::kLookup;
      }
      return now_ns() - t0;
    });
    out.rounds = session.backend().round() - r0;
    out.stale = client.stale_retries();
  }
  server.stop();
  session.stop_pump();
  return out;
}

// -- mutex reference -----------------------------------------------------------

double rung_mutex(const std::vector<Op>& ops, Rounds rounds, int threads,
                  std::uint64_t universe, std::uint64_t seed, double budget) {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::mutex mu;  // guards map
  map.reserve(universe);
  for (std::uint64_t k = 0; k < universe; ++k) map.emplace(k, prefill_value(k, seed));
  std::atomic<std::uint64_t> sink{0};
  return median_pass_ns(ops.size(), budget, [&] {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < rounds.count(); ++j) {
      const auto b = static_cast<std::int64_t>(rounds.begin(j));
      const auto e = static_cast<std::int64_t>(rounds.end(j));
      std::uint64_t local = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : local)
      for (std::int64_t i = b; i < e; ++i) {
        const Op& op = ops[static_cast<std::size_t>(i)];
        const std::lock_guard<std::mutex> lock(mu);
        switch (op.kind) {
          case OpKind::kLookup: {
            const auto it = map.find(op.key);
            local += it != map.end() ? it->second : 0;
            break;
          }
          case OpKind::kErase:
            map.erase(op.key);
            break;
          default:
            map[op.key] = op.value;
        }
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    }
    return now_ns() - t0;
  });
}

}  // namespace

void run_ladder(const WorkloadSpec& spec, const Inputs& in, const Options& opt,
                RunResult& res) {
  const std::vector<Op>& ops = in.ladder.ops;
  const int threads = spec.cfg.batch.resolved_threads();
  const Rounds rounds{ops.size(), spec.ladder_round};
  const std::uint64_t universe = spec.universe;
  const double budget = opt.seconds / 12;  // per rung

  const double core_ns = rung_core(ops, rounds, threads, universe, budget);
  const DsRung ds = rung_ds(ops, rounds, threads, universe, opt.seed, budget);
  if (ds.full) res.problem("ds rung: table full despite backlog reservation");

  crcw::serve::ServeConfig rung_cfg = spec.cfg.with_max_batch(spec.ladder_round);
  const ServeRung flat = rung_serve<crcw::serve::ServeSession>(ops, rounds, rung_cfg, universe,
                                                                 opt.seed, budget);
  const ServeRung sharded = rung_serve<crcw::serve::ShardedServeSession>(
      ops, rounds, rung_cfg, universe, opt.seed, budget);
  // The wire handler submits bursts of at most io_batch ops, so the wire
  // rung closes batches on size only with max_batch <= io_batch.
  const auto io_batch = static_cast<std::uint64_t>(spec.cfg.wire.io_batch);
  const std::uint64_t wire_batch = std::min(spec.ladder_round, io_batch);
  const WireRung wire =
      rung_wire(ops, spec.cfg.with_max_batch(wire_batch), universe, opt.seed, 1024, budget);
  const double mutex_ns = rung_mutex(ops, rounds, threads, universe, opt.seed, budget);

  // Contention profiles (never timed).
  crcw::obs::ContentionTotals core_tot;
  crcw::obs::ContentionTotals hook_tot;
  {
    crcw::obs::MetricsRegistry registry;
    const crcw::obs::ScopedRegistry scope(registry);
    const crcw::algo::CcOptions cc_opts{.threads = spec.budget.nproc};
    (void)crcw::algo::detail::cc_kernel<crcw::InstrumentedPolicy<crcw::CasLtPolicy>>(
        in.graph_csr, cc_opts);
    hook_tot = registry.totals();
  }
  core_tot = spec.kv ? profile_core(ops, rounds, threads, universe) : hook_tot;
  crcw::obs::ContentionTotals table_tot;
  {
    auto table = ds_table(universe, opt.seed, threads, true);
    table->telemetry().site()->reset();
    crcw::round_t round = 1;
    DsRung ignored;
    (void)ds_pass(*table, ops, rounds, threads, round, ignored);
    table_tot = table->telemetry().site()->totals();
  }
  std::uint64_t writes = 0;
  for (const Op& op : ops) writes += op.kind != OpKind::kLookup;

  // cc: a plain sequential baseline against the parallel CAS-LT solve.
  std::vector<double> seq_s;
  const std::uint64_t seq_start = now_ns();
  while (seq_s.empty() || (seq_s.size() < 3 && seconds_since(seq_start) < budget)) {
    const std::uint64_t t = now_ns();
    (void)crcw::graph::connected_components(in.graph_csr);
    seq_s.push_back(seconds_since(t));
  }
  const CcPhase cc = run_cc_solves(in.graph_csr, in.graph_csr.num_edges() / 2,
                                   spec.budget.nproc, budget, 3, res);

  res.add("core.tag_ns", core_ns, "ns");
  res.add("core.cas_attempts_per_op",
          ratio(core_tot.atomics, spec.kv ? ops.size() : core_tot.attempts), "ratio");
  res.add("core.atomics_per_attempt", ratio(core_tot.atomics, core_tot.attempts), "ratio");
  res.add("core.win_ratio", ratio(core_tot.wins, core_tot.attempts), "ratio");
  res.add("ds.op_ns", ds.op_ns, "ns");
  res.add("ds.delta_ns", ds.op_ns - core_ns, "ns");
  res.add("ds.probes_per_op", ratio(table_tot.attempts, writes), "ratio");
  res.add("ds.fp_ratio", ratio(table_tot.fingerprint_fps, table_tot.group_loads), "ratio");
  res.add("ds.grow_ms", ds.grow_ms, "ms");
  res.add("ds.reclaim_ms", ds.reclaim_ms, "ms");
  res.add("ds.tombstones", static_cast<double>(ds.tombstones), "count");
  res.add("ds.reclaimed", static_cast<double>(table_tot.reclaimed), "count");
  res.add("ds.bytes_per_key", ds.bytes_per_key, "B");
  res.add("serve.flat_op_ns", flat.op_ns, "ns");
  res.add("serve.flat_delta_ns", flat.op_ns - ds.op_ns, "ns");
  res.add("serve.sharded_op_ns", sharded.op_ns, "ns");
  res.add("serve.sharded_delta_ns", sharded.op_ns - ds.op_ns, "ns");
  res.add("serve.submit_ns_p50", sharded.submit_ns.quantile(0.50), "ns");
  res.add("serve.submit_ns_p99", sharded.submit_ns.quantile(0.99), "ns");
  res.add("serve.wait_ns_p50", sharded.wait_ns.quantile(0.50), "ns");
  res.add("serve.round_ns_p50", sharded.round_ns.quantile(0.50), "ns");
  res.add("serve.round_ns_p99", sharded.round_ns.quantile(0.99), "ns");
  res.add("serve.ops_per_round", ratio(sharded.ops, sharded.rounds), "ops");
  res.add("serve.deadline_batch_ratio", ratio(sharded.deadline_batches, sharded.batches),
          "ratio");
  res.add("serve.write_win_ratio", ratio(sharded.wins, sharded.writes), "ratio");
  res.add("shards.hit_rate", sharded.hit_rate, "ratio");
  res.add("shards.ops_per_shard_round_p50", sharded.shard_round_ops.quantile(0.50), "ops");
  res.add("shards.ops_per_shard_round_p99", sharded.shard_round_ops.quantile(0.99), "ops");
  res.add("wire.op_ns", wire.op_ns, "ns");
  res.add("wire.delta_ns", wire.op_ns - sharded.op_ns, "ns");
  res.add("wire.window_us_p50", wire.window_ns.quantile(0.50) / 1e3, "us");
  res.add("wire.window_us_p99", wire.window_ns.quantile(0.99) / 1e3, "us");
  res.add("wire.stale_retry_ratio", ratio(wire.stale, wire.lookups), "ratio");
  res.add("wire.rounds_per_window", ratio(wire.rounds, wire.windows), "count");
  res.add("cc.iterations", static_cast<double>(cc.iterations), "count");
  res.add("cc.solve_1t_ms", median(seq_s) * 1e3, "ms");
  res.add("cc.speedup", ratio(median(seq_s), median(cc.solve_s)), "ratio");
  res.add("cc.hook_win_ratio", ratio(hook_tot.wins, hook_tot.attempts), "ratio");
  res.add("ladder.mutex_op_ns", mutex_ns, "ns");
  res.note("ladder_ops", static_cast<double>(ops.size()), "count");
  res.note("ladder_round", static_cast<double>(spec.ladder_round), "ops");
  res.note("ladder_threads", threads, "count");
}

}  // namespace perfbench
