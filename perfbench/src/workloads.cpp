// The four workloads, end to end through the public API.
//
//   kv-hot    ShardedServeSession, closed loop: one client thread submits a
//             window of ops and help-pumps until it completes. Zipf
//             θ=0.99 keys, 90% upsert / 10% lookup.
//   kv-paced  the same session with its background pump; one generator
//             thread sends on a fixed schedule (open loop) and stamps
//             completions while it waits. Uniform keys over 2^22, 50%
//             lookup / 40% upsert / 10% erase.
//   kv-wire   a WireServer over a 4-shard session in this process; pipelined
//             WireClient connections, 50/50 upsert/lookup, uniform keys.
//   cc-rmat   cc_caslt on a seeded R-MAT graph, several solves per run.
//
// A client that hits an error stops, records it (the run is then
// incorrect) and flushes the session, so no OpFuture it owns is still held
// by the engine when its storage goes away.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/cc.hpp"
#include "bench.hpp"
#include "graph/builder.hpp"
#include "graph/reference.hpp"
#include "serve/serve_server.hpp"
#include "serve/wire_client.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using crcw::serve::Op;
using crcw::serve::OpFuture;
using crcw::serve::OpKind;
using crcw::serve::Result;
using crcw::serve::ShardedServeSession;

namespace {

constexpr double kWarmupS = 0.5;
constexpr int kEpochs = 4;            // measured loops per untraced run
constexpr double kEpochWarmupS = 0.2;  // warm-up of each later epoch
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kTimeoutNs = 5'000'000'000ULL;  // an op not ready by then failed
constexpr unsigned kSpanSampleShift = 8;                 // traced runs keep 1 op in 256

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };
constexpr int kMaxIntervals = 16;  // latency is kept per measurement interval

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Runs `warmup` then `seconds` of measurement split into `intervals`
/// equal slices, sampling the clients' completed-op counters and advancing
/// `interval` at each boundary. Returns the per-slice completion rates (ops/s).
std::vector<double> coordinate(std::atomic<int>& phase, std::atomic<int>& interval,
                               const std::vector<PaddedCounter>& done, double warmup,
                               double seconds, int intervals) {
  const auto total = [&] {
    std::uint64_t sum = 0;
    for (const PaddedCounter& c : done) sum += c.value.load(std::memory_order_relaxed);
    return sum;
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  phase.store(kMeasure, std::memory_order_release);
  std::vector<double> rates;
  std::uint64_t t_prev = now_ns();
  std::uint64_t c_prev = total();
  const double slice = seconds / intervals;
  for (int i = 0; i < intervals; ++i) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t_prev)) +
                                  std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(slice)));
    const std::uint64_t t = now_ns();
    const std::uint64_t c = total();
    rates.push_back(static_cast<double>(c - c_prev) * 1e9 / static_cast<double>(t - t_prev));
    interval.store(std::min(i + 1, kMaxIntervals - 1), std::memory_order_relaxed);
    t_prev = t;
    c_prev = c;
  }
  phase.store(kStop, std::memory_order_release);
  return rates;
}

/// Per-client state of a kv loop; lives across the untraced and traced
/// loops of a traced run so the history covers both.
struct Client {
  HistoryLog log;
  RywTracker ryw;
  std::vector<LatencyHistogram> latency;  // ns, per op, one per interval
  LatencyHistogram send_lag;              // ns, per op
  const std::atomic<int>* interval = nullptr;  // the loop's current interval
  SpanBuffer spans;
  crcw::util::Xoshiro256 rng;  // window sizes
  std::uint64_t cursor = 0;     // position in the client's op stream
  std::uint64_t attempted = 0, failed = 0;
  std::string error;

  Client(std::size_t log_capacity, int shards, std::uint64_t seed)
      : log(log_capacity), ryw(shards), rng(seed) {}

  LatencyHistogram& lat() {
    return latency[static_cast<std::size_t>(interval->load(std::memory_order_relaxed))];
  }
  void reset_measure(const std::atomic<int>* current) {
    interval = current;
    latency.assign(kMaxIntervals, LatencyHistogram());
    send_lag = LatencyHistogram();
  }
};

/// Logs one completed op if its key is sampled, and checks read-your-writes
/// for lookups against the window-open snapshot.
void account(Client& c, const KeySample& sample, const Op& op, bool won, std::uint64_t value,
             std::uint64_t round, int shard, const std::vector<std::uint64_t>* ryw_snap) {
  if (op.kind == OpKind::kLookup) {
    const bool stale = ryw_snap != nullptr && !RywTracker::fresh(*ryw_snap, shard, round);
    if (stale && c.error.empty()) {
      c.error = "read-your-writes: lookup of key " + std::to_string(op.key) +
                " ran in round " + std::to_string(round) +
                ", not after this client's write round " +
                std::to_string((*ryw_snap)[static_cast<std::size_t>(shard)]);
    }
  } else {
    c.ryw.wrote(shard, round);
  }
  if (round > 0xffffffffULL && c.error.empty()) {
    c.error = "round id exceeds the history log's range";
  }
  if (sample.contains(op.key)) {
    c.log.add(HistoryEntry{static_cast<std::uint32_t>(op.key),
                           static_cast<std::uint32_t>(round),
                           static_cast<std::uint32_t>(op.value),
                           static_cast<std::uint32_t>(value), op.kind, won});
  }
}

/// Publishes every op still in the engine; a second failure is dropped
/// because the first one already made the run incorrect.
void flush_after_error(ShardedServeSession& session) noexcept {
  try {
    session.flush();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

/// Per-interval figures of one or more measured loops; a metric is the
/// median over the intervals.
struct LoopOutcome {
  std::vector<double> rates;   // completed ops per second
  std::vector<double> p50_ns;  // latency quantiles
  std::vector<double> p99_ns;
  std::uint64_t samples = 0;

  void append(const LoopOutcome& o) {
    rates.insert(rates.end(), o.rates.begin(), o.rates.end());
    p50_ns.insert(p50_ns.end(), o.p50_ns.begin(), o.p50_ns.end());
    p99_ns.insert(p99_ns.end(), o.p99_ns.begin(), o.p99_ns.end());
    samples += o.samples;
  }
};

// -- kv-hot: closed loop, clients help-pump ----------------------------------

void hot_client(ShardedServeSession& session, const WorkloadSpec& spec,
                const OpStream& stream, const KeySample& sample, std::atomic<int>& phase,
                PaddedCounter& done, Client& c) {
  // Window sizes are drawn from [W/2, 3W/2] so the clients do not lock
  // into one fixed interleaving of their windows across batches.
  const std::size_t w_max = spec.window + spec.window / 2;
  std::vector<OpFuture> fut(w_max);
  std::vector<std::uint64_t> t_sub(w_max);
  std::vector<std::uint8_t> ready(w_max);
  auto& backend = session.backend();
  try {
    while (phase.load(std::memory_order_acquire) != kStop) {
      const std::size_t w = spec.window / 2 + c.rng.bounded(spec.window + 1);
      const bool measure = phase.load(std::memory_order_relaxed) == kMeasure;
      const auto snap = c.ryw.snapshot();
      for (std::size_t i = 0; i < w; ++i) {
        t_sub[i] = now_ns();
        session.submit(stream.at(c.cursor + i), fut[i]);
      }
      const std::uint64_t t_last = now_ns();
      std::fill(ready.begin(), ready.begin() + static_cast<std::ptrdiff_t>(w), 0);
      std::size_t remaining = w;
      while (remaining > 0) {
        const std::uint64_t t_poll = now_ns();
        const bool ran = session.poll();
        const std::uint64_t t = now_ns();
        if (ran && c.spans.sampled(c.cursor)) {
          c.spans.add(SpanKind::kServePoll, c.cursor, 0, t_poll, t);
        }
        for (std::size_t i = 0; i < w; ++i) {
          if (ready[i] != 0 || !fut[i].ready()) continue;
          ready[i] = 1;
          --remaining;
          if (measure) c.lat().record(t - t_sub[i]);
          const std::uint64_t op_id = c.cursor + i;
          if (c.spans.sampled(op_id)) {
            const std::uint64_t root = c.spans.add(SpanKind::kClientOp, op_id, 0, t_sub[i], t);
            const std::uint64_t sub_end = i + 1 < w ? t_sub[i + 1] : t_last;
            c.spans.add(SpanKind::kServeSubmit, op_id, root, t_sub[i], sub_end);
            c.spans.add(SpanKind::kServeWait, op_id, root, t_last, t);
          }
        }
        if (remaining > 0 && t - t_last > kTimeoutNs) {
          c.failed += remaining;
          throw std::runtime_error("timeout: " + std::to_string(remaining) +
                                   " ops not ready after 5 s");
        }
        if (!ran) cpu_relax();
      }
      for (std::size_t i = 0; i < w; ++i) {
        const Op& op = stream.at(c.cursor + i);
        const Result& r = fut[i].result();
        account(c, sample, op, r.won, r.value, r.round, backend.shard_of(op.key), &snap);
      }
      c.cursor += w;
      c.attempted += w;
      if (measure) done.value.fetch_add(w, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    c.error = std::string("client: ") + e.what();
    c.failed += 1;
    flush_after_error(session);
  }
}

// -- kv-paced: open loop, background pump -------------------------------------

/// In-flight ops of the open loop. Slots are reused once collected; the
/// ring only fills if completions stop for 2^16 ops.
struct PacedShared {
  static constexpr std::size_t kRing = 1 << 16;
  std::vector<OpFuture> fut = std::vector<OpFuture>(kRing);
  std::vector<std::uint64_t> due = std::vector<std::uint64_t>(kRing);
  std::vector<std::uint8_t> stamped = std::vector<std::uint8_t>(kRing);
  std::uint64_t next = 0;  // next op of the stream (continues across loops)
};

/// One thread sends on the schedule and, while waiting for the next due
/// time, stamps completions — so a completion is seen within one pass
/// over the (few dozen) in-flight ops.
void paced_client(ShardedServeSession& session, const WorkloadSpec& spec,
                  const OpStream& stream, const KeySample& sample, std::atomic<int>& phase,
                  PacedShared& sh, PaddedCounter& done, Client& c) {
  const double period_ns = 1e9 / spec.offered_rate;
  auto& backend = session.backend();
  const std::uint64_t k0 = sh.next;
  std::uint64_t head = k0;
  std::uint64_t k = k0;
  const auto collect = [&] {
    const std::uint64_t t = now_ns();
    const bool measure = phase.load(std::memory_order_relaxed) == kMeasure;
    for (std::uint64_t i = head; i < k; ++i) {
      const std::size_t slot = i % PacedShared::kRing;
      if (sh.stamped[slot] != 0 || !sh.fut[slot].ready()) continue;
      sh.stamped[slot] = 1;
      if (measure) {
        c.lat().record(t - sh.due[slot]);
        done.value.fetch_add(1, std::memory_order_relaxed);
      }
      if (c.spans.sampled(i)) c.spans.add(SpanKind::kClientOp, i, 0, sh.due[slot], t);
      const Op& op = stream.at(i);
      const Result& r = sh.fut[slot].result();
      account(c, sample, op, r.won, r.value, r.round, backend.shard_of(op.key), nullptr);
    }
    while (head < k && sh.stamped[head % PacedShared::kRing] != 0) ++head;
    if (head < k && t - sh.due[head % PacedShared::kRing] > kTimeoutNs) {
      throw std::runtime_error("timeout: op " + std::to_string(head) + " not ready after 5 s");
    }
  };
  try {
    const std::uint64_t t0 = now_ns();
    while (phase.load(std::memory_order_acquire) != kStop) {
      const std::uint64_t due =
          t0 + static_cast<std::uint64_t>(static_cast<double>(k - k0) * period_ns);
      do {
        collect();
      } while (now_ns() < due);
      if (k - head >= PacedShared::kRing) throw std::runtime_error("open-loop ring full");
      const std::size_t slot = k % PacedShared::kRing;
      const std::uint64_t t_send = now_ns();
      sh.due[slot] = due;
      sh.stamped[slot] = 0;
      session.submit(stream.at(k), sh.fut[slot]);
      if (phase.load(std::memory_order_relaxed) == kMeasure) c.send_lag.record(t_send - due);
      if (c.spans.sampled(k)) c.spans.add(SpanKind::kServeSubmit, k, 0, t_send, now_ns());
      ++k;
    }
    while (head < k) {
      collect();
      cpu_relax();
    }
  } catch (const std::exception& e) {
    c.error = std::string("open loop: ") + e.what();
    c.failed += k - head;
    flush_after_error(session);
  }
  c.attempted += k - k0;
  sh.next = k;
}

// -- kv-wire: pipelined WireClient connections --------------------------------

void wire_client(std::uint16_t port, const WorkloadSpec& spec, const OpStream& stream,
                 const KeySample& sample, std::atomic<int>& phase, PaddedCounter& done,
                 Client& c, int shards) {
  const std::size_t w = spec.window;
  std::vector<Op> ops(w);
  try {
    crcw::serve::WireClient client("127.0.0.1", port);
    while (phase.load(std::memory_order_acquire) != kStop) {
      const bool measure = phase.load(std::memory_order_relaxed) == kMeasure;
      for (std::size_t i = 0; i < w; ++i) ops[i] = stream.at(c.cursor + i);
      const auto snap = c.ryw.snapshot();
      const std::uint64_t t0 = now_ns();
      const auto resp = client.pipeline(ops, w);
      const std::uint64_t t1 = now_ns();
      // pipeline() sends the whole window at once and returns when every
      // response is in; it exposes no per-op arrival time. So each op is
      // timed from the window's open to pipeline()'s return: per-op latency
      // at window granularity, one sample per op.
      if (measure) c.lat().record(t1 - t0, w);
      if (c.spans.sampled(c.cursor)) c.spans.add(SpanKind::kWirePipeline, c.cursor, 0, t0, t1);
      for (std::size_t i = 0; i < w; ++i) {
        if (static_cast<int>(resp[i].shard) >= shards) {
          throw std::runtime_error("bad shard id in a wire response");
        }
        account(c, sample, ops[i], resp[i].won, resp[i].value, resp[i].round,
                static_cast<int>(resp[i].shard), &snap);
      }
      c.cursor += w;
      c.attempted += w;
      if (measure) done.value.fetch_add(w, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    c.error = std::string("wire client: ") + e.what();
    c.failed += w;
    c.attempted += w;
  }
}

struct KvRun {
  std::unique_ptr<ShardedServeSession> session;
  std::unique_ptr<crcw::serve::WireServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  PacedShared paced;
};

/// One measured loop of the workload over an already set-up session.
LoopOutcome kv_loop(const WorkloadSpec& spec, Inputs& in, const KeySample& sample, KvRun& run,
                    double warmup, double seconds, int intervals) {
  std::atomic<int> phase{kWarmup};
  std::atomic<int> interval{0};
  const std::size_t n = run.clients.size();
  std::vector<PaddedCounter> done(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  const int shards = run.session->backend().shard_count();
  for (auto& c : run.clients) c->reset_measure(&interval);
  if (spec.open_loop) {
    run.session->start_pump();
    threads.emplace_back(paced_client, std::ref(*run.session), std::cref(spec),
                         std::cref(in.streams[0]), std::cref(sample), std::ref(phase),
                         std::ref(run.paced), std::ref(done[0]), std::ref(*run.clients[0]));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (spec.wire) {
        threads.emplace_back(wire_client, run.server->port(), std::cref(spec),
                             std::cref(in.streams[i]), std::cref(sample), std::ref(phase),
                             std::ref(done[i]), std::ref(*run.clients[i]), shards);
      } else {
        threads.emplace_back(hot_client, std::ref(*run.session), std::cref(spec),
                             std::cref(in.streams[i]), std::cref(sample), std::ref(phase),
                             std::ref(done[i]), std::ref(*run.clients[i]));
      }
    }
  }
  LoopOutcome out;
  out.rates = coordinate(phase, interval, done, warmup, seconds, intervals);
  for (std::thread& t : threads) t.join();
  if (spec.open_loop) run.session->stop_pump();
  for (int i = 0; i < intervals; ++i) {
    LatencyHistogram h;
    for (const auto& c : run.clients) h.merge(c->latency[static_cast<std::size_t>(i)]);
    if (h.count() == 0) continue;
    out.samples += h.count();
    out.p50_ns.push_back(h.quantile(0.50));
    out.p99_ns.push_back(h.quantile(0.99));
  }
  return out;
}

/// Constructs the session (and server) and loads the initial state; the
/// time this takes is setup_s.
void kv_setup(const WorkloadSpec& spec, std::uint64_t seed, KvRun& run) {
  run.session = std::make_unique<ShardedServeSession>(spec.cfg);
  prefill(*run.session, spec.universe, seed);
  if (spec.wire) {
    run.server = std::make_unique<crcw::serve::WireServer>(*run.session, spec.cfg.wire);
    run.server->start();
  }
}

double kv_setup_median(const WorkloadSpec& spec, std::uint64_t seed, KvRun& run, int repeats) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    run.server.reset();
    run.session.reset();
    const std::uint64_t t = now_ns();
    kv_setup(spec, seed, run);
    times.push_back(seconds_since(t));
  }
  return median(times);
}

void check_kv_history(const WorkloadSpec& spec, KvRun& run, std::uint64_t seed,
                      RunResult& res) {
  std::vector<const HistoryLog*> logs;
  for (const auto& c : run.clients) {
    logs.push_back(&c->log);
    if (!c->error.empty()) res.problem(c->error);
    res.attempted += c->attempted;
    res.failed += c->failed;
  }
  if (run.server) run.server->stop();
  run.session->stop_pump();
  run.session->flush();
  const auto universe = spec.universe;
  const CheckReport rep = check_history(
      logs,
      [&](std::uint64_t key) -> std::optional<std::uint64_t> {
        if (key >= universe) return std::nullopt;
        return prefill_value(key, seed);
      },
      [&](std::uint64_t key) { return run.session->committed(key); }, true);
  if (!rep.ok()) {
    res.problem("history: " + std::to_string(rep.violations) +
                " violation(s), first: " + rep.first_violation);
  }
  if (rep.truncated) {
    // A full log skips the lookup, losing-write and final-value checks.
    res.problem("history: a client's log filled, so only the one-winner check ran; "
                "raise the log's rate ceiling");
  }
  res.note("history_entries", static_cast<double>(rep.entries), "count");
  res.note("history_keys", static_cast<double>(rep.keys), "count");
}

/// Reference labels of a graph, computed once per run outside any timing.
struct CcReference {
  std::vector<crcw::graph::vertex_t> labels;
  std::uint64_t components = 0;
};

CcReference cc_reference(const crcw::graph::Csr& g) {
  CcReference ref;
  ref.labels = crcw::graph::connected_components(g);
  for (std::size_t v = 0; v < ref.labels.size(); ++v) {
    if (ref.labels[v] == v) ++ref.components;
  }
  return ref;
}

bool cc_matches(const crcw::graph::Csr& g, const CcReference& ref,
                const crcw::algo::CcResult& r, std::string& why) {
  if (crcw::graph::canonicalize_labels(r.label) != ref.labels) {
    why = "cc labels differ from the sequential union-find";
    return false;
  }
  if (r.forest_edges.size() != g.num_vertices() - ref.components) {
    why = "forest_edges has " + std::to_string(r.forest_edges.size()) +
          " edges, expected n - components = " +
          std::to_string(g.num_vertices() - ref.components);
    return false;
  }
  return true;
}

std::string trace_path(const WorkloadSpec& spec, const Options& opt) {
  return opt.out_dir + "/trace-" + spec.name + "-seed" + std::to_string(opt.seed) + ".json";
}

/// The checker's sample of keys for a workload.
KeySample history_sample(const WorkloadSpec& spec, const Inputs& in, std::uint64_t seed) {
  KeySample s;
  s.salt = seed * 0xbf58476d1ce4e5b9ULL;
  s.shift = spec.open_loop ? 3 : 6;
  if (spec.zipf > 0) {
    s.hashed_from = 16;
    s.always.push_back(in.hot_key);
  }
  return s;
}

}  // namespace

CcPhase run_cc_solves(const crcw::graph::Csr& g, std::uint64_t input_edges, int threads,
                      double budget_s, int min_solves, RunResult& res) {
  CcPhase out;
  const CcReference ref = cc_reference(g);
  const crcw::algo::CcOptions opts{.threads = threads};
  (void)crcw::algo::cc_caslt(g, opts);  // warm-up: page in, spin up the team
  const std::uint64_t start = now_ns();
  while (static_cast<int>(out.solve_s.size()) < min_solves ||
         seconds_since(start) < budget_s) {
    const std::uint64_t t = now_ns();
    const crcw::algo::CcResult r = crcw::algo::cc_caslt(g, opts);
    out.solve_s.push_back(seconds_since(t));
    out.iterations = r.iterations;
    std::string why;
    if (!cc_matches(g, ref, r, why)) {
      res.problem(why);
      break;
    }
  }
  // The lower quartile of the solve times: another process on the host can
  // only slow a solve down, so this moves least with the machine's load.
  std::vector<double> sorted = out.solve_s;
  std::sort(sorted.begin(), sorted.end());
  out.edges_per_s = static_cast<double>(input_edges) / sorted[sorted.size() / 4];
  return out;
}

void run_kv(const WorkloadSpec& spec, Inputs& in, const Options& opt, RunResult& res) {
  if (spec.universe > 0xffffffffULL) {
    throw std::invalid_argument("universe exceeds the history log's 32-bit keys");
  }
  const KeySample sample = history_sample(spec, in, opt.seed);
  KvRun run;
  const int shards = spec.cfg.shards.count;
  const auto n = static_cast<std::size_t>(spec.clients);
  // The log holds every sampled op of the run. The open loop logs a fixed
  // share (1 key in 8) of its offered rate; a closed loop's rate is what
  // the code achieves, so its log is sized for a ceiling three times the
  // fastest rate measured (kv-hot logs ~60k entries/s per client). A log
  // that still fills fails the run (check_kv_history).
  const double logged_per_s = spec.open_loop ? spec.offered_rate / 4 : 200'000.0;
  const auto log_capacity =
      static_cast<std::size_t>((kWarmupS + opt.seconds + 1.0) * logged_per_s);
  for (std::size_t i = 0; i < n; ++i) {
    run.clients.push_back(std::make_unique<Client>(log_capacity, shards, opt.seed * 31 + i));
    if (opt.trace) {
      run.clients.back()->spans =
          SpanBuffer(static_cast<std::uint32_t>(i), kSpanSampleShift, 1u << 18);
    }
  }

  if (!opt.trace) {
    const double setup_s = kv_setup_median(spec, opt.seed, run, kSetupRepeats);
    // The measurement is split into epochs, each on fresh client (and so
    // executor and handler) threads. Where the scheduler places a loop's
    // few busy threads moved kv-hot by ~10% between otherwise equal runs;
    // pooling the intervals of several placements keeps one placement from
    // setting a run's medians.
    const double epoch_s = opt.seconds / kEpochs;
    const int epoch_intervals = std::clamp(static_cast<int>(epoch_s), 1, kMaxIntervals);
    LoopOutcome loop;
    for (int e = 0; e < kEpochs; ++e) {
      loop.append(kv_loop(spec, in, sample, run, e == 0 ? kWarmupS : kEpochWarmupS, epoch_s,
                          epoch_intervals));
    }
    LatencyHistogram lag;
    for (const auto& c : run.clients) lag.merge(c->send_lag);
    check_kv_history(spec, run, opt.seed, res);
    const double throughput = median(loop.rates);
    res.add("throughput_ops_s", throughput, "1/s");
    res.add("latency_p50_us", median(loop.p50_ns) / 1e3, "us");
    res.add("setup_s", setup_s, "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // Printed, not a gated metric: on a VM whose host steals CPU in bursts,
    // one burst took kv-paced's p99 from ~0.37 ms to 15-20 ms for whole
    // runs, while p50 moved < 1.6x.
    res.note("latency_p99_us", median(loop.p99_ns) / 1e3, "us");
    if (lag.count() > 0) res.note("send_lag_p99_us", lag.quantile(0.99) / 1e3, "us");
    res.note("latency_samples", static_cast<double>(loop.samples), "count");
    if (spec.open_loop) res.note("offered_rate_ops_s", spec.offered_rate, "1/s");
    res.note("achieved_rate_ops_s", throughput, "1/s");
    return;
  }

  // Traced run: the same loop untraced, then traced (their throughput
  // ratio is the tracing overhead), then the ladder.
  kv_setup(spec, opt.seed, run);
  const double slice = opt.seconds / 4;
  std::vector<SpanBuffer> saved;
  for (auto& c : run.clients) saved.push_back(std::exchange(c->spans, SpanBuffer()));
  const LoopOutcome plain = kv_loop(spec, in, sample, run, kWarmupS, slice, 4);
  for (std::size_t i = 0; i < n; ++i) run.clients[i]->spans = std::move(saved[i]);
  const crcw::serve::BackendStats before = run.session->stats();
  const std::uint64_t trace_origin = now_ns();
  const LoopOutcome traced = kv_loop(spec, in, sample, run, 0.1, slice, 4);
  const crcw::serve::BackendStats after = run.session->stats();

  std::vector<const SpanBuffer*> bufs;
  for (const auto& c : run.clients) bufs.push_back(&c->spans);
  // How the workload's own traffic closed batches (the rung closes every
  // batch on size); printed beside the per-layer metrics.
  const double batches = static_cast<double>(after.batches - before.batches);
  const double deadline = static_cast<double>(after.deadline_batches - before.deadline_batches);
  const double rounds = static_cast<double>(after.rounds - before.rounds);
  const double served = static_cast<double>(after.ops_served - before.ops_served);
  res.note("loop.deadline_batch_ratio", batches > 0 ? deadline / batches : 0.0, "ratio");
  res.note("loop.ops_per_round", rounds > 0 ? served / rounds : 0.0, "ops");
  write_spans(trace_path(spec, opt), bufs, trace_origin);
  check_kv_history(spec, run, opt.seed, res);
  run.server.reset();
  run.session.reset();

  const double plain_rate = median(plain.rates);
  res.add("trace.overhead_ratio", plain_rate > 0 ? median(traced.rates) / plain_rate : 0.0,
          "ratio");
  in.graph_csr = crcw::graph::build_csr(spec.graph_vertices, generate_graph(spec, opt.seed));
  run_ladder(spec, in, opt, res);
}

void run_cc(const WorkloadSpec& spec, Inputs& in, const Options& opt, RunResult& res) {
  // Set-up is building the solver's input (CSR) from the generated edge
  // list: construct, load, several times, median.
  std::vector<double> setups;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    in.graph_csr = crcw::graph::Csr();
    const std::uint64_t t = now_ns();
    in.graph_csr = crcw::graph::build_csr(spec.graph_vertices, in.edges);
    setups.push_back(seconds_since(t));
  }
  const crcw::graph::Csr& g = in.graph_csr;
  const int threads = spec.budget.nproc;
  if (!opt.trace) {
    const CcPhase cc = run_cc_solves(g, in.edges.size(), threads, opt.seconds, 5, res);
    // A run holds a few dozen solves: their quantiles are taken exactly.
    std::vector<double> sorted = cc.solve_s;
    std::sort(sorted.begin(), sorted.end());
    const auto exact = [&](double p) {
      const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size()));
      return sorted[std::min(sorted.size() - 1, rank)];
    };
    res.attempted = cc.solve_s.size();
    // An edge is this workload's op: throughput is cc_edges_per_s.
    res.add("throughput_ops_s", cc.edges_per_s, "1/s");
    res.add("latency_p50_us", median(cc.solve_s) * 1e6, "us");
    res.add("setup_s", median(setups), "s");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    res.note("latency_p99_us", exact(0.99) * 1e6, "us");  // ~25 solves: the slowest
    res.note("cc_edges_per_s", cc.edges_per_s, "1/s");
    res.note("latency_samples", static_cast<double>(sorted.size()), "count");
    res.note("cc_iterations", static_cast<double>(cc.iterations), "count");
    return;
  }
  // Traced: solves untraced, then with a span around each solve.
  const CcPhase plain = run_cc_solves(g, in.edges.size(), threads, opt.seconds / 8, 3, res);
  SpanBuffer spans(0, 0, 1024);
  const crcw::algo::CcOptions opts{.threads = threads};
  const std::uint64_t origin = now_ns();
  std::vector<double> traced;
  for (int i = 0; i < static_cast<int>(plain.solve_s.size()); ++i) {
    const std::uint64_t t = now_ns();
    (void)crcw::algo::cc_caslt(g, opts);
    const std::uint64_t e = now_ns();
    spans.add(SpanKind::kCcSolve, static_cast<std::uint64_t>(i), 0, t, e);
    traced.push_back(static_cast<double>(e - t) * 1e-9);
  }
  write_spans(trace_path(spec, opt), {&spans}, origin);
  res.attempted = plain.solve_s.size() + traced.size();
  res.add("trace.overhead_ratio", median(plain.solve_s) / median(traced), "ratio");
  run_ladder(spec, in, opt, res);
}

}  // namespace perfbench
