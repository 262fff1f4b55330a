// Extension benchmark: the open-addressing ConcurrentHashSet against
// lock-based and serial baselines, three sweeps:
//
//   insert   insert-heavy build (≈50% duplicate keys) — the bucket-claim
//            arbitration race, across sizes and across threads;
//   lookup   read-heavy phase over a prebuilt table (≈50% hit rate) —
//            wait-free contains() vs lock-per-lookup;
//   storm    resize-storm dedup: the table starts 64 keys wide and must
//            cooperatively grow to ~n/2 — migration cost end to end
//            (std::unordered rehashes under its own policy; same job),
//            plus a max_load axis (storm-maxload).
//
// Baseline policy per sweep is "mutex" (std::unordered_* behind one lock),
// the honest lower bar a CW-arbitrated table must clear; "unordered" rows
// are the serial no-lock floor for scale. Rows land in
// BENCH_ext_hash.json; the caslt-vs-mutex insert gap is the committed
// smoke-baseline claim bench_compare.py guards. There is no chained-set
// row: a Treiber-list set lost or tied every sweep against CAS-LT.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algorithms/dedup.hpp"
#include "algorithms/dispatch.hpp"
#include "bench_common.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::default_threads;
using crcw::bench::RowRecorder;
using crcw::bench::RowSpec;

/// Random keys with ~50% duplication (n draws over n/2 values), cached per
/// (n, seed) — generation is never timed.
const std::vector<std::uint64_t>& cached_keys(std::uint64_t n, std::uint64_t seed = 42) {
  static std::map<std::pair<std::uint64_t, std::uint64_t>,
                  std::unique_ptr<std::vector<std::uint64_t>>>
      cache;
  auto& slot = cache[{n, seed}];
  if (!slot) {
    crcw::util::Xoshiro256 rng(seed);
    slot = std::make_unique<std::vector<std::uint64_t>>(n);
    for (auto& k : *slot) k = rng.bounded(n / 2 + 1);
  }
  return *slot;
}

RowSpec spec(const char* sweep, const char* method, int threads, std::uint64_t n) {
  return {.series = std::string("ext_hash/") + sweep + "/" + method,
          .policy = method,
          .baseline = "mutex",
          .threads = threads,
          .n = n,
          .m = 0};
}

// -- insert-heavy -----------------------------------------------------------

std::uint64_t insert_caslt(const std::vector<std::uint64_t>& keys, int threads,
                           bool telemetry = false) {
  crcw::ds::HashConfig cfg;
  cfg.telemetry = telemetry;
  cfg.site_name = "ext-hash-insert";
  crcw::ds::ConcurrentHashSet<> set(keys.size(), cfg);
  const auto n = static_cast<std::int64_t>(keys.size());
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    (void)set.insert(keys[static_cast<std::size_t>(i)]);
  }
  set.flush_round();
  return set.size();
}

std::uint64_t insert_mutex(const std::vector<std::uint64_t>& keys, int threads) {
  std::unordered_set<std::uint64_t> set;
  set.reserve(keys.size());
  std::mutex mu;
  const auto n = static_cast<std::int64_t>(keys.size());
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const std::lock_guard<std::mutex> lock(mu);
    set.insert(keys[static_cast<std::size_t>(i)]);
  }
  return set.size();
}

std::uint64_t insert_unordered(const std::vector<std::uint64_t>& keys) {
  std::unordered_set<std::uint64_t> set;
  set.reserve(keys.size());
  for (const std::uint64_t k : keys) set.insert(k);
  return set.size();
}

template <typename Run>
void bench_insert(benchmark::State& state, const char* sweep, const char* method,
                  std::uint64_t n, int threads, Run&& run) {
  const auto& keys = cached_keys(n);
  RowRecorder rec(state, spec(sweep, method, threads, n));
  std::uint64_t distinct = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    distinct = run(keys, threads);
    rec.record(timer.seconds());
  }
  state.counters["distinct"] = static_cast<double>(distinct);
  if (std::string_view(method) == "caslt") {
    rec.profile([&] {
      crcw::obs::MetricsRegistry local;
      const crcw::obs::ScopedRegistry scoped(local);
      (void)insert_caslt(keys, threads, /*telemetry=*/true);
      return std::optional(local.totals());
    });
  }
}

void insert_size_caslt(benchmark::State& s) {
  bench_insert(s, "insert", "caslt", static_cast<std::uint64_t>(s.range(0)),
               default_threads(), [](const auto& k, int t) { return insert_caslt(k, t); });
}
void insert_size_mutex(benchmark::State& s) {
  bench_insert(s, "insert", "mutex", static_cast<std::uint64_t>(s.range(0)),
               default_threads(), [](const auto& k, int t) { return insert_mutex(k, t); });
}
void insert_size_unordered(benchmark::State& s) {
  bench_insert(s, "insert", "unordered", static_cast<std::uint64_t>(s.range(0)), 1,
               [](const auto& k, int) { return insert_unordered(k); });
}

// Thread sweep at a fixed size: the contention axis.
constexpr std::uint64_t kThreadSweepKeys = 1 << 19;

void insert_threads_caslt(benchmark::State& s) {
  bench_insert(s, "insert-threads", "caslt", kThreadSweepKeys,
               static_cast<int>(s.range(0)),
               [](const auto& k, int t) { return insert_caslt(k, t); });
}
void insert_threads_mutex(benchmark::State& s) {
  bench_insert(s, "insert-threads", "mutex", kThreadSweepKeys,
               static_cast<int>(s.range(0)),
               [](const auto& k, int t) { return insert_mutex(k, t); });
}

// -- read-heavy -------------------------------------------------------------

/// Lookup mix: half the probes hit (drawn from the table's key range), half
/// miss (shifted beyond it).
const std::vector<std::uint64_t>& cached_probes(std::uint64_t n) {
  static std::map<std::uint64_t, std::unique_ptr<std::vector<std::uint64_t>>> cache;
  auto& slot = cache[n];
  if (!slot) {
    crcw::util::Xoshiro256 rng(137);
    slot = std::make_unique<std::vector<std::uint64_t>>(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t k = rng.bounded(n / 2 + 1);
      (*slot)[i] = (i % 2 == 0) ? k : k + n;  // alternate hit / miss
    }
  }
  return *slot;
}

template <typename Lookup>
std::uint64_t count_hits(const std::vector<std::uint64_t>& probes, int threads,
                         Lookup&& lookup) {
  const auto n = static_cast<std::int64_t>(probes.size());
  std::uint64_t hits = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : hits)
  for (std::int64_t i = 0; i < n; ++i) {
    if (lookup(probes[static_cast<std::size_t>(i)])) ++hits;
  }
  return hits;
}

template <typename Build>
void bench_lookup(benchmark::State& state, const char* method, Build&& build) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const int threads = default_threads();
  const auto& keys = cached_keys(n);
  const auto& probes = cached_probes(n);
  auto lookup = build(keys);  // untimed table build; returns the probe fn
  RowRecorder rec(state, spec("lookup", method, threads, n));
  std::uint64_t hits = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    hits = count_hits(probes, threads, lookup);
    rec.record(timer.seconds());
  }
  state.counters["hits"] = static_cast<double>(hits);
}

void lookup_caslt(benchmark::State& s) {
  bench_lookup(s, "caslt", [](const auto& keys) {
    auto set = std::make_shared<crcw::ds::ConcurrentHashSet<>>(keys.size());
    for (const std::uint64_t k : keys) (void)set->insert(k);
    return [set](std::uint64_t k) { return set->contains(k); };
  });
}
void lookup_mutex(benchmark::State& s) {
  bench_lookup(s, "mutex", [](const auto& keys) {
    auto set = std::make_shared<std::unordered_set<std::uint64_t>>(keys.begin(),
                                                                   keys.end());
    auto mu = std::make_shared<std::mutex>();
    return [set, mu](std::uint64_t k) {
      const std::lock_guard<std::mutex> lock(*mu);
      return set->count(k) != 0;
    };
  });
}
void lookup_unordered(benchmark::State& s) {
  // Serial floor: same std::unordered_set, no lock, threads pinned to 1 by
  // the lookup loop's reduction running single-threaded.
  const auto n = static_cast<std::uint64_t>(s.range(0));
  const auto& keys = cached_keys(n);
  const auto& probes = cached_probes(n);
  const std::unordered_set<std::uint64_t> set(keys.begin(), keys.end());
  RowRecorder rec(s, spec("lookup", "unordered", 1, n));
  std::uint64_t hits = 0;
  for (auto _ : s) {
    crcw::util::Timer timer;
    hits = count_hits(probes, 1, [&](std::uint64_t k) { return set.count(k) != 0; });
    rec.record(timer.seconds());
  }
  s.counters["hits"] = static_cast<double>(hits);
}

// -- resize storm ------------------------------------------------------------

void storm_caslt(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const int threads = default_threads();
  const auto& keys = cached_keys(n);
  crcw::algo::DedupOptions opts;
  opts.threads = threads;
  opts.initial_capacity = 64;  // forces the full cooperative-grow cascade
  RowRecorder rec(state, spec("storm", "caslt", threads, n));
  crcw::algo::DedupResult r;
  for (auto _ : state) {
    crcw::util::Timer timer;
    r = crcw::algo::dedup_caslt(keys, opts);
    rec.record(timer.seconds());
  }
  state.counters["distinct"] = static_cast<double>(r.distinct);
  state.counters["grows"] = static_cast<double>(r.grows);
  rec.profile([&] { return crcw::algo::profile_dedup("caslt", keys, opts); });
}

void storm_mutex(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const int threads = default_threads();
  const auto& keys = cached_keys(n);
  RowRecorder rec(state, spec("storm", "mutex", threads, n));
  std::uint64_t distinct = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    // No reserve: std::unordered_set rehashes on its own schedule — the
    // same grow-while-building job the cooperative protocol does.
    std::unordered_set<std::uint64_t> set;
    std::mutex mu;
    const auto count = static_cast<std::int64_t>(keys.size());
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const std::lock_guard<std::mutex> lock(mu);
      set.insert(keys[static_cast<std::size_t>(i)]);
    }
    rec.record(timer.seconds());
    distinct = set.size();
  }
  state.counters["distinct"] = static_cast<double>(distinct);
}

// Load-factor axis of the storm: same resize-storm dedup at a fixed size,
// sweeping HashConfig::max_load to locate the probe-length knee — denser
// tables grow less (fewer migrations) but probe longer; the profile pass's
// attempts/wins ratio is the mean probe length that exposes the knee.
// m carries max_load as a percentage (the row key has no float axis).
void storm_maxload_caslt(benchmark::State& state) {
  constexpr std::uint64_t kStormKeys = 1 << 18;
  const auto pct = static_cast<std::uint64_t>(state.range(0));
  const int threads = default_threads();
  const auto& keys = cached_keys(kStormKeys);
  crcw::algo::DedupOptions opts;
  opts.threads = threads;
  opts.initial_capacity = 64;
  opts.max_load = static_cast<double>(pct) / 100.0;
  RowRecorder rec(state, {.series = "ext_hash/storm-maxload/caslt",
                          .policy = "caslt",
                          .baseline = "",
                          .threads = threads,
                          .n = kStormKeys,
                          .m = pct});
  crcw::algo::DedupResult r;
  for (auto _ : state) {
    crcw::util::Timer timer;
    r = crcw::algo::dedup_caslt(keys, opts);
    rec.record(timer.seconds());
  }
  state.counters["distinct"] = static_cast<double>(r.distinct);
  state.counters["grows"] = static_cast<double>(r.grows);
  rec.profile([&] { return crcw::algo::profile_dedup("caslt", keys, opts); });
}

void storm_sort(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto& keys = cached_keys(n);
  RowRecorder rec(state, spec("storm", "sort", 1, n));
  crcw::algo::DedupResult r;
  for (auto _ : state) {
    crcw::util::Timer timer;
    r = crcw::algo::dedup_sort(keys);
    rec.record(timer.seconds());
  }
  state.counters["distinct"] = static_cast<double>(r.distinct);
}

// -- registration ------------------------------------------------------------

void size_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n :
       crcw::bench::sweep_points<std::int64_t>({1 << 16, 1 << 18, 1 << 20})) {
    b->Arg(n);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void thread_args(benchmark::internal::Benchmark* b) {
  for (const int t : crcw::bench::sweep_points({1, 2, 4, 8, 16}, 2)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK(insert_size_caslt)->Apply(size_args);
BENCHMARK(insert_size_mutex)->Apply(size_args);
BENCHMARK(insert_size_unordered)->Apply(size_args);
BENCHMARK(insert_threads_caslt)->Apply(thread_args);
BENCHMARK(insert_threads_mutex)->Apply(thread_args);
BENCHMARK(lookup_caslt)->Apply(size_args);
BENCHMARK(lookup_mutex)->Apply(size_args);
BENCHMARK(lookup_unordered)->Apply(size_args);
void maxload_args(benchmark::internal::Benchmark* b) {
  // Percentages; smoke keeps 30 and 50 so the sparse and default shapes
  // both stay exercised in CI.
  for (const std::int64_t pct :
       crcw::bench::sweep_points<std::int64_t>({30, 50, 70, 85, 95}, 2)) {
    b->Arg(pct);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK(storm_caslt)->Apply(size_args);
BENCHMARK(storm_mutex)->Apply(size_args);
BENCHMARK(storm_maxload_caslt)->Apply(maxload_args);
BENCHMARK(storm_sort)->Apply(size_args);

}  // namespace
