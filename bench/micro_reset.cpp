// Microbenchmark M3: the gatekeeper per-round re-initialisation in
// isolation — the §6 cost-table row CAS-LT does not pay.
//
// The paper charges the gatekeeper scheme Θ(N) work per round for the tag
// sweep regardless of how many cells were actually written. Each
// iteration runs kRoundsPerIter rounds of an UNTIMED touch phase (W
// distinct strided winners — the exact dirty-tag set) followed by a TIMED
// reset, so the row measures the reset alone:
//
//   micro_reset/full    reset_tags_parallel — paper-faithful Θ(N) sweep
//
// The profile pass pins the asymptotics to a counter: reset_tags is
// rounds·N whatever W is (see docs/reproducing.md).
#include <omp.h>

#include <cstddef>
#include <cstdint>

#include "bench_common.hpp"
#include "core/arbiter.hpp"
#include "core/instrumented.hpp"
#include "util/timer.hpp"

namespace {

using crcw::GatekeeperPolicy;
using crcw::ResetMode;
using crcw::WriteArbiter;

using IGate = crcw::InstrumentedPolicy<GatekeeperPolicy>;

constexpr std::uint64_t kTags = 1u << 20;  ///< N: tag-array length
constexpr int kRoundsPerIter = 4;

/// Untimed dirtying phase: W distinct winners evenly strided across the
/// tag array. Every acquire wins (targets are distinct), so exactly W tags
/// are dirty.
template <typename Arbiter>
void touch(Arbiter& arbiter, std::uint64_t writes, int threads) {
  auto scope = arbiter.next_round(ResetMode::kNone);
  const std::uint64_t stride = kTags / writes;
  const auto w_count = static_cast<std::int64_t>(writes);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t w = 0; w < w_count; ++w) {
    (void)scope.acquire(static_cast<std::size_t>(w) * stride);
  }
}

crcw::bench::RowSpec spec(const char* variant, int threads, std::uint64_t writes) {
  return {.series = std::string("micro_reset/") + variant,
          .policy = variant,
          .baseline = "full",
          .threads = threads,
          .n = kTags,
          .m = writes};
}

/// Instrumented replay under a private registry (same pattern the dispatch
/// profile_* helpers use): counters, never timings.
template <typename Fn>
crcw::obs::ContentionTotals profiled(Fn&& fn) {
  crcw::obs::MetricsRegistry local;
  const crcw::obs::ScopedRegistry scoped(local);
  fn();
  return local.totals();
}

void bench_reset_full(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto writes = static_cast<std::uint64_t>(state.range(1));
  crcw::bench::RowRecorder rec(state, spec("full", threads, writes));
  WriteArbiter<GatekeeperPolicy> arbiter(kTags);
  for (auto _ : state) {
    double secs = 0.0;
    for (int r = 0; r < kRoundsPerIter; ++r) {
      touch(arbiter, writes, threads);
      crcw::util::Timer timer;
      arbiter.reset_tags_parallel(threads);
      secs += timer.seconds();
    }
    rec.record(secs);
  }
  state.counters["rounds"] = kRoundsPerIter;
  rec.profile([&] {
    return profiled([&] {
      WriteArbiter<IGate> instrumented(kTags);
      for (int r = 0; r < kRoundsPerIter; ++r) {
        touch(instrumented, writes, threads);
        instrumented.flush_round_metrics();
        instrumented.reset_tags_parallel(threads);  // reset_tags += kTags
      }
    });
  });
}

void reset_args(benchmark::internal::Benchmark* b) {
  // W << N throughout: the frontier-shaped regime, where the sweep's Θ(N)
  // work is all overhead. Smoke keeps (threads {1,2}) x (W = 1024).
  const auto threads = crcw::bench::sweep_points<std::int64_t>({1, 2, 4, 8}, 2);
  const auto writes = crcw::bench::sweep_points<std::int64_t>({1 << 10, 1 << 14}, 1);
  for (const auto w : writes) {
    for (const auto t : threads) b->Args({t, w});
  }
  b->UseManualTime()->Unit(benchmark::kMicrosecond);
}

BENCHMARK(bench_reset_full)->Apply(reset_args);

}  // namespace
