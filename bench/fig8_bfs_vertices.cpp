// Figure 8: effect of the number of graph vertices on BFS execution time at
// a fixed edge count. Paper: 30M edges, 32 threads, max speedup 2.31x /
// geomean 1.86x vs naive. Growing V at fixed E thins out collisions, which
// narrows the gap between methods — the shape to look for.
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;
using crcw::bench::default_threads;

constexpr std::uint64_t kEdges = 1'000'000;

void fig8(benchmark::State& state, const std::string& method) {
  const auto vertices = static_cast<std::uint64_t>(state.range(0));
  const auto& g = cached_graph(vertices, kEdges);
  const crcw::algo::BfsOptions opts{.threads = default_threads()};
  crcw::bench::RowRecorder rec(state, {.series = "fig8/" + method,
                                       .policy = method,
                                       .baseline = "naive",
                                       .threads = default_threads(),
                                       .n = vertices,
                                       .m = kEdges});

  std::uint64_t rounds = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    const auto r = crcw::algo::run_bfs(method, g, 0, opts);
    rec.record(timer.seconds());
    rounds = r.rounds;
  }
  rec.profile([&] { return crcw::algo::profile_bfs(method, g, 0, opts); });
  benchmark::DoNotOptimize(rounds);
  state.counters["vertices"] = static_cast<double>(vertices);
  state.counters["edges"] = static_cast<double>(kEdges);
  state.counters["threads"] = default_threads();
}

void vertex_sweep(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : crcw::bench::sweep_points<std::int64_t>(
           {25'000, 50'000, 100'000, 200'000, 400'000})) {
    b->Arg(n);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(fig8, naive, "naive")->Apply(vertex_sweep);
BENCHMARK_CAPTURE(fig8, gatekeeper, "gatekeeper")->Apply(vertex_sweep);
BENCHMARK_CAPTURE(fig8, gatekeeper_skip, "gatekeeper-skip")->Apply(vertex_sweep);
BENCHMARK_CAPTURE(fig8, caslt, "caslt")->Apply(vertex_sweep);
// Beyond the paper's comparison: the frontier-queue CAS-LT variant, whose
// profile carries the "frontier-slots" site.
BENCHMARK_CAPTURE(fig8, frontier, "frontier")->Apply(vertex_sweep);

}  // namespace
