// Figure 7: effect of the number of graph edges on BFS execution time.
// Paper: random undirected graphs, 100K vertices, 32 threads, edges swept;
// max speedup 3.04x / geomean 2.12x for CAS-LT vs Rodinia's naive method.
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;
using crcw::bench::default_threads;

constexpr std::uint64_t kVertices = 100'000;

void fig7(benchmark::State& state, const std::string& method) {
  const auto edges = static_cast<std::uint64_t>(state.range(0));
  const auto& g = cached_graph(kVertices, edges);
  const crcw::algo::BfsOptions opts{.threads = default_threads()};
  crcw::bench::RowRecorder rec(state, {.series = "fig7/" + method,
                                       .policy = method,
                                       .baseline = "naive",
                                       .threads = default_threads(),
                                       .n = kVertices,
                                       .m = edges});

  std::uint64_t reached = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    const auto r = crcw::algo::run_bfs(method, g, 0, opts);
    rec.record(timer.seconds());
    reached = r.rounds;
  }
  rec.profile([&] { return crcw::algo::profile_bfs(method, g, 0, opts); });
  benchmark::DoNotOptimize(reached);
  state.counters["vertices"] = static_cast<double>(kVertices);
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["threads"] = default_threads();
}

void edge_sweep(benchmark::internal::Benchmark* b) {
  for (const std::int64_t m :
       crcw::bench::sweep_points<std::int64_t>({250'000, 500'000, 1'000'000, 2'000'000})) {
    b->Arg(m);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(fig7, naive, "naive")->Apply(edge_sweep);
BENCHMARK_CAPTURE(fig7, gatekeeper, "gatekeeper")->Apply(edge_sweep);
BENCHMARK_CAPTURE(fig7, gatekeeper_skip, "gatekeeper-skip")->Apply(edge_sweep);
BENCHMARK_CAPTURE(fig7, caslt, "caslt")->Apply(edge_sweep);
// Beyond the paper's comparison: the frontier-queue CAS-LT variant, with
// chunked per-thread slot grants (core/slot_alloc.hpp) — its profile
// carries the "frontier-slots" site.
BENCHMARK_CAPTURE(fig7, frontier, "frontier")->Apply(edge_sweep);

}  // namespace
