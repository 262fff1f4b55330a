// Figure 9: effect of the number of execution threads on BFS execution
// time (paper: 100K vertices, 30M edges; speedup vs Rodinia reaches 2.24x
// at high thread counts). See the Figure 6 note on oversubscription.
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;

constexpr std::uint64_t kVertices = 100'000;
constexpr std::uint64_t kEdges = 1'000'000;

void fig9(benchmark::State& state, const std::string& method) {
  const int threads = static_cast<int>(state.range(0));
  const auto& g = cached_graph(kVertices, kEdges);
  const crcw::algo::BfsOptions opts{.threads = threads};
  crcw::bench::RowRecorder rec(state, {.series = "fig9/" + method,
                                       .policy = method,
                                       .baseline = "naive",
                                       .threads = threads,
                                       .n = kVertices,
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
  state.counters["vertices"] = static_cast<double>(kVertices);
  state.counters["edges"] = static_cast<double>(kEdges);
  state.counters["threads"] = threads;
}

BENCHMARK_CAPTURE(fig9, naive, "naive")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig9, gatekeeper, "gatekeeper")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig9, gatekeeper_skip, "gatekeeper-skip")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig9, caslt, "caslt")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig9, frontier, "frontier")->Apply(crcw::bench::thread_sweep);

}  // namespace
