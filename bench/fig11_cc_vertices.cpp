// Figure 11: effect of the number of graph vertices on Connected Components
// execution time at fixed edge count. Paper: 30M edges, 32 threads. More
// vertices per edge ⇒ lower collision density ⇒ prefix-sum's time FALLS
// steeply while CAS-LT trends only slightly upward — the crossover shape
// that demonstrates collision serialisation is the prefix-sum bottleneck.
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;
using crcw::bench::default_threads;

constexpr std::uint64_t kEdges = 500'000;

void fig11(benchmark::State& state, const std::string& method) {
  const auto vertices = static_cast<std::uint64_t>(state.range(0));
  const auto& g = cached_graph(vertices, kEdges);
  const crcw::algo::CcOptions opts{.threads = default_threads()};
  crcw::bench::RowRecorder rec(state, {.series = "fig11/" + method,
                                       .policy = method,
                                       .baseline = "gatekeeper",
                                       .threads = default_threads(),
                                       .n = vertices,
                                       .m = kEdges});

  std::uint64_t components = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    const auto r = crcw::algo::run_cc(method, g, opts);
    rec.record(timer.seconds());
    components = r.components;
  }
  rec.profile([&] { return crcw::algo::profile_cc(method, g, opts); });
  benchmark::DoNotOptimize(components);
  state.counters["vertices"] = static_cast<double>(vertices);
  state.counters["edges"] = static_cast<double>(kEdges);
  state.counters["threads"] = default_threads();
}

void vertex_sweep(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : crcw::bench::sweep_points<std::int64_t>(
           {12'500, 25'000, 50'000, 100'000, 200'000})) {
    b->Arg(n);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(fig11, gatekeeper, "gatekeeper")->Apply(vertex_sweep);
BENCHMARK_CAPTURE(fig11, gatekeeper_skip, "gatekeeper-skip")->Apply(vertex_sweep);
BENCHMARK_CAPTURE(fig11, caslt, "caslt")->Apply(vertex_sweep);

}  // namespace
