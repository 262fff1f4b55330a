// Figure 12: effect of the number of execution threads on Connected
// Components execution time (paper: 100K vertices, 30M edges; CAS-LT
// superior at every thread count). See the Figure 6 oversubscription note.
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;

constexpr std::uint64_t kVertices = 50'000;
constexpr std::uint64_t kEdges = 500'000;

void fig12(benchmark::State& state, const std::string& method) {
  const int threads = static_cast<int>(state.range(0));
  const auto& g = cached_graph(kVertices, kEdges);
  const crcw::algo::CcOptions opts{.threads = threads};
  crcw::bench::RowRecorder rec(state, {.series = "fig12/" + method,
                                       .policy = method,
                                       .baseline = "gatekeeper",
                                       .threads = threads,
                                       .n = kVertices,
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
  state.counters["vertices"] = static_cast<double>(kVertices);
  state.counters["edges"] = static_cast<double>(kEdges);
  state.counters["threads"] = threads;
}

BENCHMARK_CAPTURE(fig12, gatekeeper, "gatekeeper")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig12, gatekeeper_skip, "gatekeeper-skip")->Apply(crcw::bench::thread_sweep);
BENCHMARK_CAPTURE(fig12, caslt, "caslt")->Apply(crcw::bench::thread_sweep);

}  // namespace
