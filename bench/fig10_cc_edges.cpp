// Figure 10: effect of the number of graph edges on Connected Components
// execution time. Paper: 100K vertices, 32 threads; CAS-LT vs prefix-sum
// max speedup 4.51x, geomean 4x, the gap GROWING with edge count because
// more edges mean more hook collisions and the prefix-sum method serialises
// every collision. No naive series exists (unsafe for CC, §7.2).
#include "bench_common.hpp"

#include "algorithms/dispatch.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::cached_graph;
using crcw::bench::default_threads;

constexpr std::uint64_t kVertices = 50'000;

void fig10(benchmark::State& state, const std::string& method) {
  const auto edges = static_cast<std::uint64_t>(state.range(0));
  const auto& g = cached_graph(kVertices, edges);
  const crcw::algo::CcOptions opts{.threads = default_threads()};
  // No naive series exists for CC; the paper's headline ratio is CAS-LT vs
  // the prefix-sum (gatekeeper) method, so that is the baseline here.
  crcw::bench::RowRecorder rec(state, {.series = "fig10/" + method,
                                       .policy = method,
                                       .baseline = "gatekeeper",
                                       .threads = default_threads(),
                                       .n = kVertices,
                                       .m = edges});

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
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["threads"] = default_threads();
  state.counters["components"] = static_cast<double>(components);
}

void edge_sweep(benchmark::internal::Benchmark* b) {
  for (const std::int64_t m :
       crcw::bench::sweep_points<std::int64_t>({125'000, 250'000, 500'000, 1'000'000})) {
    b->Arg(m);
  }
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(fig10, gatekeeper, "gatekeeper")->Apply(edge_sweep);
BENCHMARK_CAPTURE(fig10, gatekeeper_skip, "gatekeeper-skip")->Apply(edge_sweep);
BENCHMARK_CAPTURE(fig10, caslt, "caslt")->Apply(edge_sweep);

}  // namespace
