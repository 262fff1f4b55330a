// Ablation A3: Brent-scheduling policy for irregular PRAM steps.
//
// Mapping P_PRAM virtual processors onto P_phys threads (§6) leaves one
// free choice: the OpenMP schedule. For uniform work (the Maximum kernel)
// static is optimal; for skewed per-processor work (a BFS level on an
// R-MAT graph, where one virtual processor may own a 1000x-degree hub)
// dynamic work stealing can win. This bench quantifies the trade on both
// shapes using pram::Machine's schedule knob.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>

#include "bench_common.hpp"
#include "graph/builder.hpp"
#include "pram/machine.hpp"
#include "util/timer.hpp"

namespace {

using crcw::graph::Csr;
using crcw::pram::Machine;
using crcw::pram::MachineConfig;
using crcw::pram::Schedule;

const Csr& skewed_graph() {
  static const Csr g = crcw::graph::build_csr(
      1 << 14, crcw::graph::rmat(1 << 14, 1 << 18, 7), {.remove_self_loops = true});
  return g;
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kStatic: return "static";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
  }
  return "unknown";
}

/// Irregular step: every virtual processor scans its vertex's adjacency
/// (R-MAT degrees are power-law distributed).
void irregular_step(benchmark::State& state, Schedule schedule) {
  const int threads = static_cast<int>(state.range(0));
  const auto& g = skewed_graph();
  Machine machine(MachineConfig{.threads = threads, .schedule = schedule, .chunk = 64});
  crcw::bench::RowRecorder rec(
      state, {.series = std::string("ablation_schedule/irregular_") + schedule_name(schedule),
              .policy = schedule_name(schedule),
              .baseline = "static",
              .threads = threads,
              .n = g.num_vertices(),
              .m = g.num_edges()});

  std::uint64_t total = 0;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    crcw::util::Timer timer;
    machine.step(g.num_vertices(), [&](Machine::vproc_t v) {
      std::uint64_t local = 0;
      for (const auto u : g.neighbors(static_cast<crcw::graph::vertex_t>(v))) local += u;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    rec.record(timer.seconds());
    total = sum.load();
  }
  benchmark::DoNotOptimize(total);
  state.counters["max_degree"] = static_cast<double>(g.max_degree());
}

/// Dynamic chunk-size row: the figure benches hand skewed frontier loops
/// to schedule(dynamic, util::kFrontierChunk) — util/chunking.hpp holds
/// the chosen constants and their rationale. This sweep is the evidence:
/// too-small chunks pay a work-stealing RMW per handful of vertices,
/// too-large chunks strand a hub's neighbours on one thread.
void irregular_chunk(benchmark::State& state, int chunk) {
  const int threads = static_cast<int>(state.range(0));
  const auto& g = skewed_graph();
  Machine machine(
      MachineConfig{.threads = threads, .schedule = Schedule::kDynamic, .chunk = chunk});
  const std::string policy = "dynamic-c" + std::to_string(chunk);
  crcw::bench::RowRecorder rec(
      state, {.series = "ablation_schedule/irregular_" + policy,
              .policy = policy,
              .baseline = "dynamic",
              .threads = threads,
              .n = g.num_vertices(),
              .m = g.num_edges()});

  std::uint64_t total = 0;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    crcw::util::Timer timer;
    machine.step(g.num_vertices(), [&](Machine::vproc_t v) {
      std::uint64_t local = 0;
      for (const auto u : g.neighbors(static_cast<crcw::graph::vertex_t>(v))) local += u;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    rec.record(timer.seconds());
    total = sum.load();
  }
  benchmark::DoNotOptimize(total);
  state.counters["chunk"] = chunk;
}

/// Uniform step: constant work per virtual processor.
void uniform_step(benchmark::State& state, Schedule schedule) {
  const int threads = static_cast<int>(state.range(0));
  Machine machine(MachineConfig{.threads = threads, .schedule = schedule, .chunk = 64});
  constexpr std::uint64_t kProcs = 1 << 18;
  crcw::bench::RowRecorder rec(
      state, {.series = std::string("ablation_schedule/uniform_") + schedule_name(schedule),
              .policy = schedule_name(schedule),
              .baseline = "static",
              .threads = threads,
              .n = kProcs,
              .m = 0});

  std::uint64_t total = 0;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    crcw::util::Timer timer;
    machine.step(kProcs, [&](Machine::vproc_t v) {
      sum.fetch_add(v * 2654435761u, std::memory_order_relaxed);
    });
    rec.record(timer.seconds());
    total = sum.load();
  }
  benchmark::DoNotOptimize(total);
}

void args(benchmark::internal::Benchmark* b) {
  for (const int t : crcw::bench::sweep_points<int>({1, 2, 4, 8}, 2)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMillisecond);
}

void irregular_chunk16(benchmark::State& s) { irregular_chunk(s, 16); }
void irregular_chunk64(benchmark::State& s) { irregular_chunk(s, 64); }
void irregular_chunk256(benchmark::State& s) { irregular_chunk(s, 256); }

void irregular_static(benchmark::State& s) { irregular_step(s, Schedule::kStatic); }
void irregular_dynamic(benchmark::State& s) { irregular_step(s, Schedule::kDynamic); }
void irregular_guided(benchmark::State& s) { irregular_step(s, Schedule::kGuided); }
void uniform_static(benchmark::State& s) { uniform_step(s, Schedule::kStatic); }
void uniform_dynamic(benchmark::State& s) { uniform_step(s, Schedule::kDynamic); }
void uniform_guided(benchmark::State& s) { uniform_step(s, Schedule::kGuided); }

BENCHMARK(irregular_static)->Apply(args);
BENCHMARK(irregular_dynamic)->Apply(args);
BENCHMARK(irregular_guided)->Apply(args);
BENCHMARK(irregular_chunk16)->Apply(args);
BENCHMARK(irregular_chunk64)->Apply(args);
BENCHMARK(irregular_chunk256)->Apply(args);
BENCHMARK(uniform_static)->Apply(args);
BENCHMARK(uniform_dynamic)->Apply(args);
BENCHMARK(uniform_guided)->Apply(args);

}  // namespace
