// pram_sim_demo — the CRCW PRAM *model* simulator as a teaching tool:
// run classic one-step CRCW programs under different memory-access modes,
// watch conflict resolution happen, and see exclusive-write modes reject
// the same programs (the §2 taxonomy, executable).
//
//   ./build/examples/pram_sim_demo [--n 16] [--seed 1]
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "sim/programs.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using crcw::sim::AccessMode;
using crcw::sim::ModelViolation;
using crcw::sim::Simulator;
using crcw::sim::word_t;

void banner(const char* title) { std::printf("\n--- %s ---\n", title); }

}  // namespace

int main(int argc, char** argv) try {
  const crcw::util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_uint("n", 16);
  const std::uint64_t seed = cli.get_uint("seed", 1);

  crcw::util::Xoshiro256 rng(seed);
  std::vector<word_t> list(n);
  for (auto& x : list) x = static_cast<word_t>(rng.bounded(100));

  std::printf("input list:");
  for (const auto x : list) std::printf(" %lld", static_cast<long long>(x));
  std::printf("\n");

  banner("constant-time Maximum on CRCW-Common (Fig 4, one parallel step)");
  {
    Simulator sim(AccessMode::kCommon, 1, seed);
    const auto idx = crcw::sim::programs::max_constant_time(sim, list);
    const auto& stats = sim.history().back();
    std::printf("max = list[%llu] = %lld\n", static_cast<unsigned long long>(idx),
                static_cast<long long>(list[idx]));
    std::printf("work=%llu depth=%llu; step used %llu processors, %llu writes into %llu "
                "cells, max contention %llu\n",
                static_cast<unsigned long long>(sim.counters().work),
                static_cast<unsigned long long>(sim.counters().depth),
                static_cast<unsigned long long>(stats.processors),
                static_cast<unsigned long long>(stats.writes),
                static_cast<unsigned long long>(stats.cells_written),
                static_cast<unsigned long long>(stats.max_contention));
  }

  banner("the same program on CREW fails — concurrent writes are illegal");
  try {
    Simulator sim(AccessMode::kCREW, 1, seed);
    (void)crcw::sim::programs::max_constant_time(sim, list);
    std::printf("UNEXPECTED: no violation raised\n");
    return 1;
  } catch (const ModelViolation& v) {
    std::printf("ModelViolation as expected: %s\n", v.what());
  }

  banner("parallel OR in one step (the classic CRCW vs CREW separator)");
  {
    Simulator sim(AccessMode::kCommon, 1, seed);
    std::vector<word_t> bits(n, 0);
    bits[n / 2] = 1;
    const bool result = crcw::sim::programs::parallel_or(sim, bits);
    std::printf("OR = %d (depth %llu)\n", result ? 1 : 0,
                static_cast<unsigned long long>(sim.counters().depth));
  }

  banner("Priority(min-value): first set bit in one step");
  {
    Simulator sim(AccessMode::kPriorityMinValue, 1, seed);
    std::vector<word_t> bits(n, 0);
    bits[n / 3] = bits[n - 1] = 1;
    std::printf("first_one = %llu\n",
                static_cast<unsigned long long>(crcw::sim::programs::first_one(sim, bits)));
  }

  banner("Arbitrary CW: different seeds, different winners, same levels");
  {
    // A tiny diamond graph: both 1 and 2 discover 3; the arbitrary rule
    // picks the parent. Levels never change; the parent may.
    const std::vector<std::uint64_t> offsets = {0, 2, 4, 6, 8};
    const std::vector<std::uint32_t> edges = {1, 2, 0, 3, 0, 3, 1, 2};
    for (const std::uint64_t s : {0ull, 1ull, 2ull, 3ull}) {
      Simulator sim(AccessMode::kArbitrary, 1, s);
      const auto r = crcw::sim::programs::bfs(sim, offsets, edges, 0);
      std::printf("seed %llu: level(3)=%lld parent(3)=%lld\n",
                  static_cast<unsigned long long>(s), static_cast<long long>(r.level[3]),
                  static_cast<long long>(r.parent[3]));
    }
  }

  banner("traced execution: watch conflict resolution happen (--trace full for accesses)");
  {
    Simulator sim(AccessMode::kArbitrary, 4, seed);
    const bool full = cli.get_string("trace", "") == "full";
    sim.set_trace(&std::cout, {.accesses = full, .resolutions = true, .summary = true});
    sim.step(6, [](Simulator::Proc& p) {
      // Three processors fight over cell 2; the arbitrary rule picks one.
      if (p.id() < 3) p.write(2, static_cast<word_t>(100 + p.id()));
      if (p.id() >= 3) p.write(3, 7);  // a common write on cell 3
    });
    sim.set_trace(nullptr);
  }

  banner("pointer jumping to roots on CREW (no concurrent writes needed)");
  {
    Simulator sim(AccessMode::kCREW, 1, seed);
    std::vector<std::uint64_t> parent(n);  // parent[0] = 0: the root
    for (std::uint64_t i = 1; i < n; ++i) parent[i] = i - 1;  // one long chain
    const auto roots = crcw::sim::programs::pointer_jump_roots(sim, parent);
    std::printf("chain of %llu collapsed to root %llu in depth %llu (log-steps)\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(roots[n - 1]),
                static_cast<unsigned long long>(sim.counters().depth));
  }

  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
