// analytics_demo — the extension algorithms in one pipeline: take a graph,
// compute connected components (and the spanning forest the hooks record),
// biconnected components + articulation points, a maximal matching, the
// k-core decomposition, and root a spanning tree via Euler tours. Every
// stage is validated against its sequential reference before printing.
//
//   ./build/examples/analytics_demo --vertices 2000 --extra 3000 --threads 4
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <set>

#include "algorithms/bicc.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/kcore.hpp"
#include "algorithms/matching.hpp"
#include "algorithms/tree_ops.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "graph/stats.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

/// Connected simple graph: random spanning tree + extra distinct edges.
crcw::graph::EdgeList connected_simple_graph(std::uint64_t n, std::uint64_t extra,
                                             std::uint64_t seed) {
  using crcw::graph::vertex_t;
  auto edges = crcw::graph::random_tree(n, seed);
  std::set<std::uint64_t> used;
  for (const auto& e : edges) {
    used.insert((static_cast<std::uint64_t>(std::min(e.u, e.v)) << 32) |
                std::max(e.u, e.v));
  }
  crcw::util::Xoshiro256 rng(seed + 1);
  std::uint64_t added = 0;
  while (added < extra) {
    const auto u = static_cast<vertex_t>(rng.bounded(n));
    auto v = static_cast<vertex_t>(rng.bounded(n - 1));
    if (v >= u) ++v;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
    if (used.insert(key).second) {
      edges.push_back({u, v});
      ++added;
    }
  }
  return edges;
}

}  // namespace

int main(int argc, char** argv) try {
  const crcw::util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_uint("vertices", 2000);
  const std::uint64_t extra = cli.get_uint("extra", 3000);
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const std::uint64_t seed = cli.get_uint("seed", 42);

  const auto edges = connected_simple_graph(n, extra, seed);
  const auto g = crcw::graph::build_csr(n, edges);
  std::printf("connected simple graph: n=%llu, undirected edges=%zu\n",
              static_cast<unsigned long long>(n), edges.size());
  print_stats(std::cout, crcw::graph::compute_stats(g));

  // --- connected components + hook forest ---------------------------------
  {
    crcw::util::Timer t;
    const auto cc = crcw::algo::cc_caslt(g, {.threads = threads});
    const bool ok = crcw::graph::validate_components(g, cc.label) &&
                    cc.forest_edges.size() == n - cc.components;
    std::printf("\nCC (A-S, caslt): %llu component(s), forest of %zu hooks, %.3f ms — %s\n",
                static_cast<unsigned long long>(cc.components), cc.forest_edges.size(),
                t.seconds() * 1e3, ok ? "valid" : "INVALID");
    if (!ok) return 1;
  }

  // --- biconnectivity -------------------------------------------------------
  {
    crcw::util::Timer t;
    const auto bicc = crcw::algo::biconnected_components(n, edges, {.threads = threads});
    std::uint64_t arts = 0;
    for (const auto a : bicc.is_articulation) arts += a;
    std::printf("BiCC (Tarjan-Vishkin): %llu component(s), %llu articulation point(s), "
                "%zu bridge(s), %.3f ms\n",
                static_cast<unsigned long long>(bicc.components),
                static_cast<unsigned long long>(arts), bicc.bridges.size(),
                t.seconds() * 1e3);
  }

  // --- maximal matching -----------------------------------------------------
  {
    crcw::util::Timer t;
    const auto m = crcw::algo::maximal_matching(n, edges, {.threads = threads});
    const bool ok = crcw::algo::validate_matching(n, edges, m);
    std::printf("Maximal matching (priority CW): %zu edges in %llu rounds, %.3f ms — %s\n",
                m.edges.size(), static_cast<unsigned long long>(m.rounds),
                t.seconds() * 1e3, ok ? "valid+maximal" : "INVALID");
    if (!ok) return 1;
  }

  // --- k-core ---------------------------------------------------------------
  {
    crcw::util::Timer t;
    const auto kc = crcw::algo::kcore(g, {.threads = threads});
    const bool ok = kc.core == crcw::algo::kcore_seq(g);
    std::printf("k-core (combining decrements): degeneracy %u, %llu peel waves, "
                "%.3f ms — %s\n",
                kc.degeneracy, static_cast<unsigned long long>(kc.peel_rounds),
                t.seconds() * 1e3, ok ? "matches reference" : "MISMATCH");
    if (!ok) return 1;
  }

  // --- Euler-tour rooting of a spanning tree -------------------------------
  {
    const auto cc = crcw::algo::cc_caslt(g, {.threads = threads});
    crcw::graph::EdgeList tree_edges;
    for (const auto j : cc.forest_edges) {
      tree_edges.push_back({g.source_of(j), g.targets()[j]});
    }
    const auto tree = crcw::graph::build_csr(n, tree_edges);
    crcw::util::Timer t;
    const auto rooted = crcw::algo::root_tree(tree, 0, {.threads = threads});
    std::uint64_t max_depth = 0;
    for (const auto d : rooted.depth) max_depth = std::max(max_depth, d);
    std::printf("Euler-tour rooting of the hook forest: height %llu, root subtree %llu, "
                "%.3f ms\n",
                static_cast<unsigned long long>(max_depth),
                static_cast<unsigned long long>(rooted.subtree[0]), t.seconds() * 1e3);
  }

  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
