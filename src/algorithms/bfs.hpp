// Level-synchronous BFS — paper Figure 3 and the Figure 7/8/9 benchmark.
//
// A faithful re-implementation of the Rodinia 3.1 OpenMP BFS the paper
// starts from: each iteration scans all vertices, and vertices on the
// current level relax their edges. Discovering a vertex u is a concurrent
// write into FOUR arrays at once — Parent[u], Sel_edge[u], Visited[u],
// Level[u] (Fig 3 lines 23-26) — exactly the multi-transaction write §4
// warns about. The three variants differ only in the `canConWrite` call on
// line 22:
//
//   naive       no guard: every discovering edge stores all four (Rodinia's
//               original). Level/Visited are common CWs and stay correct;
//               Parent/Sel_edge are arbitrary CWs and can end up MIXED
//               (parent from edge A, sel_edge from edge B).
//   gatekeeper  Figure 3(b): atomic increment on gatekeeper[u]; requires the
//               O(N) gatekeeper re-zero after every level (lines 34-35).
//   caslt       Figure 3(a): CAS-LT on RoundWritten[u] with round = L+1,
//               "round for free" from the level counter (line 33).
//
// Fixes to the paper's pseudo-code (see DESIGN.md §7): Level[] initialised
// to -1 (the listing never initialises non-source levels), V[] has N+1
// entries, and `done` is reduced through a relaxed atomic store.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policies.hpp"
#include "graph/csr.hpp"

namespace crcw::algo {

struct BfsOptions {
  int threads = 0;  ///< OpenMP threads; 0 = ambient setting
};

struct BfsResult {
  std::vector<std::int64_t> level;       ///< -1 = unreachable
  std::vector<graph::vertex_t> parent;   ///< kNoVertex = none
  std::vector<graph::edge_t> sel_edge;   ///< CSR slot that discovered v
  std::uint64_t rounds = 0;              ///< executed level iterations
};

namespace detail {
template <WritePolicy Policy>
BfsResult bfs_kernel(const graph::Csr& g, graph::vertex_t source, const BfsOptions& opts);

template <WritePolicy Policy>
BfsResult bfs_frontier_kernel(const graph::Csr& g, graph::vertex_t source,
                              const BfsOptions& opts);
}

/// Frontier-queue BFS (the other Rodinia formulation): instead of scanning
/// all N vertices per level (Fig 3 line 15), an explicit frontier array is
/// carried between levels, with the next frontier allocated through an
/// atomic tail counter — fetch_add as a *slot-allocating* concurrent write,
/// complementing CAS-LT's *winner-selecting* one. Discovery itself is
/// still guarded by CAS-LT, so parent/sel_edge stay consistent. Work is
/// Θ(edges touched) instead of Θ(levels · N). Slots come from a
/// SlotAllocator (per-thread chunked grants, core/slot_alloc.hpp), and the
/// frontier/next buffers are double-buffered with std::swap — no O(frontier)
/// copy per level.
[[nodiscard]] BfsResult bfs_frontier(const graph::Csr& g, graph::vertex_t source,
                                     const BfsOptions& opts = {});

/// Direction-optimizing BFS (Beamer-style): dense frontiers switch to
/// BOTTOM-UP steps, where each *unvisited* vertex scans its own adjacency
/// for a visited neighbour and claims itself — an exclusive write, no
/// concurrent-write machinery at all. Sparse frontiers run the CAS-LT
/// top-down step. The switch threshold is `alpha` × average degree. A
/// counterpoint inside the library: restructuring can sometimes remove the
/// need for CW entirely, at the price of extra edge scans.
[[nodiscard]] BfsResult bfs_direction_optimizing(const graph::Csr& g,
                                                 graph::vertex_t source,
                                                 const BfsOptions& opts = {});

/// One entry point per method compared in Figures 7–9.
[[nodiscard]] BfsResult bfs_naive(const graph::Csr& g, graph::vertex_t source,
                                  const BfsOptions& opts = {});
[[nodiscard]] BfsResult bfs_gatekeeper(const graph::Csr& g, graph::vertex_t source,
                                       const BfsOptions& opts = {});
[[nodiscard]] BfsResult bfs_gatekeeper_skip(const graph::Csr& g, graph::vertex_t source,
                                            const BfsOptions& opts = {});
[[nodiscard]] BfsResult bfs_caslt(const graph::Csr& g, graph::vertex_t source,
                                  const BfsOptions& opts = {});
[[nodiscard]] BfsResult bfs_critical(const graph::Csr& g, graph::vertex_t source,
                                     const BfsOptions& opts = {});

}  // namespace crcw::algo
