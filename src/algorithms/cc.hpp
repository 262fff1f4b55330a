// Connected Components — paper §7.2 "Connected Components Algorithm" and
// the Figure 10/11/12 benchmark.
//
// The Awerbuch–Shiloach (1987) algorithm: a Shiloach–Vishkin variant whose
// hooking decisions are simplified by star detection. State is a parent
// forest P[] (roots are self-loops); each iteration:
//
//   1. star detection            (3 common-CW substeps)
//   2. conditional star hooking  for each edge (u,v): a star containing u
//                                hooks its root onto P[v] when P[v] < P[u]
//   3. star detection again
//   4. unconditional star hooking: surviving stars hook onto any adjacent
//                                different tree (guarantees progress)
//   5. pointer jumping           P[v] = P[P[v]]
//
// Two shortcuts skip work that can change nothing, and leave every label,
// forest slot, iteration count and per-round acquire attempt unchanged:
//   * iteration 1 starts from the identity forest, so its step 1 and the
//     snapshot before step 2 are skipped (every vertex is a singleton star
//     and P[v] == v);
//   * when step 1 finds every tree a star and step 2 scans no slot whose
//     endpoints lie in different trees, the forest has converged and the
//     iteration ends after step 2 (steps 3–5 would make no attempt and
//     move no pointer).
//
// Input: the A-S kernels (every entry point but cc_min_hook) need symmetric
// adjacency (v in N(u) iff u in N(v)), as graph::build_csr produces by
// default. A hook moves only the root of the tree whose list holds the
// crossing slot, and a root takes one hook per round. With one-way lists,
// a tree whose own lists never leave it merges only when a neighbour's
// root hooks onto it, so a large tree takes in such trees one per
// iteration, and the solve throws std::runtime_error on its O(log n)
// iteration bound (an R-MAT graph of 2^16 vertices and 2^18 one-way edges
// does).
//
// Hooking is an *arbitrary* concurrent write: many edges compete to set a
// root's parent, and the winning edge must update multiple cells atomically
// as a unit (the new parent AND the hook-edge record) — which is why the
// paper implements no naive CC variant: racing multi-array updates can
// commit a mix of two different hooks (§5). Every level of the CW guard
// (gatekeeper / CAS-LT / critical) is provided; each hooking substep is one
// concurrent-write round.
//
// Requiring P[v] < P[u] in step 2 orients conditional hooks downward, so the
// forest stays acyclic; unconditional hooking is restricted to stars that
// survived step 3, which cannot have been hooked in this iteration.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policies.hpp"
#include "graph/csr.hpp"

namespace crcw::algo {

struct CcOptions {
  int threads = 0;  ///< OpenMP threads; 0 = ambient setting
};

struct CcResult {
  /// Component representative per vertex (a root id; canonicalise with
  /// graph::canonicalize_labels before comparing across runs).
  std::vector<graph::vertex_t> label;
  /// CSR slots whose hooks committed — a spanning forest: exactly
  /// (n − components) edges whose union-find partition equals `label`.
  /// This is the second member of the multi-array hook update (§7.2) and
  /// why CC has no safe naive variant: a racing hook could record an edge
  /// belonging to a different winner. Empty for cc_min_hook (combining
  /// writes carry no payload).
  std::vector<graph::edge_t> forest_edges;
  std::uint64_t iterations = 0;   ///< hook+jump iterations executed
  std::uint64_t components = 0;   ///< number of distinct labels
};

namespace detail {
template <WritePolicy Policy>
CcResult cc_kernel(const graph::Csr& g, const CcOptions& opts);
}

/// One entry point per CW method compared in Figures 10–12 (no naive
/// variant exists — see above).
[[nodiscard]] CcResult cc_gatekeeper(const graph::Csr& g, const CcOptions& opts = {});
[[nodiscard]] CcResult cc_gatekeeper_skip(const graph::Csr& g, const CcOptions& opts = {});
[[nodiscard]] CcResult cc_caslt(const graph::Csr& g, const CcOptions& opts = {});
[[nodiscard]] CcResult cc_critical(const graph::Csr& g, const CcOptions& opts = {});

/// Shiloach–Vishkin-style min-label hooking baseline: every edge offers the
/// smaller endpoint label to the larger label's cell via atomic fetch-min
/// (a Priority(min-value) CW, core/combining.hpp), followed by full pointer
/// compression. Monotone — parent[i] < i always — so it is acyclic under
/// any interleaving, no star/stagnancy machinery needed. This is the
/// formulation modern GPU CC codes derive from SV.
[[nodiscard]] CcResult cc_min_hook(const graph::Csr& g, const CcOptions& opts = {});

}  // namespace crcw::algo
