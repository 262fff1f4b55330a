#include "algorithms/bicc.hpp"

#include <omp.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "algorithms/cc.hpp"
#include "algorithms/tree_ops.hpp"
#include "graph/builder.hpp"
#include "util/rmq.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::Edge;
using graph::EdgeList;
using graph::edge_t;
using graph::vertex_t;

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

std::uint64_t pair_key(vertex_t a, vertex_t b) {
  const auto lo = std::min(a, b);
  const auto hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void check_simple(std::uint64_t n, const EdgeList& edges) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size() * 2);
  for (const auto& e : edges) {
    if (e.u >= n || e.v >= n) throw std::invalid_argument("bicc: endpoint out of range");
    if (e.u == e.v) throw std::invalid_argument("bicc: self-loops not allowed");
    if (!seen.insert(pair_key(e.u, e.v)).second) {
      throw std::invalid_argument("bicc: duplicate undirected edge");
    }
  }
}

}  // namespace

BiccResult biconnected_components(std::uint64_t n, const EdgeList& edges,
                                  const BiccOptions& opts) {
  if (n == 0) throw std::invalid_argument("bicc: empty vertex set");
  check_simple(n, edges);

  BiccResult result;
  result.edge_label.assign(edges.size(), kInf);
  result.is_articulation.assign(n, 0);
  if (edges.empty()) {
    if (n > 1) throw std::invalid_argument("bicc: graph not connected");
    return result;
  }

  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const Csr g = graph::build_csr(n, edges, {.threads = opts.threads});

  // --- 1. spanning tree from the CC hook forest ----------------------------
  const CcResult cc = cc_caslt(g, {.threads = opts.threads});
  if (cc.components != 1) throw std::invalid_argument("bicc: graph not connected");

  // forest_edges are CSR slots; recover (source, target) pairs.
  EdgeList tree_edges;
  tree_edges.reserve(n - 1);
  for (const edge_t j : cc.forest_edges) {
    tree_edges.push_back({g.source_of(j), g.targets()[j]});
  }
  const Csr tree = graph::build_csr(n, tree_edges, {.threads = opts.threads});

  // --- 2. root the tree (Euler tour, preorder, subtree segments) ----------
  const RootedTree rt = root_tree(tree, 0, {.threads = opts.threads});
  const auto& pre = rt.preorder;
  const auto& nd = rt.subtree;
  const auto& parent = rt.parent;
  const auto& entry = rt.entry_pos;
  const auto& exit_p = rt.exit_pos;
  const std::uint64_t m_tour = tree.num_edges();  // 2(n-1)

  // Ancestor test via tour segments (u is an ancestor of w, inclusive).
  const auto in_subtree = [&](vertex_t u, vertex_t w) {
    return entry[u] <= entry[w] && exit_p[w] <= exit_p[u];
  };

  // --- 3. low/high: per-vertex extremes, then subtree range queries -------
  // f_low(u) = min(pre[u], min pre over NON-TREE neighbours of u);
  // the tree membership test is parent-based (the tree is exactly the
  // parent relation).
  std::vector<std::uint64_t> tour_low(m_tour, kInf);
  std::vector<std::uint64_t> tour_high(m_tour, 0);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto u = static_cast<vertex_t>(vi);
    std::uint64_t lo = pre[u];
    std::uint64_t hi = pre[u];
    for (const vertex_t w : g.neighbors(u)) {
      if (parent[w] == u || parent[u] == w) continue;  // tree edge
      lo = std::min(lo, pre[w]);
      hi = std::max(hi, pre[w]);
    }
    if (u != 0) {
      tour_low[entry[u]] = lo;
      tour_high[entry[u]] = hi;
    } else {
      // The root's own value sits at tour position 0 only implicitly; the
      // root never appears inside another subtree query, so no slot needed.
    }
  }

  const util::SparseTableRmq<std::uint64_t> rmq_low(tour_low, threads);
  const util::SparseTableRmq<std::uint64_t, std::greater<std::uint64_t>> rmq_high(
      tour_high, threads);

  const auto low = [&](vertex_t v) { return rmq_low.best(entry[v], exit_p[v]); };
  const auto high = [&](vertex_t v) { return rmq_high.best(entry[v], exit_p[v]); };

  // --- 4. auxiliary graph over tree edges (vertex w ≙ edge (p(w), w)) -----
  // Tree-edge lookup for classifying input edges.
  std::unordered_set<std::uint64_t> tree_set;
  tree_set.reserve(tree_edges.size() * 2);
  for (const auto& e : tree_edges) tree_set.insert(pair_key(e.u, e.v));

  EdgeList aux;
  aux.reserve(edges.size());
  // Rule 1: non-tree edge between unrelated subtrees links both tree edges.
  for (const auto& e : edges) {
    if (tree_set.contains(pair_key(e.u, e.v))) continue;
    if (!in_subtree(e.u, e.v) && !in_subtree(e.v, e.u)) aux.push_back({e.u, e.v});
  }
  // Rule 2: tree edge (v, w), w child of non-root v, links to (p(v), v)
  // when w's subtree escapes v's subtree (via a back edge above v, or a
  // cross edge past it).
  for (vertex_t w = 0; w < n; ++w) {
    if (w == 0) continue;
    const vertex_t v = parent[w];
    if (v == 0) continue;
    if (low(w) < pre[v] || high(w) >= pre[v] + nd[v]) aux.push_back({v, w});
  }

  const Csr aux_csr = graph::build_csr(n, aux, {.threads = opts.threads});
  const CcResult aux_cc = cc_caslt(aux_csr, {.threads = opts.threads});
  const auto& comp = aux_cc.label;  // component per non-root vertex ≙ tree edge

  // --- 5. label input edges -------------------------------------------------
  const auto count = static_cast<std::int64_t>(edges.size());
  std::vector<vertex_t> edge_rep(edges.size());  // aux-graph representative
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t i = 0; i < count; ++i) {
    const auto& e = edges[static_cast<std::size_t>(i)];
    vertex_t carrier;
    if (tree_set.contains(pair_key(e.u, e.v))) {
      carrier = parent[e.v] == e.u ? e.v : e.u;  // the child endpoint
    } else if (in_subtree(e.u, e.v)) {
      carrier = e.v;  // descendant side of a back edge
    } else if (in_subtree(e.v, e.u)) {
      carrier = e.u;
    } else {
      carrier = e.u;  // unrelated: both sides share a component (rule 1)
    }
    edge_rep[static_cast<std::size_t>(i)] = comp[carrier];
  }

  // Canonicalise: component representative → smallest member edge id.
  std::unordered_map<vertex_t, std::uint64_t> smallest;
  smallest.reserve(edges.size());
  for (std::uint64_t i = 0; i < edges.size(); ++i) {
    auto [it, inserted] = smallest.emplace(edge_rep[i], i);
    if (!inserted) it->second = std::min(it->second, i);
  }
  for (std::uint64_t i = 0; i < edges.size(); ++i) {
    result.edge_label[i] = smallest[edge_rep[i]];
  }
  result.components = smallest.size();

  // --- 6. articulation points and bridges ----------------------------------
  // v is a cut vertex iff its incident edges span >= 2 components.
  {
    std::vector<std::uint64_t> first_label(n, kInf);
    for (std::uint64_t i = 0; i < edges.size(); ++i) {
      for (const vertex_t v : {edges[i].u, edges[i].v}) {
        if (first_label[v] == kInf) {
          first_label[v] = result.edge_label[i];
        } else if (first_label[v] != result.edge_label[i]) {
          result.is_articulation[v] = 1;
        }
      }
    }
  }
  {
    std::unordered_map<std::uint64_t, std::uint64_t> size_of;
    for (const auto l : result.edge_label) ++size_of[l];
    for (std::uint64_t i = 0; i < edges.size(); ++i) {
      if (size_of[result.edge_label[i]] == 1) result.bridges.push_back(i);
    }
  }
  return result;
}

}  // namespace crcw::algo
