#include "algorithms/tree_ops.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>

#include "algorithms/list_ranking.hpp"
#include "algorithms/scan.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::vertex_t;

void check_tree_shape(const Csr& tree) {
  const std::uint64_t n = tree.num_vertices();
  if (n == 0) throw std::invalid_argument("tree_ops: empty tree");
  if (tree.num_edges() != 2 * (n - 1)) {
    throw std::invalid_argument("tree_ops: expected exactly 2(n-1) directed slots");
  }
  if (!tree.sorted()) {
    throw std::invalid_argument("tree_ops: adjacency must be sorted (build_csr default)");
  }
  for (vertex_t v = 0; v < n; ++v) {
    const auto adj = tree.neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i] == v) throw std::invalid_argument("tree_ops: self-loop");
      if (i > 0 && adj[i] == adj[i - 1]) {
        throw std::invalid_argument("tree_ops: parallel edge");
      }
    }
  }
}

/// Slot of (v→u) given slot j = (u→v); binary search in v's sorted list.
edge_t find_twin(const Csr& tree, vertex_t u, vertex_t v) {
  const auto adj = tree.neighbors(v);
  const auto it = std::lower_bound(adj.begin(), adj.end(), u);
  return tree.offset(v) + static_cast<edge_t>(it - adj.begin());
}

}  // namespace

EulerTour euler_tour(const Csr& tree, const TreeOpsOptions& opts) {
  check_tree_shape(tree);
  const std::uint64_t n = tree.num_vertices();
  const std::uint64_t m = tree.num_edges();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();

  EulerTour tour{std::vector<edge_t>(m), std::vector<edge_t>(m)};

  // Both maps are per-slot independent — one exclusive-write step each.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto u = static_cast<vertex_t>(vi);
    for (edge_t j = tree.offset(u); j < tree.offset(u) + tree.degree(u); ++j) {
      tour.twin[j] = find_twin(tree, u, tree.targets()[j]);
    }
  }

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t ji = 0; ji < static_cast<std::int64_t>(m); ++ji) {
    const auto j = static_cast<edge_t>(ji);
    // j = (u→v); successor = v's next slot after the twin, cyclically.
    const vertex_t v = tree.targets()[j];
    const edge_t t = tour.twin[j];
    const edge_t pos = t - tree.offset(v);
    const edge_t next_pos = (pos + 1) % tree.degree(v);
    tour.next[j] = tree.offset(v) + next_pos;
  }

  return tour;
}

RootedTree root_tree(const Csr& tree, vertex_t root, const TreeOpsOptions& opts) {
  const std::uint64_t n = tree.num_vertices();
  if (root >= n) throw std::invalid_argument("tree_ops: root out of range");

  RootedTree out;
  out.parent.assign(n, graph::kNoVertex);
  out.subtree.assign(n, 1);
  out.depth.assign(n, 0);
  out.preorder.assign(n, 0);
  out.entry_pos.assign(n, 0);
  out.exit_pos.assign(n, 0);
  out.parent[root] = root;
  if (n == 1) {
    // check_tree_shape accepts a single vertex (0 slots) through this path.
    if (tree.num_edges() != 0) throw std::invalid_argument("tree_ops: bad singleton");
    return out;
  }

  const EulerTour tour = euler_tour(tree, opts);
  const std::uint64_t m = tree.num_edges();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();

  // Break the Euler cycle at the root's first outgoing slot: the slot
  // whose successor is `head` becomes the self-looping tail.
  const edge_t head = tree.offset(root);
  std::vector<std::uint64_t> succ(m);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t ji = 0; ji < static_cast<std::int64_t>(m); ++ji) {
    const auto j = static_cast<std::size_t>(ji);
    succ[j] = tour.next[j] == head ? j : tour.next[j];
  }

  // rank = hops to the tail; position in the tour = (m-1) - rank.
  const auto rank = list_rank(succ, {.threads = opts.threads});
  std::vector<std::uint64_t> pos(m);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t ji = 0; ji < static_cast<std::int64_t>(m); ++ji) {
    const auto j = static_cast<std::size_t>(ji);
    pos[j] = (m - 1) - rank[j];
  }

  // The down direction of each tree edge is the one visited first. For a
  // down slot (u→v): parent[v] = u (exclusive write: one down slot enters
  // each non-root vertex), subtree size from the twin distance.
  auto* parent = out.parent.data();
  auto* subtree = out.subtree.data();
  auto* entry = out.entry_pos.data();
  auto* exit_p = out.exit_pos.data();
  // Marks the tour position of every down edge, for preorder numbering.
  std::vector<std::uint64_t> is_down_at_pos(m, 0);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto u = static_cast<vertex_t>(vi);
    for (edge_t j = tree.offset(u); j < tree.offset(u) + tree.degree(u); ++j) {
      const vertex_t v = tree.targets()[j];
      if (v == root) continue;
      const edge_t t = tour.twin[j];
      if (pos[j] < pos[t]) {  // (u→v) is the downward traversal
        parent[v] = u;
        subtree[v] = (pos[t] - pos[j] + 1) / 2;
        entry[v] = pos[j];
        exit_p[v] = pos[t];
        is_down_at_pos[pos[j]] = 1;
      }
    }
  }
  out.subtree[root] = n;
  out.entry_pos[root] = 0;
  out.exit_pos[root] = m - 1;

  // Preorder = 1 + number of earlier down edges on the tour (root is 0).
  const auto down_before = exclusive_scan(is_down_at_pos, {.threads = opts.threads});
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
    const auto v = static_cast<std::size_t>(vi);
    if (static_cast<vertex_t>(v) != root) out.preorder[v] = 1 + down_before[entry[v]];
  }

  // Depths by pointer-jumping accumulation: O(log n) doubling rounds.
  std::vector<std::uint64_t> depth(n, 1);
  depth[root] = 0;
  std::vector<vertex_t> anc(out.parent);
  std::vector<std::uint64_t> depth_next(n);
  std::vector<vertex_t> anc_next(n);
  for (std::uint64_t span = 1; span < n; span *= 2) {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t vi = 0; vi < static_cast<std::int64_t>(n); ++vi) {
      const auto v = static_cast<std::size_t>(vi);
      const vertex_t a = anc[v];
      depth_next[v] = depth[v] + (static_cast<std::size_t>(a) == v ? 0 : depth[a]);
      anc_next[v] = anc[a];
    }
    depth.swap(depth_next);
    anc.swap(anc_next);
  }
  out.depth = std::move(depth);
  return out;
}

}  // namespace crcw::algo
