// Euler-tour tree operations: parents, subtree sizes, depths.
#include "algorithms/tree_ops.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"

namespace crcw::algo {
namespace {

using graph::build_csr;
using graph::Csr;
using graph::vertex_t;

Csr tree_csr(std::uint64_t n, const graph::EdgeList& edges) {
  return build_csr(n, edges, {.symmetrize = true, .sort_neighbors = true});
}

/// Sequential reference rooting (DFS).
struct RefRooted {
  std::vector<vertex_t> parent;
  std::vector<std::uint64_t> subtree;
  std::vector<std::uint64_t> depth;
};

RefRooted reference_root(const Csr& tree, vertex_t root) {
  const std::uint64_t n = tree.num_vertices();
  RefRooted out;
  out.parent.assign(n, graph::kNoVertex);
  out.subtree.assign(n, 1);
  out.depth.assign(n, 0);
  out.parent[root] = root;

  // Iterative DFS with post-order subtree accumulation.
  std::vector<std::pair<vertex_t, bool>> stack = {{root, false}};
  while (!stack.empty()) {
    const auto [v, post] = stack.back();
    stack.pop_back();
    if (post) {
      if (v != root) out.subtree[out.parent[v]] += out.subtree[v];
      continue;
    }
    stack.push_back({v, true});
    for (const vertex_t u : tree.neighbors(v)) {
      if (u == out.parent[v] || u == root) continue;
      if (out.parent[u] != graph::kNoVertex) continue;
      out.parent[u] = v;
      out.depth[u] = out.depth[v] + 1;
      stack.push_back({u, false});
    }
  }
  return out;
}

void expect_matches_reference(const Csr& tree, vertex_t root, int threads) {
  const RootedTree got = root_tree(tree, root, {.threads = threads});
  const RefRooted want = reference_root(tree, root);
  const std::uint64_t n = tree.num_vertices();
  ASSERT_EQ(got.parent.size(), n);
  for (vertex_t v = 0; v < n; ++v) {
    ASSERT_EQ(got.parent[v], want.parent[v]) << "parent of " << v;
    ASSERT_EQ(got.subtree[v], want.subtree[v]) << "subtree of " << v;
    ASSERT_EQ(got.depth[v], want.depth[v]) << "depth of " << v;
  }
}

TEST(EulerTour, TwinAndNextAreConsistent) {
  const Csr tree = tree_csr(4, graph::path(4));
  const EulerTour tour = euler_tour(tree);
  const std::uint64_t m = tree.num_edges();
  ASSERT_EQ(tour.twin.size(), m);
  for (std::uint64_t j = 0; j < m; ++j) {
    EXPECT_EQ(tour.twin[tour.twin[j]], j) << "twin must be an involution";
    EXPECT_LT(tour.next[j], m);
  }
}

TEST(EulerTour, IsASingleCycle) {
  const Csr tree = tree_csr(10, graph::random_tree(10, 5));
  const EulerTour tour = euler_tour(tree);
  const std::uint64_t m = tree.num_edges();
  std::vector<std::uint8_t> seen(m, 0);
  std::uint64_t cur = 0;
  for (std::uint64_t steps = 0; steps < m; ++steps) {
    ASSERT_EQ(seen[cur], 0) << "cycle revisits slot " << cur;
    seen[cur] = 1;
    cur = tour.next[cur];
  }
  EXPECT_EQ(cur, 0u) << "tour must close after exactly m steps";
}

TEST(EulerTour, RejectsNonTrees) {
  EXPECT_THROW((void)euler_tour(tree_csr(3, graph::complete(3))), std::invalid_argument);
  EXPECT_THROW((void)euler_tour(build_csr(2, graph::EdgeList{{0, 0}})),
               std::invalid_argument);
  EXPECT_THROW((void)euler_tour(Csr{}), std::invalid_argument);
  // A tree whose lists are left in edge-list order: 0's list is {2, 1}.
  const Csr tree = build_csr(3, graph::EdgeList{{0, 2}, {0, 1}}, {.sort_neighbors = false});
  EXPECT_THROW((void)euler_tour(tree), std::invalid_argument);
}

TEST(RootTree, PathFromEnd) {
  const Csr tree = tree_csr(6, graph::path(6));
  const RootedTree r = root_tree(tree, 0);
  for (vertex_t v = 1; v < 6; ++v) EXPECT_EQ(r.parent[v], v - 1);
  EXPECT_EQ(r.parent[0], 0u);
  EXPECT_EQ(r.depth[5], 5u);
  EXPECT_EQ(r.subtree[0], 6u);
  EXPECT_EQ(r.subtree[3], 3u);
}

TEST(RootTree, PathFromMiddle) { expect_matches_reference(tree_csr(7, graph::path(7)), 3, 4); }

TEST(RootTree, Star) {
  const Csr tree = tree_csr(9, graph::star(9));
  const RootedTree r = root_tree(tree, 0);
  for (vertex_t v = 1; v < 9; ++v) {
    EXPECT_EQ(r.parent[v], 0u);
    EXPECT_EQ(r.depth[v], 1u);
    EXPECT_EQ(r.subtree[v], 1u);
  }
  EXPECT_EQ(r.subtree[0], 9u);
  // Rooting at a leaf flips the centre under it.
  expect_matches_reference(tree, 4, 2);
}

TEST(RootTree, SingletonTree) {
  const Csr tree = build_csr(1, {});
  const RootedTree r = root_tree(tree, 0);
  EXPECT_EQ(r.parent[0], 0u);
  EXPECT_EQ(r.subtree[0], 1u);
  EXPECT_EQ(r.depth[0], 0u);
}

TEST(RootTree, DepthEqualsBfsLevel) {
  // On a tree, depth from root == BFS level — a cross-module check.
  const Csr tree = tree_csr(200, graph::random_tree(200, 11));
  const RootedTree r = root_tree(tree, 0, {.threads = 4});
  const auto levels = graph::bfs_levels(tree, 0);
  for (vertex_t v = 0; v < 200; ++v) {
    ASSERT_EQ(static_cast<std::int64_t>(r.depth[v]), levels[v]) << v;
  }
}

class RootTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(RootTreeRandomTest, MatchesSequentialReference) {
  const auto& [n, threads] = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Csr tree = tree_csr(n, graph::random_tree(n, seed));
    const auto root = static_cast<vertex_t>(seed % n);
    expect_matches_reference(tree, root, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RootTreeRandomTest,
                         ::testing::Values(std::make_tuple(std::uint64_t{2}, 1),
                                           std::make_tuple(std::uint64_t{3}, 1),
                                           std::make_tuple(std::uint64_t{17}, 4),
                                           std::make_tuple(std::uint64_t{128}, 4),
                                           std::make_tuple(std::uint64_t{1000}, 8)),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(std::get<0>(pinfo.param)) + "_t" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

TEST(RootTree, RootOutOfRangeThrows) {
  const Csr tree = tree_csr(3, graph::path(3));
  EXPECT_THROW((void)root_tree(tree, 9), std::invalid_argument);
}

}  // namespace
}  // namespace crcw::algo
