// Connected Components (Awerbuch–Shiloach) — the partition must equal
// union–find's for every method, graph family, and thread count.
#include "algorithms/cc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "util/chunking.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::vertex_t;

/// The multi-array hook record really is a spanning forest — the §7.2
/// reason CC demands single-winner CW: n − components valid slots, each
/// merging two distinct trees, with exactly the connectivity of the labels.
void expect_spanning_forest(const Csr& g, const CcResult& r) {
  ASSERT_EQ(r.forest_edges.size(), g.num_vertices() - r.components);
  graph::UnionFind uf(g.num_vertices());
  for (const edge_t j : r.forest_edges) {
    ASSERT_LT(j, g.num_edges());
    ASSERT_TRUE(uf.unite(g.source_of(j), g.targets()[j])) << "cycle edge at slot " << j;
  }
  ASSERT_EQ(uf.num_sets(), r.components);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(uf.find(v), uf.find(r.label[v])) << "v=" << v;
  }
}

struct GraphCase {
  std::string name;
  Csr graph;
  std::uint64_t expected_components;
};

GraphCase make_case(const std::string& name) {
  using namespace graph;
  if (name == "path") return {name, build_csr(100, path(100)), 1};
  if (name == "star") return {name, build_csr(200, star(200)), 1};
  if (name == "cycle") return {name, build_csr(64, cycle(64)), 1};
  if (name == "grid") return {name, build_csr(100, grid2d(10, 10)), 1};
  if (name == "gnm") {
    Csr g = random_graph(300, 900, 13);
    const std::uint64_t k = count_components(g);
    return {name, std::move(g), k};
  }
  if (name == "planted5") return {name, build_csr(100, planted_components(5, 20, 6, 3)), 5};
  if (name == "isolated") return {name, build_csr(50, {}), 50};
  if (name == "twopair") return {name, build_csr(4, EdgeList{{0, 1}, {2, 3}}), 2};
  throw std::logic_error("unknown case " + name);
}

using CcParam = std::tuple<std::string, std::string, int>;

std::string param_name(const ::testing::TestParamInfo<CcParam>& pinfo) {
  auto name = std::get<0>(pinfo.param) + "_" + std::get<1>(pinfo.param) + "_t" +
              std::to_string(std::get<2>(pinfo.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class CcMethodTest : public ::testing::TestWithParam<CcParam> {};

TEST_P(CcMethodTest, PartitionMatchesUnionFind) {
  const auto& [method, gcase, threads] = GetParam();
  const GraphCase c = make_case(gcase);
  const CcResult r = run_cc(method, c.graph, {.threads = threads});
  EXPECT_EQ(r.components, c.expected_components) << method << "/" << gcase;
  EXPECT_TRUE(graph::validate_components(c.graph, r.label)) << method << "/" << gcase;
}

TEST_P(CcMethodTest, LabelsAreRootsOfThemselves) {
  // After convergence every label must itself be labelled with itself —
  // i.e. pointer jumping reached a fixpoint.
  const auto& [method, gcase, threads] = GetParam();
  const GraphCase c = make_case(gcase);
  const CcResult r = run_cc(method, c.graph, {.threads = threads});
  for (vertex_t v = 0; v < c.graph.num_vertices(); ++v) {
    ASSERT_EQ(r.label[r.label[v]], r.label[v]) << method << "/" << gcase << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGraphsByThreads, CcMethodTest,
    ::testing::Combine(
        ::testing::Values("gatekeeper", "gatekeeper-skip", "caslt", "critical", "min-hook"),
        ::testing::Values("path", "star", "cycle", "grid", "gnm", "planted5", "isolated",
                          "twopair"),
        ::testing::Values(1, 8)),
    param_name);

// ---------------------------------------------------------------------------

TEST(Cc, EmptyGraph) {
  const Csr g;
  const CcResult r = cc_caslt(g);
  EXPECT_TRUE(r.label.empty());
  EXPECT_EQ(r.components, 0u);
}

TEST(Cc, SingleVertex) {
  const auto g = graph::build_csr(1, {});
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 1u);
  EXPECT_EQ(r.label[0], 0u);
}

TEST(Cc, SelfLoopsAndMultiEdges) {
  graph::EdgeList edges = {{0, 0}, {0, 1}, {0, 1}, {2, 2}};
  const auto g = graph::build_csr(3, edges);
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 2u);
  EXPECT_TRUE(graph::validate_components(g, r.label));
}

TEST(Cc, IterationCountIsLogarithmic) {
  // A-S converges in O(log n) iterations; a path is the deep-tree stressor.
  const auto g = graph::build_csr(4096, graph::path(4096));
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 1u);
  EXPECT_LE(r.iterations, 30u) << "A-S must converge in O(log n) iterations";
}

TEST(Cc, ManySeedsManyShapes) {
  // Randomised property sweep: sparse through dense.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::uint64_t n = 100 + seed * 50;
    const std::uint64_t m = n * (1 + seed % 4);
    const auto g = graph::random_graph(n, m, seed);
    const auto expected = graph::count_components(g);
    const CcResult r = cc_caslt(g);
    ASSERT_EQ(r.components, expected) << "seed " << seed;
    ASSERT_TRUE(graph::validate_components(g, r.label)) << "seed " << seed;
  }
}

TEST(Cc, AllMethodsProduceIdenticalCanonicalLabels) {
  const auto g = graph::random_graph(200, 380, 23);
  const auto canon = graph::canonicalize_labels(cc_caslt(g).label);
  for (const auto& method : cc_methods()) {
    const CcResult r = run_cc(method, g);
    EXPECT_EQ(graph::canonicalize_labels(r.label), canon) << method;
  }
}

TEST(Cc, ForestEdgesFormASpanningForest) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE(seed);
    const auto g = graph::random_graph(150, 300 + seed * 120, seed);
    expect_spanning_forest(g, cc_caslt(g, {.threads = 8}));
  }
}

TEST(Cc, ForestEdgesAcrossAllGuardedMethods) {
  const auto g = graph::random_graph(120, 240, 77);
  for (const std::string method : {"gatekeeper", "gatekeeper-skip", "caslt", "critical"}) {
    const CcResult r = run_cc(method, g);
    EXPECT_EQ(r.forest_edges.size(), g.num_vertices() - r.components) << method;
  }
  // min-hook uses combining writes (no payload) — no forest by design.
  EXPECT_TRUE(run_cc("min-hook", g).forest_edges.empty());
}

// ---------------------------------------------------------------------------
// Graphs whose slots span many util::kEdgeChunk chunks, so the hook sweeps
// split lists across chunks and start chunks inside zero-degree runs. Each
// is built once per process.

constexpr edge_t kChunk = util::kEdgeChunk;

/// A star whose centre is the highest id: every slot of the centre's list
/// contends for the centre's tag, and the list crosses 3 chunk boundaries.
const Csr& chunked_star() {
  static const Csr g = [] {
    const auto centre = static_cast<vertex_t>(3 * kChunk + kChunk / 2);
    graph::EdgeList edges;
    for (vertex_t v = 0; v < centre; ++v) edges.push_back({centre, v});
    return graph::build_csr(centre + 1, edges);
  }();
  return g;
}

/// Runs of zero-degree vertices, each followed by a hub's star that fills
/// exactly one chunk (leaves first, then the hub): every chunk begins at
/// an offset that a whole run of zero-degree vertices shares.
constexpr vertex_t kGapRun = 10'000;
const Csr& chunked_gaps() {
  static const Csr g = [] {
    graph::EdgeList edges;
    vertex_t next = 0;
    for (int hub = 0; hub < 3; ++hub) {
      next += kGapRun;
      const vertex_t first_leaf = next;
      next += static_cast<vertex_t>(kChunk / 2);
      for (vertex_t v = first_leaf; v < next; ++v) edges.push_back({next, v});
      ++next;
    }
    return graph::build_csr(next + kGapRun, edges);
  }();
  return g;
}

const Csr& chunked_rmat() {
  static const Csr g = graph::build_csr(1 << 16, graph::rmat(1 << 16, 1 << 20, 5));
  return g;
}

const Csr& chunked_graph(const std::string& name) {
  if (name == "star") return chunked_star();
  if (name == "gaps") return chunked_gaps();
  if (name == "rmat") return chunked_rmat();
  throw std::logic_error("unknown case " + name);
}

TEST(CcChunkedGraphs, CrossChunkBoundaries) {
  const Csr& star = chunked_star();
  const auto centre = static_cast<vertex_t>(star.num_vertices() - 1);
  const edge_t begin = star.offset(centre);
  const edge_t last = begin + star.degree(centre) - 1;
  EXPECT_GE(last / kChunk - begin / kChunk, 3u) << "centre list crosses < 3 boundaries";

  const Csr& gaps = chunked_gaps();
  ASSERT_EQ(gaps.num_edges(), 3 * kChunk);
  for (edge_t c = 0; c < gaps.num_edges(); c += kChunk) {
    const vertex_t u = gaps.source_of(c);
    EXPECT_EQ(gaps.offset(u), c);
    for (vertex_t w = u - kGapRun; w < u; ++w) ASSERT_EQ(gaps.degree(w), 0u) << "chunk " << c;
  }

  EXPECT_GT(chunked_rmat().num_edges(), 16 * kChunk);
}

/// A-S exactly as the hook rounds read it, one edge at a time in slot
/// order: a serial oracle for a one-thread solve, where the first attempt
/// on a tag in a round is the one that wins.
struct EdgeByEdge {
  std::vector<vertex_t> label;
  std::vector<edge_t> forest;
  std::uint64_t iterations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t wins = 0;
};

EdgeByEdge edge_by_edge_solve(const Csr& g) {
  const auto n = static_cast<vertex_t>(g.num_vertices());
  EdgeByEdge out;
  std::vector<vertex_t>& parent = out.label;
  parent.resize(n);
  for (vertex_t v = 0; v < n; ++v) parent[v] = v;
  std::vector<edge_t> hook(n, ~edge_t{0});
  std::vector<std::uint8_t> star(n);
  const auto detect_stars = [&] {
    std::fill(star.begin(), star.end(), 1);
    for (vertex_t v = 0; v < n; ++v) {
      const vertex_t p = parent[v];
      if (p != parent[p]) star[v] = star[p] = star[parent[p]] = 0;
    }
    for (vertex_t v = 0; v < n; ++v) star[v] = star[parent[v]];
  };
  const auto hook_round = [&](auto guard) {
    const std::vector<vertex_t> snap = parent;
    std::vector<std::uint8_t> taken(n, 0);
    bool changed = false;
    for (vertex_t u = 0; u < n; ++u) {
      for (edge_t j = g.offset(u); j < g.offset(u) + g.degree(u); ++j) {
        const vertex_t pu = snap[u];
        const vertex_t pv = snap[g.targets()[j]];
        if (star[u] == 0 || !guard(snap, pu, pv)) continue;
        ++out.attempts;
        if (taken[pu] != 0) continue;
        taken[pu] = 1;
        ++out.wins;
        parent[pu] = pv;
        hook[pu] = j;
        changed = true;
      }
    }
    return changed;
  };
  for (bool changed = true; changed; ++out.iterations) {
    detect_stars();
    changed = hook_round([](const auto&, vertex_t pu, vertex_t pv) { return pv < pu; });
    detect_stars();
    changed |= hook_round([](const auto& snap, vertex_t pu, vertex_t pv) {
      return pv > pu && snap[pv] == pv;
    });
    const std::vector<vertex_t> snap = parent;
    for (vertex_t v = 0; v < n; ++v) {
      changed |= parent[v] != snap[snap[v]];
      parent[v] = snap[snap[v]];
    }
  }
  for (vertex_t v = 0; v < n; ++v) {
    if (hook[v] != ~edge_t{0}) out.forest.push_back(hook[v]);
  }
  return out;
}

/// Skipping a non-star source's list, splitting lists across chunks, and
/// the kernel's two shortcuts (no star detection or snapshot on the
/// identity forest, no steps 3–5 once a star forest has no crossing slot)
/// must leave every round's attempts those of an edge-by-edge sweep: at
/// one thread each guarded method's solve and contention counts match the
/// oracle. The oracle runs every substep of every iteration, so a shortcut
/// that skipped a substep with a live attempt, under any policy, fails.
void expect_edge_by_edge(const Csr& g) {
  const EdgeByEdge want = edge_by_edge_solve(g);
  for (const std::string method : {"caslt", "gatekeeper", "gatekeeper-skip", "critical"}) {
    SCOPED_TRACE(method);
    const CcResult r = run_cc(method, g, {.threads = 1});
    EXPECT_EQ(r.label, want.label);
    EXPECT_EQ(r.forest_edges, want.forest);
    EXPECT_EQ(r.iterations, want.iterations);
    if (method == "critical") continue;  // no instrumentable arbiter
    const auto totals = profile_cc(method, g, {.threads = 1});
    ASSERT_TRUE(totals.has_value());
    EXPECT_EQ(totals->attempts, want.attempts);
    EXPECT_EQ(totals->wins, want.wins);
    // Every test graph is symmetric, so the final iteration ends after its
    // conditional round: two rounds per iteration but the last.
    EXPECT_EQ(totals->rounds, 2 * want.iterations - 1);
  }
}

TEST(CcChunkedGraphs, OneThreadSweepMakesTheEdgeByEdgeAttempts) {
  for (const std::string gcase : {"star", "gaps", "rmat"}) {
    SCOPED_TRACE(gcase);
    expect_edge_by_edge(chunked_graph(gcase));
  }
  for (const std::string gcase : {"path", "grid", "gnm", "planted5", "isolated", "twopair"}) {
    SCOPED_TRACE(gcase);
    expect_edge_by_edge(make_case(gcase).graph);
  }
  // No slot crosses the identity forest of an edgeless graph: the solve
  // ends in iteration 1, after one hook round and no star detection.
  const Csr isolated = make_case("isolated").graph;
  EXPECT_EQ(cc_caslt(isolated, {.threads = 1}).iterations, 1u);
  EXPECT_EQ(profile_cc("caslt", isolated, {.threads = 1})->rounds, 1u);
}

/// 2^20 vertices in disjoint pairs {2i, 2i+1}: iteration 1 hooks every
/// odd vertex onto its even partner through its one slot, 2i + 1, so the
/// forest is 1, 3, 5, … in vertex order. The team collects the hook
/// records in vertex blocks; any width must keep that order.
TEST(Cc, ForestEdgesComeInVertexOrderAtAnyWidth) {
  constexpr vertex_t kPairs = vertex_t{1} << 19;
  graph::EdgeList edges;
  edges.reserve(kPairs);
  for (vertex_t i = 0; i < kPairs; ++i) edges.push_back({2 * i, 2 * i + 1});
  const Csr g = graph::build_csr(2 * kPairs, edges);
  std::vector<edge_t> want(kPairs);
  for (vertex_t i = 0; i < kPairs; ++i) want[i] = 2 * edge_t{i} + 1;
  for (const std::string method : {"caslt", "gatekeeper"}) {
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(method + " t" + std::to_string(threads));
      const CcResult r = run_cc(method, g, {.threads = threads});
      EXPECT_EQ(r.components, kPairs);
      EXPECT_TRUE(r.forest_edges == want) << "forest out of vertex order";
    }
  }
}

class CcChunkTest : public ::testing::TestWithParam<CcParam> {};

TEST_P(CcChunkTest, MatchesUnionFind) {
  const auto& [method, gcase, threads] = GetParam();
  const Csr& g = chunked_graph(gcase);
  const CcResult r = run_cc(method, g, {.threads = threads});
  EXPECT_EQ(graph::canonicalize_labels(r.label), graph::connected_components(g));
  EXPECT_EQ(r.components, graph::count_components(g));
  if (method == "min-hook") {
    EXPECT_TRUE(r.forest_edges.empty());  // combining writes carry no payload
  } else {
    expect_spanning_forest(g, r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AcrossChunks, CcChunkTest,
    ::testing::Combine(::testing::ValuesIn(cc_methods()),
                       ::testing::Values("star", "gaps", "rmat"), ::testing::Values(1, 4)),
    param_name);

TEST(Cc, DispatchRejectsNaive) {
  // §7.2: no naive CC exists — racing multi-array hooks are unsafe.
  const auto g = graph::build_csr(2, graph::path(2));
  EXPECT_THROW((void)run_cc("naive", g), std::invalid_argument);
}

}  // namespace
}  // namespace crcw::algo
