// k-core decomposition: parallel peeling vs sequential bucket peeling.
#include "algorithms/kcore.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace crcw::algo {
namespace {

using graph::build_csr;
using graph::Csr;

TEST(KcoreSeq, HandComputedShapes) {
  // Path: everything is 1-core.
  const auto path = build_csr(5, graph::path(5));
  EXPECT_EQ(kcore_seq(path), (std::vector<std::uint32_t>(5, 1)));

  // Cycle: 2-core throughout.
  const auto cyc = build_csr(6, graph::cycle(6));
  EXPECT_EQ(kcore_seq(cyc), (std::vector<std::uint32_t>(6, 2)));

  // K5: 4-core.
  const auto k5 = build_csr(5, graph::complete(5));
  EXPECT_EQ(kcore_seq(k5), (std::vector<std::uint32_t>(5, 4)));

  // Star: leaves and centre all 1-core.
  const auto st = build_csr(8, graph::star(8));
  EXPECT_EQ(kcore_seq(st), (std::vector<std::uint32_t>(8, 1)));
}

TEST(KcoreSeq, TriangleWithTail) {
  // Triangle {0,1,2} (2-core) with tail 2-3-4 (1-core).
  graph::EdgeList edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}};
  const auto g = build_csr(5, edges);
  EXPECT_EQ(kcore_seq(g), (std::vector<std::uint32_t>{2, 2, 2, 1, 1}));
}

TEST(Kcore, EmptyAndIsolated) {
  const Csr empty;
  EXPECT_TRUE(kcore(empty).core.empty());

  const auto iso = build_csr(4, {});
  const KcoreResult r = kcore(iso);
  EXPECT_EQ(r.core, (std::vector<std::uint32_t>(4, 0)));
  EXPECT_EQ(r.degeneracy, 0u);
}

TEST(Kcore, MatchesSeqOnHandShapes) {
  graph::EdgeList edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}};
  const auto g = build_csr(5, edges);
  const KcoreResult r = kcore(g, {.threads = 4});
  EXPECT_EQ(r.core, kcore_seq(g));
  EXPECT_EQ(r.degeneracy, 2u);
}

using KcoreParam = std::tuple<std::uint64_t, std::uint64_t, int>;

class KcoreRandomTest : public ::testing::TestWithParam<KcoreParam> {};

TEST_P(KcoreRandomTest, MatchesSequentialReference) {
  const auto& [n, m, threads] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto g = graph::random_graph(n, m, seed);
    const auto expected = kcore_seq(g);
    const KcoreResult r = kcore(g, {.threads = threads});
    ASSERT_EQ(r.core, expected) << "n=" << n << " m=" << m << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KcoreRandomTest,
    ::testing::Values(std::make_tuple(std::uint64_t{10}, std::uint64_t{15}, 1),
                      std::make_tuple(std::uint64_t{100}, std::uint64_t{150}, 4),
                      std::make_tuple(std::uint64_t{100}, std::uint64_t{800}, 4),
                      std::make_tuple(std::uint64_t{1000}, std::uint64_t{5000}, 8),
                      std::make_tuple(std::uint64_t{2000}, std::uint64_t{2000}, 8)),
    [](const auto& pinfo) {
      std::string name = "n";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_m";
      name += std::to_string(std::get<1>(pinfo.param));
      name += "_t";
      name += std::to_string(std::get<2>(pinfo.param));
      return name;
    });

TEST(Kcore, RmatSkewedDegrees) {
  const auto g = build_csr(1024, graph::rmat(1024, 6000, 5), {.remove_self_loops = true});
  const KcoreResult r = kcore(g, {.threads = 8});
  EXPECT_EQ(r.core, kcore_seq(g));
  EXPECT_GT(r.degeneracy, 1u);
}

TEST(Kcore, DegeneracyInvariants) {
  const auto g = graph::random_graph(300, 1200, 9);
  const KcoreResult r = kcore(g);
  // Coreness never exceeds degree, degeneracy bounds every coreness.
  for (graph::vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(r.core[v], g.degree(v));
    EXPECT_LE(r.core[v], r.degeneracy);
  }
}

}  // namespace
}  // namespace crcw::algo
