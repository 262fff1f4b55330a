// CSR structure and invariants.
#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace crcw::graph {
namespace {

Csr triangle() {
  // 0-1, 0-2, 1-2 symmetrised, sorted.
  return Csr({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1});
}

TEST(Csr, EmptyGraph) {
  Csr g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Csr, BasicAccessors) {
  const Csr g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.offset(1), 2u);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, IsolatedVerticesHaveZeroDegree) {
  const Csr g({0, 0, 0, 1, 1}, {0});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_TRUE(g.neighbors(1).empty());
}

TEST(Csr, HasEdge) {
  const Csr g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Csr, HasEdgeOnAnUnsortedList) {
  // A binary search of 0's descending list would miss 0 and 1.
  const Csr g({0, 5, 5, 5, 5, 5}, {4, 3, 2, 1, 0});
  EXPECT_FALSE(g.sorted());
  for (vertex_t v = 0; v < 5; ++v) EXPECT_TRUE(g.has_edge(0, v)) << v;
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Csr, SortedRecordsWhetherEveryListAscends) {
  EXPECT_TRUE(triangle().sorted());
  EXPECT_TRUE(Csr().sorted());
  EXPECT_TRUE(Csr({0, 2, 2, 3}, {1, 1, 0}).sorted());   // ties ascend
  EXPECT_FALSE(Csr({0, 1, 3, 3}, {2, 2, 1}).sorted());  // vertex 1 descends
  // Lists meet in descending order; each one ascends.
  EXPECT_TRUE(Csr({0, 2, 4}, {0, 1, 0, 1}).sorted());
}

/// The message of the std::invalid_argument that constructing a Csr from
/// these arrays on `threads` OpenMP threads throws ("" if none).
std::string validation_error(const std::vector<edge_t>& offsets,
                             const Csr::Targets& targets, int threads) {
  try {
    (void)Csr(offsets, targets, threads);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Csr, ValidationNamesTheFirstBadIndexAtEveryTeamSize) {
  // 2^16 vertices of 4 slots each; the two bad entries of each kind are
  // far apart, so at 2 and 4 threads different threads find them.
  constexpr vertex_t kVertices = 1 << 16;
  std::vector<edge_t> offsets(kVertices + 1);
  for (vertex_t v = 0; v <= kVertices; ++v) offsets[v] = 4 * edge_t{v};
  Csr::Targets targets(4 * edge_t{kVertices});
  for (edge_t e = 0; e < targets.size(); ++e) targets[e] = static_cast<vertex_t>(e / 4);

  Csr::Targets bad_targets = targets;
  bad_targets[1000] = kVertices + 5;
  bad_targets[200'000] = kVertices;
  std::vector<edge_t> bad_offsets = offsets;
  bad_offsets[5001] = bad_offsets[5000] - 1;
  bad_offsets[60'001] = bad_offsets[60'000] - 1;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(validation_error(offsets, bad_targets, threads),
              "CSR: edge 1000 targets vertex 65541 >= 65536");
    EXPECT_EQ(validation_error(bad_offsets, targets, threads),
              "CSR: offsets not monotone at vertex 5000");
    EXPECT_EQ(validation_error(offsets, targets, threads), "");
  }
}

TEST(Csr, ValidateRejectsBadOffsets) {
  EXPECT_THROW(Csr({1, 2}, {0}), std::invalid_argument);            // offsets[0] != 0
  EXPECT_THROW(Csr({0, 2, 1}, {0, 0}), std::invalid_argument);      // non-monotone
  EXPECT_THROW(Csr({0, 1}, {0, 0}), std::invalid_argument);         // back mismatch
  EXPECT_THROW(Csr({}, {0}), std::invalid_argument);                // targets w/o offsets
}

TEST(Csr, ValidateRejectsOutOfRangeTargets) {
  EXPECT_THROW(Csr({0, 1}, {5}), std::invalid_argument);
}

TEST(Csr, DegreeStatistics) {
  const Csr g({0, 3, 4, 4, 6}, {1, 2, 3, 0, 0, 0});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
}

TEST(Csr, SourceOfFirstAndLastSlot) {
  const Csr g = triangle();
  EXPECT_EQ(g.source_of(0), 0u);
  EXPECT_EQ(g.source_of(1), 0u);
  EXPECT_EQ(g.source_of(2), 1u);
  EXPECT_EQ(g.source_of(5), 2u);
}

TEST(Csr, SourceOfSkipsZeroDegreeRuns) {
  // Vertices 0-1 and 3-5 own no slot; 2 owns slots 0-1, 6 owns slot 2,
  // and the trailing run 7-8 sits at offset m.
  const Csr g({0, 0, 0, 2, 2, 2, 2, 3, 3, 3}, {6, 6, 2});
  EXPECT_EQ(g.source_of(0), 2u);  // after the leading run
  EXPECT_EQ(g.source_of(1), 2u);
  EXPECT_EQ(g.source_of(2), 6u);  // just after the run 3-5
  for (edge_t j = 0; j < g.num_edges(); ++j) {
    const vertex_t u = g.source_of(j);
    EXPECT_LE(g.offset(u), j);
    EXPECT_LT(j, g.offset(u) + g.degree(u));
  }
}

TEST(Csr, SourceOfThrowsPastTheLastSlot) {
  const Csr g = triangle();
  EXPECT_THROW((void)g.source_of(6), std::out_of_range);
  EXPECT_THROW((void)g.source_of(~edge_t{0}), std::out_of_range);
  EXPECT_THROW((void)Csr().source_of(0), std::out_of_range);
  EXPECT_THROW((void)Csr({0, 0, 0}, {}).source_of(0), std::out_of_range);
}

TEST(Csr, Equality) {
  EXPECT_EQ(triangle(), triangle());
  const Csr other({0, 1, 1, 1}, {1});
  EXPECT_NE(triangle(), other);
}

}  // namespace
}  // namespace crcw::graph
