// CSR structure and invariants.
#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
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
