// Extensions beyond the paper's evaluation: the doubly-logarithmic Maximum,
// the CREW OR counterpart, and the model-level Awerbuch–Shiloach CC.
#include <gtest/gtest.h>

#include <vector>

#include "algorithms/cc.hpp"
#include "algorithms/max.hpp"
#include "algorithms/or_any.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "sim/programs.hpp"
#include "util/rng.hpp"

namespace crcw {
namespace {

// ---------------------------------------------------------------------------
// Doubly-logarithmic Maximum

class DoublyLogMaxTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DoublyLogMaxTest, MatchesSequentialReference) {
  const std::uint64_t n = GetParam();
  util::Xoshiro256 rng(n * 7 + 1);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint32_t> xs(n);
    for (auto& x : xs) x = static_cast<std::uint32_t>(rng.bounded(1u << 24));
    ASSERT_EQ(algo::max_index_doubly_log(xs), algo::max_index_seq(xs))
        << "n=" << n << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DoublyLogMaxTest,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                           std::uint64_t{3}, std::uint64_t{5},
                                           std::uint64_t{16}, std::uint64_t{17},
                                           std::uint64_t{255}, std::uint64_t{256},
                                           std::uint64_t{1000}, std::uint64_t{65536}),
                         [](const auto& pinfo) {
                           std::string name = "n";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(DoublyLogMax, TieBreakIsLastOccurrence) {
  const std::vector<std::uint32_t> xs = {9, 1, 9, 9, 2};
  EXPECT_EQ(algo::max_index_doubly_log(xs), 3u);
  const std::vector<std::uint32_t> all_equal(100, 5);
  EXPECT_EQ(algo::max_index_doubly_log(all_equal), 99u);
}

TEST(DoublyLogMax, ThreadSweepStaysCorrect) {
  util::Xoshiro256 rng(3);
  std::vector<std::uint32_t> xs(5000);
  for (auto& x : xs) x = static_cast<std::uint32_t>(rng.bounded(1u << 28));
  const auto expected = algo::max_index_seq(xs);
  for (const int t : {1, 2, 8}) {
    EXPECT_EQ(algo::max_index_doubly_log(xs, {.threads = t}), expected) << t;
  }
}

TEST(DoublyLogMax, EmptyThrows) {
  EXPECT_THROW((void)algo::max_index_doubly_log({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CREW OR

TEST(CrewOr, MatchesCrcwOrOnAllShapes) {
  for (const std::uint64_t n : {0ull, 1ull, 2ull, 3ull, 63ull, 64ull, 1000ull}) {
    std::vector<std::uint8_t> bits(n, 0);
    EXPECT_FALSE(algo::parallel_or_crew(bits)) << n;
    if (n == 0) continue;
    bits[n - 1] = 1;
    EXPECT_TRUE(algo::parallel_or_crew(bits)) << n;
    EXPECT_EQ(algo::parallel_or_crew(bits), algo::parallel_or_caslt(bits)) << n;
  }
}

TEST(CrewOr, RandomAgreementSweep) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t n = 1 + rng.bounded(512);
    std::vector<std::uint8_t> bits(n, 0);
    // Mostly-zero vectors so both outcomes occur.
    if (rng.bounded(3) != 0) bits[rng.bounded(n)] = 1;
    const bool expected = algo::parallel_or_naive(bits);
    EXPECT_EQ(algo::parallel_or_crew(bits), expected) << trial;
  }
}

// ---------------------------------------------------------------------------
// Model-level Awerbuch–Shiloach CC

TEST(SimCc, MatchesUnionFindOnPlantedComponents) {
  const auto g = graph::build_csr(60, graph::planted_components(3, 20, 4, 9));
  sim::Simulator sim(sim::AccessMode::kArbitrary, 1);
  const auto labels64 = sim::programs::connected_components(sim, g.offsets(), g.targets());
  std::vector<graph::vertex_t> labels(labels64.begin(), labels64.end());
  EXPECT_TRUE(graph::validate_components(g, labels));
}

TEST(SimCc, AdversarialSeedsAllYieldTheTruePartition) {
  // The arbitrary rule picks hook winners adversarially per seed; the
  // resulting partition must be seed-independent.
  const auto g = graph::random_graph(50, 80, 21);
  const auto expected = graph::connected_components(g);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    sim::Simulator sim(sim::AccessMode::kArbitrary, 1, seed);
    const auto labels64 =
        sim::programs::connected_components(sim, g.offsets(), g.targets());
    std::vector<graph::vertex_t> labels(labels64.begin(), labels64.end());
    ASSERT_EQ(graph::canonicalize_labels(labels), expected) << "seed " << seed;
  }
}

TEST(SimCc, AgreesWithOpenMpKernel) {
  const auto g = graph::random_graph(40, 70, 2);
  sim::Simulator sim(sim::AccessMode::kArbitrary, 1);
  const auto model64 = sim::programs::connected_components(sim, g.offsets(), g.targets());
  std::vector<graph::vertex_t> model_labels(model64.begin(), model64.end());

  const auto impl = crcw::algo::cc_caslt(g);
  EXPECT_EQ(graph::canonicalize_labels(model_labels),
            graph::canonicalize_labels(impl.label));
}

TEST(SimCc, LogarithmicDepthOnAPath) {
  const auto g = graph::build_csr(256, graph::path(256));
  sim::Simulator sim(sim::AccessMode::kArbitrary, 1);
  (void)sim::programs::connected_components(sim, g.offsets(), g.targets());
  // ~11 steps per A-S iteration, O(log n) iterations.
  EXPECT_LE(sim.counters().depth, 400u);
}

TEST(SimCc, IsolatedVertices) {
  const auto g = graph::build_csr(10, {});
  sim::Simulator sim(sim::AccessMode::kArbitrary, 1);
  const auto labels = sim::programs::connected_components(sim, g.offsets(), g.targets());
  for (std::uint64_t v = 0; v < 10; ++v) EXPECT_EQ(labels[v], v);
}

}  // namespace
}  // namespace crcw
