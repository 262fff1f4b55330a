// Edge-list → CSR builder options, and the parallel build against a serial
// restatement of the algorithm it replaced.
#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"

namespace crcw::graph {
namespace {

TEST(Builder, SymmetrizeDoublesEdges) {
  const EdgeList edges = {{0, 1}, {1, 2}};
  const Csr g = build_csr(3, edges);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(Builder, DirectedKeepsSingleDirection) {
  const EdgeList edges = {{0, 1}};
  const Csr g = build_csr(2, edges, {.symmetrize = false});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Builder, SortsNeighbors) {
  const EdgeList edges = {{0, 3}, {0, 1}, {0, 2}};
  const Csr g = build_csr(4, edges, {.symmetrize = false, .sort_neighbors = true});
  const auto n = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(Builder, DedupRemovesParallelEdges) {
  const EdgeList edges = {{0, 1}, {0, 1}, {0, 1}, {1, 2}};
  const Csr g = build_csr(3, edges, {.symmetrize = true, .dedup = true});
  EXPECT_EQ(g.num_edges(), 4u);  // 0-1 and 1-2, both directions, once each
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Builder, SelfLoopHandling) {
  const EdgeList edges = {{0, 0}, {0, 1}};
  const Csr keep = build_csr(2, edges);
  // A self-loop is stored once even when symmetrising.
  EXPECT_EQ(keep.num_edges(), 3u);
  EXPECT_TRUE(keep.has_edge(0, 0));

  const Csr drop = build_csr(2, edges, {.remove_self_loops = true});
  EXPECT_EQ(drop.num_edges(), 2u);
  EXPECT_FALSE(drop.has_edge(0, 0));
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  const EdgeList edges = {{0, 5}};
  EXPECT_THROW(build_csr(3, edges), std::invalid_argument);
}

TEST(Builder, EmptyEdgeList) {
  const Csr g = build_csr(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Builder, ToEdgeListRoundTrip) {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3}};
  const Csr g = build_csr(4, edges, {.symmetrize = false, .sort_neighbors = true});
  const EdgeList out = to_edge_list(g);
  ASSERT_EQ(out.size(), 3u);
  const Csr g2 = build_csr(4, out, {.symmetrize = false, .sort_neighbors = true});
  EXPECT_EQ(g, g2);
}

TEST(Builder, PreservesMultigraphWhenNotDeduping) {
  const EdgeList edges = {{0, 1}, {0, 1}};
  const Csr g = build_csr(2, edges, {.symmetrize = false});
  EXPECT_EQ(g.degree(0), 2u);
}

// ---- the per-list sort is std::sort -------------------------------------

/// Sorts a copy of `list` with detail::sort_list through `scratch` and
/// expects std::sort's result.
void expect_sorts_like_std(std::vector<vertex_t> list, int bits,
                           std::vector<vertex_t>& scratch) {
  std::vector<vertex_t> want = list;
  std::sort(want.begin(), want.end());
  detail::sort_list(list, bits, scratch);
  EXPECT_EQ(list, want);
}

std::vector<vertex_t> random_list(std::size_t len, int bits, std::mt19937_64& rng) {
  const std::uint64_t bound = std::uint64_t{1} << bits;
  std::vector<vertex_t> list(len);
  for (vertex_t& v : list) v = static_cast<vertex_t>(rng() % bound);
  return list;
}

TEST(SortList, MatchesStdSortAtEveryBitWidthAndAroundTheCutOver) {
  static_assert(detail::kRadixMinList == 32);
  std::mt19937_64 rng(17);
  std::vector<vertex_t> scratch;
  for (int bits = 1; bits <= 32; ++bits) {
    for (const std::size_t len : std::vector<std::size_t>{31, 32, 33, 4099}) {
      SCOPED_TRACE("bits " + std::to_string(bits) + ", length " + std::to_string(len));
      expect_sorts_like_std(random_list(len, bits, rng), bits, scratch);
    }
  }
  // The scratch grew to the longest radix-sorted list and no further.
  EXPECT_EQ(scratch.size(), 4099u);
}

TEST(SortList, AllEqualListSkipsEveryDigit) {
  std::vector<vertex_t> scratch;
  for (const vertex_t v : {0u, 7u, 0x00ABCDEFu, 0xFFFFFFFEu}) {
    SCOPED_TRACE("value " + std::to_string(v));
    expect_sorts_like_std(std::vector<vertex_t>(1000, v), 32, scratch);
  }
}

TEST(SortList, ListsThatDifferOnlyInTheTopDigit) {
  std::mt19937_64 rng(23);
  std::vector<vertex_t> scratch;
  // 32 bits: the top digit is bits 24-31. 20 bits: it is bits 16-19.
  for (const auto& [bits, low] : {std::pair{32, 0x00ABCDEFu}, std::pair{20, 0x0000BEEFu}}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const int top_shift = (bits - 1) / 8 * 8;
    const std::uint64_t top_values = std::uint64_t{1} << (bits - top_shift);
    std::vector<vertex_t> list(3000);
    for (vertex_t& v : list) {
      v = static_cast<vertex_t>((rng() % top_values) << top_shift) | low;
    }
    expect_sorts_like_std(list, bits, scratch);
  }
}

TEST(SortList, DuplicateHeavyLists) {
  std::mt19937_64 rng(29);
  std::vector<vertex_t> scratch;
  const std::vector<vertex_t> values = {3, 3, 70000, 1u << 20, 0xFFFFFFFEu, 12};
  for (const std::size_t len : {std::size_t{33}, std::size_t{5000}}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<vertex_t> list(len);
    for (vertex_t& v : list) v = values[rng() % values.size()];
    expect_sorts_like_std(list, 32, scratch);
  }
}

// ---- the parallel build is the serial build, byte for byte -------------

/// The serial builder the parallel one replaced: copy every directed slot
/// out of the edge list, counting-sort the copies stably by source, then
/// sort and unique each list.
Csr serial_build(std::uint64_t n, const EdgeList& edges, const BuildOptions& opts) {
  EdgeList slots;
  for (const auto& e : edges) {
    if (opts.remove_self_loops && e.u == e.v) continue;
    slots.push_back(e);
    if (opts.symmetrize && e.u != e.v) slots.push_back({e.v, e.u});
  }
  std::vector<edge_t> offsets(n + 1, 0);
  for (const auto& e : slots) ++offsets[e.u + 1];
  for (std::uint64_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  Csr::Targets targets(slots.size());
  std::vector<edge_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& e : slots) targets[cursor[e.u]++] = e.v;
  if (!opts.sort_neighbors && !opts.dedup) return Csr(std::move(offsets), std::move(targets));

  std::vector<edge_t> out_offsets(n + 1, 0);
  Csr::Targets out_targets;
  for (std::uint64_t v = 0; v < n; ++v) {
    std::vector<vertex_t> list(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                               targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    std::sort(list.begin(), list.end());
    if (opts.dedup) list.erase(std::unique(list.begin(), list.end()), list.end());
    out_targets.insert(out_targets.end(), list.begin(), list.end());
    out_offsets[v + 1] = out_targets.size();
  }
  return Csr(std::move(out_offsets), std::move(out_targets));
}

/// Equal arrays; on a mismatch, names the first differing index only (the
/// graphs are too large to print).
void expect_same(const Csr& got, const Csr& want) {
  const auto first_diff = [](auto a, auto b) -> std::string {
    if (a.size() != b.size()) {
      return "size " + std::to_string(a.size()) + " != " + std::to_string(b.size());
    }
    const auto [x, y] = std::mismatch(a.begin(), a.end(), b.begin());
    if (x == a.end()) return "";
    return "index " + std::to_string(x - a.begin()) + ": " + std::to_string(*x) +
           " != " + std::to_string(*y);
  };
  EXPECT_EQ(first_diff(got.offsets(), want.offsets()), "") << "offsets";
  EXPECT_EQ(first_diff(got.targets(), want.targets()), "") << "targets";
}

struct BuildCase {
  const char* name;
  std::uint64_t n;
  EdgeList edges;
};

const std::vector<BuildCase>& build_cases() {
  static const std::vector<BuildCase> cases = [] {
    constexpr std::uint64_t kRmatVertices = 1 << 16;
    // R-MAT (duplicates and skewed lists) with 1,000 self-loops spread
    // through the list, so every block holds some.
    const EdgeList rmat_edges = rmat(kRmatVertices, 1 << 20, 11);
    const std::uint64_t gap = rmat_edges.size() / 1000;
    EdgeList with_loops;
    for (std::uint64_t i = 0; i < rmat_edges.size(); ++i) {
      with_loops.push_back(rmat_edges[i]);
      if (i % gap == 0 && i / gap < 1000) {
        const auto v = static_cast<vertex_t>((i * 2654435761u) % kRmatVertices);
        with_loops.push_back({v, v});
      }
    }
    // The hub's list takes a slot from every edge, so from every block. A
    // star has fewer slots than 2n, so it builds in one block; three
    // copies of it build in up to five.
    const EdgeList star_edges = star(1 << 16);
    EdgeList stars;
    for (int copy = 0; copy < 3; ++copy) {
      stars.insert(stars.end(), star_edges.begin(), star_edges.end());
    }
    // n is not a power of two and needs three radix digits (17 bits):
    // G(n, m) lists, 200 lists of 40+ slots, and a hub whose 5,000 slots
    // reach the top digit and repeat (duplicates for dedup).
    constexpr std::uint64_t kOddVertices = 100'003;
    EdgeList odd = gnm(kOddVertices, 300'000, 13);
    for (std::uint64_t v = 0; v < 200; ++v) {
      for (std::uint64_t k = 0; k < 40; ++k) {
        const auto w = static_cast<vertex_t>((v * 131 + k * 977 + 1) % kOddVertices);
        odd.push_back({static_cast<vertex_t>(v), w});
      }
    }
    const auto hub = static_cast<vertex_t>(kOddVertices - 1);
    for (std::uint64_t k = 0; k < 5000; ++k) {
      odd.push_back({hub, static_cast<vertex_t>((k * 7919) % 2500 * 40)});
    }
    return std::vector<BuildCase>{
        {"rmat_with_self_loops", kRmatVertices, std::move(with_loops)},
        {"three_digit_ids_and_a_hub", kOddVertices, std::move(odd)},
        {"star", 1 << 16, star_edges},
        {"star_three_times", 1 << 16, std::move(stars)},
        // Up to three blocks of two edges.
        {"self_loops_and_duplicates", 4, {{0, 0}, {0, 1}, {1, 1}, {2, 1}, {0, 1}, {3, 3}}},
        {"empty_list", 5, {}},
        {"no_vertices", 0, {}},
        // One edge per block from 3 threads up.
        {"fewer_edges_than_threads", 2, {{1, 0}, {0, 1}, {1, 1}}},
    };
  }();
  return cases;
}

BuildOptions options_from_mask(int mask) {
  return {.symmetrize = (mask & 1) != 0,
          .sort_neighbors = (mask & 2) != 0,
          .dedup = (mask & 4) != 0,
          .remove_self_loops = (mask & 8) != 0};
}

class BuilderMatchesSerial : public ::testing::TestWithParam<int> {};

TEST_P(BuilderMatchesSerial, AtEveryThreadCount) {
  BuildOptions opts = options_from_mask(GetParam());
  for (const BuildCase& c : build_cases()) {
    const Csr want = serial_build(c.n, c.edges, opts);
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(std::string(c.name) + ", threads " + std::to_string(threads));
      opts.threads = threads;
      expect_same(build_csr(c.n, c.edges, opts), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptions, BuilderMatchesSerial, ::testing::Range(0, 16),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           const BuildOptions o = options_from_mask(pinfo.param);
                           return std::string("sym") + (o.symmetrize ? "1" : "0") +
                                  "_sort" + (o.sort_neighbors ? "1" : "0") + "_dedup" +
                                  (o.dedup ? "1" : "0") + "_noloops" +
                                  (o.remove_self_loops ? "1" : "0");
                         });

TEST(BuilderParallel, CallFromInsideParallelRegionMatches) {
  const BuildCase& c = build_cases().front();
  const Csr want = serial_build(c.n, c.edges, {});
  for (const int threads : {0, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Csr got;
#pragma omp parallel num_threads(4)
#pragma omp single
    got = build_csr(c.n, c.edges, {.threads = threads});
    expect_same(got, want);
  }
}

TEST(BuilderParallel, NamesFirstOutOfRangeEdgeInEdgeListOrder) {
  // 1,000 edges over 100 vertices: the two bad edges fall in different
  // blocks at every thread count above 1.
  EdgeList edges = gnm(100, 1000, 3);
  edges[300] = {7, 100};
  edges[800] = {150, 2};
  for (const int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    try {
      (void)build_csr(100, edges, {.threads = threads});
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "edge (7,100) out of range for n=100");
    }
  }
}

}  // namespace
}  // namespace crcw::graph
