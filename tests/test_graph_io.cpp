// Graph serialisation round trips.
#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace crcw::graph {
namespace {

TEST(EdgeListIo, RoundTripThroughStreams) {
  const EdgeList edges = {{0, 1}, {1, 2}, {3, 0}};
  std::stringstream ss;
  write_edge_list(ss, 4, edges);
  const LoadedEdgeList loaded = read_edge_list(ss);
  EXPECT_EQ(loaded.num_vertices, 4u);
  EXPECT_EQ(loaded.edges, edges);
}

TEST(EdgeListIo, HeaderlessInputInfersVertexCount) {
  std::stringstream ss("0 5\n2 3\n");
  const LoadedEdgeList loaded = read_edge_list(ss);
  EXPECT_EQ(loaded.num_vertices, 6u);
  ASSERT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.edges[0].v, 5u);
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n0 1\n# another\n1 2\n");
  const LoadedEdgeList loaded = read_edge_list(ss);
  EXPECT_EQ(loaded.edges.size(), 2u);
}

TEST(EdgeListIo, MalformedLineThrowsWithLineNumber) {
  std::stringstream ss("0 1\nbroken\n");
  try {
    (void)read_edge_list(ss);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(EdgeListIo, HeaderEdgeCountMismatchThrows) {
  std::stringstream ss("# crcw-edgelist 3 5\n0 1\n");
  EXPECT_THROW((void)read_edge_list(ss), std::runtime_error);
}

TEST(EdgeListIo, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "crcw_io_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "g.txt").string();
  const EdgeList edges = gnm(20, 50, 3);
  save_edge_list(path, 20, edges);
  const LoadedEdgeList loaded = load_edge_list(path);
  EXPECT_EQ(loaded.num_vertices, 20u);
  EXPECT_EQ(loaded.edges, edges);
  std::filesystem::remove_all(dir);
}

TEST(CsrBinaryIo, RoundTripThroughStreams) {
  const Csr g = build_csr(50, gnm(50, 200, 5));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(ss, g);
  const Csr g2 = read_csr_binary(ss);
  EXPECT_EQ(g, g2);
}

TEST(CsrBinaryIo, EmptyGraphRoundTrip) {
  const Csr g = build_csr(3, {});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(ss, g);
  const Csr g2 = read_csr_binary(ss);
  EXPECT_EQ(g2.num_vertices(), 3u);
  EXPECT_EQ(g2.num_edges(), 0u);
}

TEST(CsrBinaryIo, BadMagicThrows) {
  std::stringstream ss("NOTACSR1xxxxxxxxxxxxxxxx",
                       std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW((void)read_csr_binary(ss), std::runtime_error);
}

TEST(CsrBinaryIo, TruncatedInputThrows) {
  const Csr g = build_csr(50, gnm(50, 200, 5));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(ss, g);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW((void)read_csr_binary(cut), std::runtime_error);
}

TEST(CsrBinaryIo, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "crcw_io_bin";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "g.csr").string();
  const Csr g = random_graph(64, 256, 8);
  save_csr_binary(path, g);
  EXPECT_EQ(load_csr_binary(path), g);
  std::filesystem::remove_all(dir);
}

TEST(Io, MissingFilesThrow) {
  EXPECT_THROW((void)load_edge_list("/nonexistent/x.txt"), std::runtime_error);
  EXPECT_THROW((void)load_csr_binary("/nonexistent/x.csr"), std::runtime_error);
  EXPECT_THROW((void)load_rodinia("/nonexistent/x.graph"), std::runtime_error);
}

TEST(RodiniaIo, RoundTripThroughStreams) {
  const Csr g = random_graph(40, 120, 6);
  std::stringstream ss;
  write_rodinia(ss, g, 7);
  const RodiniaGraph loaded = read_rodinia(ss);
  EXPECT_EQ(loaded.graph, g);
  EXPECT_EQ(loaded.source, 7u);
  ASSERT_EQ(loaded.costs.size(), g.num_edges());
  for (const auto c : loaded.costs) EXPECT_EQ(c, 1u);
}

TEST(RodiniaIo, ParsesHandWrittenFixture) {
  // The exact layout Rodinia's BFS inputs use: 3 nodes, a path 0-1-2.
  std::stringstream ss(
      "3\n"
      "0 1\n"
      "1 2\n"
      "3 1\n"
      "\n0\n\n"
      "4\n"
      "1 1\n"
      "0 1\n"
      "2 1\n"
      "1 1\n");
  const RodiniaGraph loaded = read_rodinia(ss);
  EXPECT_EQ(loaded.graph.num_vertices(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 4u);
  EXPECT_EQ(loaded.source, 0u);
  EXPECT_TRUE(loaded.graph.has_edge(1, 0));
  EXPECT_TRUE(loaded.graph.has_edge(1, 2));
  EXPECT_FALSE(loaded.graph.has_edge(0, 2));
}

TEST(RodiniaIo, RejectsMalformedInputs) {
  // Non-contiguous offsets.
  std::stringstream bad1("2\n0 1\n5 1\n\n0\n\n2\n1 1\n0 1\n");
  EXPECT_THROW((void)read_rodinia(bad1), std::runtime_error);
  // Source out of range.
  std::stringstream bad2("2\n0 1\n1 1\n\n9\n\n2\n1 1\n0 1\n");
  EXPECT_THROW((void)read_rodinia(bad2), std::runtime_error);
  // Edge count mismatch.
  std::stringstream bad3("2\n0 1\n1 1\n\n0\n\n5\n1 1\n0 1\n");
  EXPECT_THROW((void)read_rodinia(bad3), std::runtime_error);
  // Destination out of range.
  std::stringstream bad4("2\n0 1\n1 1\n\n0\n\n2\n9 1\n0 1\n");
  EXPECT_THROW((void)read_rodinia(bad4), std::runtime_error);
  // Truncated.
  std::stringstream bad5("2\n0 1\n");
  EXPECT_THROW((void)read_rodinia(bad5), std::runtime_error);
}

TEST(RodiniaIo, FileRoundTripAndBfsPipeline) {
  const auto dir = std::filesystem::temp_directory_path() / "crcw_rodinia";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "g.graph").string();
  const Csr g = random_graph(64, 200, 14);
  save_rodinia(path, g, 3);
  const RodiniaGraph loaded = load_rodinia(path);
  EXPECT_EQ(loaded.graph, g);
  EXPECT_EQ(loaded.source, 3u);
  std::filesystem::remove_all(dir);
}

// ---- hostile sizes: refused as std::runtime_error, never allocated ------

/// Runs `read` and expects a std::runtime_error whose message contains
/// `needle`. Any other exception (std::bad_alloc, std::length_error)
/// escapes and fails the test.
template <typename Read>
void expect_refusal(Read read, const std::string& needle) {
  try {
    (void)read();
    ADD_FAILURE() << "expected std::runtime_error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

/// A binary CSR header declaring n vertices and m slots, with no arrays.
std::string binary_header(std::uint64_t n, std::uint64_t m) {
  std::string s = "CRCWCSR1";
  s.append(reinterpret_cast<const char*>(&n), sizeof n);
  s.append(reinterpret_cast<const char*>(&m), sizeof m);
  return s;
}

Csr read_binary(const std::string& bytes) {
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  return read_csr_binary(ss);
}

TEST(CsrBinaryIo, RefusesVertexCountWhoseOffsetsWrap) {
  // n + 1 wraps to 0: read as an empty graph before.
  expect_refusal([] { return read_binary(binary_header(~std::uint64_t{0}, 0)); },
                 "vertex count 18446744073709551615 exceeds vertex_t");
}

TEST(CsrBinaryIo, RefusesVertexCountBeyondVertexT) {
  // std::bad_alloc before.
  expect_refusal([] { return read_binary(binary_header(std::uint64_t{1} << 40, 0)); },
                 "vertex count 1099511627776 exceeds vertex_t");
}

TEST(CsrBinaryIo, RefusesVertexCountBeyondAllocationSize) {
  // std::length_error before.
  expect_refusal([] { return read_binary(binary_header(std::uint64_t{1} << 62, 0)); },
                 "vertex count 4611686018427387904 exceeds vertex_t");
}

TEST(CsrBinaryIo, CountsThatLieFailAsTruncatedInput) {
  // Counts that fit but have no data behind them allocate nothing up front.
  expect_refusal([] { return read_binary(binary_header(kNoVertex, 0)); },
                 "binary CSR: truncated offsets");
  std::string offsets_then_nothing = binary_header(2, std::uint64_t{1} << 60);
  for (const edge_t off : {edge_t{0}, edge_t{1}, edge_t{1} << 60}) {
    offsets_then_nothing.append(reinterpret_cast<const char*>(&off), sizeof off);
  }
  expect_refusal([&] { return read_binary(offsets_then_nothing); },
                 "binary CSR: truncated targets");
}

TEST(CsrBinaryIo, InconsistentArraysAreARuntimeError) {
  std::string bytes = binary_header(2, 1);
  for (const edge_t off : {edge_t{0}, edge_t{2}, edge_t{1}}) {
    bytes.append(reinterpret_cast<const char*>(&off), sizeof off);
  }
  const vertex_t target = 0;
  bytes.append(reinterpret_cast<const char*>(&target), sizeof target);
  expect_refusal([&] { return read_binary(bytes); }, "binary CSR: CSR: offsets not monotone");
}

TEST(EdgeListIo, RefusesVertexIdBeyondVertexT) {
  // Loaded as edge (0, 1) with 4294967297 vertices before.
  expect_refusal(
      [] {
        std::stringstream ss("0 1\n4294967296 1\n");
        return read_edge_list(ss);
      },
      "edge list line 2: vertex id 4294967296 exceeds vertex_t");
  expect_refusal(
      [] {
        std::stringstream ss("# crcw-edgelist 4294967296 1\n0 1\n");
        return read_edge_list(ss);
      },
      "edge list line 1: vertex count 4294967296 exceeds vertex_t");
}

TEST(EdgeListIo, HeaderEdgeCountThatLiesFailsAsTruncatedInput) {
  // std::bad_alloc from reserving the declared count before.
  expect_refusal(
      [] {
        std::stringstream ss("# crcw-edgelist 4 1000000000000000\n0 1\n");
        return read_edge_list(ss);
      },
      "header declared 1000000000000000 edges, found 1");
}

TEST(RodiniaIo, RefusesNodeCountBeyondVertexT) {
  // std::bad_alloc before.
  expect_refusal(
      [] {
        std::stringstream ss("1099511627776\n0 1\n");
        return read_rodinia(ss);
      },
      "rodinia graph line 1: node count 1099511627776 exceeds vertex_t");
}

TEST(RodiniaIo, CountsThatLieFailAsTruncatedInput) {
  expect_refusal(
      [] {
        std::stringstream ss("4294967295\n0 1\n");
        return read_rodinia(ss);
      },
      "rodinia graph line 3: truncated node records");
  expect_refusal(
      [] {
        std::stringstream ss("1\n0 1099511627776\n\n0\n\n1099511627776\n0 1\n");
        return read_rodinia(ss);
      },
      "rodinia graph line 8: truncated edge records");
  expect_refusal(
      [] {
        std::stringstream ss("2\n0 18446744073709551615\n18446744073709551615 2\n");
        return read_rodinia(ss);
      },
      "rodinia graph line 3: node degree overflows the edge count");
}

}  // namespace
}  // namespace crcw::graph
