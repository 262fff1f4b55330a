// Compressed-sparse-row graphs — the substrate for the BFS and CC kernels.
//
// Matches the layout of the paper's Figure 3 (`V[]` offsets into `E[]`
// destination ids) with 64-bit offsets so edge counts past 2^32 work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace crcw::graph {

using vertex_t = std::uint32_t;
using edge_t = std::uint64_t;

/// Invalid-vertex sentinel (the paper's `-1` initialiser for Parent[]).
inline constexpr vertex_t kNoVertex = static_cast<vertex_t>(-1);

struct Edge {
  vertex_t u = 0;
  vertex_t v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

using EdgeList = std::vector<Edge>;

/// Immutable CSR adjacency structure. For undirected graphs every edge is
/// stored in both directions, so num_edges() counts directed edge slots
/// (2× the undirected edge count).
class Csr {
 public:
  Csr() = default;

  /// Takes ownership of a validated offsets/targets pair.
  /// Throws std::invalid_argument when the arrays are inconsistent.
  Csr(std::vector<edge_t> offsets, std::vector<vertex_t> targets);

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  [[nodiscard]] std::uint64_t num_edges() const noexcept { return targets_.size(); }

  [[nodiscard]] edge_t offset(vertex_t v) const { return offsets_[v]; }

  [[nodiscard]] std::uint64_t degree(vertex_t v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
    return {targets_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Raw arrays — the kernels iterate these directly, exactly like Fig 3.
  [[nodiscard]] std::span<const edge_t> offsets() const noexcept { return offsets_; }
  [[nodiscard]] std::span<const vertex_t> targets() const noexcept { return targets_; }

  /// The source of edge slot `slot`: the one u with offset(u) <= slot <
  /// offset(u + 1), found by binary search over the offsets (zero-degree
  /// vertices own no slot and are never returned). Throws
  /// std::out_of_range when slot >= num_edges().
  [[nodiscard]] vertex_t source_of(edge_t slot) const;

  /// True iff the directed edge (u → v) exists (binary search if sorted,
  /// linear otherwise). For verifying BFS parents.
  [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const;

  /// Structural invariants: monotone offsets, in-range targets.
  /// Throws std::invalid_argument with a description on failure.
  void validate() const;

  [[nodiscard]] std::uint64_t max_degree() const;
  [[nodiscard]] double average_degree() const;

  friend bool operator==(const Csr&, const Csr&) = default;

 private:
  std::vector<edge_t> offsets_;    // size n+1; offsets_[n] == m
  std::vector<vertex_t> targets_;  // size m
};

}  // namespace crcw::graph
