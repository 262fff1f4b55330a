// Compressed-sparse-row graphs — the substrate for the BFS and CC kernels.
//
// Matches the layout of the paper's Figure 3 (`V[]` offsets into `E[]`
// destination ids) with 64-bit offsets so edge counts past 2^32 work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/default_init_allocator.hpp"

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
  /// The target array. Its allocator default-initialises, so sizing one
  /// writes nothing: the code that fills it (the builder's parallel
  /// scatter, a reader) is the first to touch its pages. Every slot must be
  /// written before it is read.
  using Targets = std::vector<vertex_t, util::DefaultInitAllocator<vertex_t>>;

  Csr() = default;

  /// Takes ownership of an offsets/targets pair and validates it on
  /// `threads` OpenMP threads (0 = ambient setting).
  /// Throws std::invalid_argument when the arrays are inconsistent.
  Csr(std::vector<edge_t> offsets, Targets targets, int threads = 0);

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

  /// True iff every adjacency list ascends (ties allowed), as
  /// build_csr's lists do unless sort_neighbors and dedup are both off.
  /// Recorded by the constructor's validation pass.
  [[nodiscard]] bool sorted() const noexcept { return sorted_; }

  /// True iff the directed edge (u → v) exists: a binary search of u's
  /// list when sorted(), a linear scan otherwise. For verifying BFS
  /// parents.
  [[nodiscard]] bool has_edge(vertex_t u, vertex_t v) const;

  /// Structural invariants: monotone offsets, in-range targets, checked
  /// by two parallel scans on the ambient OpenMP team. Throws
  /// std::invalid_argument on failure, naming the first non-monotone
  /// vertex or the first out-of-range slot at every team size.
  void validate() const;

  [[nodiscard]] std::uint64_t max_degree() const;
  [[nodiscard]] double average_degree() const;

  friend bool operator==(const Csr&, const Csr&) = default;

 private:
  /// validate() on `threads` threads (0 = ambient), returning whether
  /// every list ascends.
  [[nodiscard]] bool check(int threads) const;

  std::vector<edge_t> offsets_;  // size n+1; offsets_[n] == m
  Targets targets_;              // size m
  bool sorted_ = true;
};

}  // namespace crcw::graph
