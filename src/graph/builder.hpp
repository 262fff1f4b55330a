// Edge-list → CSR construction.
#pragma once

#include "graph/csr.hpp"

namespace crcw::graph {

struct BuildOptions {
  /// Store each undirected edge in both directions (the paper's graphs are
  /// undirected).
  bool symmetrize = true;
  /// Sort each adjacency list ascending (enables binary-search has_edge).
  bool sort_neighbors = true;
  /// Drop duplicate (u, v) slots after sorting.
  bool dedup = false;
  /// Drop self-loops.
  bool remove_self_loops = false;
  /// OpenMP threads for the build; 0 = ambient setting.
  int threads = 0;
};

/// Builds a CSR over vertices [0, n) from an edge list.
/// Throws std::invalid_argument if an endpoint is >= n, naming the first
/// such edge in edge-list order.
///
/// The build is parallel and its output does not depend on `threads`: it
/// is the CSR of a stable counting sort of the slots by source. An
/// unsorted list (sort_neighbors and dedup off) holds its slots in
/// edge-list order; a symmetrised edge (u, v) gives u's list v and v's list
/// u, and a self-loop is stored once. The edge list is cut into contiguous
/// blocks (at most one per thread, with blocks·n <= the slot count), each
/// block counts its slots per source, and a scan of the counts gives each
/// block its cursors, so every slot is written straight from the edge list
/// with no intermediate slot copy; the extra memory is those block counts.
/// Lists are then sorted (and deduplicated) under a dynamic schedule.
/// Safe to call from inside an OpenMP parallel region.
[[nodiscard]] Csr build_csr(std::uint64_t n, const EdgeList& edges,
                            const BuildOptions& opts = {});

/// Recovers a directed edge list (one entry per CSR slot).
[[nodiscard]] EdgeList to_edge_list(const Csr& g);

}  // namespace crcw::graph
