// Edge-list → CSR construction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

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
/// with no intermediate slot copy, into a target array that nothing wrote
/// before (Csr::Targets), so the scatter's threads fault its pages in.
/// Lists are then sorted under a dynamic schedule (detail::sort_list: a
/// radix sort from kRadixMinList slots up, through one scratch buffer per
/// thread no longer than the longest list it sorts) and, with dedup,
/// uniqued and compacted. The extra memory is the block counts and those
/// buffers. The Csr constructor's validation runs in parallel too.
/// Safe to call from inside an OpenMP parallel region.
[[nodiscard]] Csr build_csr(std::uint64_t n, const EdgeList& edges,
                            const BuildOptions& opts = {});

/// Recovers a directed edge list (one entry per CSR slot).
[[nodiscard]] EdgeList to_edge_list(const Csr& g);

namespace detail {

/// Shortest list that build_csr radix-sorts; shorter ones take std::sort.
inline constexpr std::size_t kRadixMinList = 32;

/// Sorts one adjacency list ascending, every id in it below 2^bits (bits
/// <= 32); the result is std::sort's. A list of kRadixMinList slots or more
/// takes a least-significant-digit radix sort in 8-bit digits: one read
/// fills every digit's histogram, a digit that every slot shares is
/// skipped, and the passes ping-pong through `scratch`, which grows to the
/// list's length if it is shorter (the only allocation, and so the only
/// throw).
void sort_list(std::span<vertex_t> list, int bits, std::vector<vertex_t>& scratch);

}  // namespace detail

}  // namespace crcw::graph
