// Triangle counting via a concurrent edge-hash — the read-heavy table
// workload: one parallel build phase (every undirected edge packed by
// ds::pack_edge and inserted once into a ds/ set), then a lookup-only
// phase where each vertex tests its neighbor pairs for the closing edge.
// Each triangle is witnessed once per apex, so the pair-count divides by 3.
//
// The build phase races duplicate inserts only on multigraph inputs (the
// set deduplicates them); the counting phase is pure wait-free contains(),
// which is why the ext_hash bench uses this shape for its read-heavy sweep.
//
// Requires a simple undirected graph in both-directions CSR form (as built
// by graph::*): parallel neighbor duplicates would double-count pairs.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace crcw::algo {

struct TriangleOptions {
  int threads = 0;         ///< OpenMP threads; 0 = ambient setting
  bool telemetry = false;  ///< attach a ContentionSite (profile passes only)
};

/// Triangle count using ConcurrentHashSet for the edge membership test.
[[nodiscard]] std::uint64_t triangle_count_caslt(const graph::Csr& g,
                                                 const TriangleOptions& opts = {});

/// Serial std::unordered_set baseline (same pair-enumeration algorithm).
[[nodiscard]] std::uint64_t triangle_count_serial(const graph::Csr& g,
                                                  const TriangleOptions& opts = {});

}  // namespace crcw::algo
