#include "algorithms/triangle_count.hpp"

#include <omp.h>

#include <cstddef>
#include <unordered_set>

#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"

namespace crcw::algo {
namespace {

using graph::vertex_t;

[[nodiscard]] ds::HashConfig table_config(const TriangleOptions& opts) {
  ds::HashConfig cfg;
  cfg.telemetry = opts.telemetry;
  cfg.site_name = "triangle-edges";
  return cfg;
}

}  // namespace

std::uint64_t triangle_count_caslt(const graph::Csr& g, const TriangleOptions& opts) {
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  // num_edges() counts directed slots, an upper bound on undirected edges.
  ds::ConcurrentHashSet<> edges(g.num_edges(), table_config(opts));

  // Build: each undirected edge inserted once, by its smaller endpoint.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const auto u = static_cast<vertex_t>(v);
    for (const vertex_t w : g.neighbors(u)) {
      if (u < w) (void)edges.insert(ds::pack_edge(u, w));
    }
  }
  // The region's barrier publishes the edge set; counting below is
  // lookup-only.

  std::uint64_t total = 0;
#pragma omp parallel for num_threads(threads) schedule(dynamic, 64) reduction(+ : total)
  for (std::int64_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(static_cast<vertex_t>(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const vertex_t a = nbrs[i];
        const vertex_t b = nbrs[j];
        if (a != b && edges.contains(ds::pack_edge(a, b))) ++total;
      }
    }
  }
  edges.flush_round();
  return total / 3;  // one witness per apex
}

std::uint64_t triangle_count_serial(const graph::Csr& g, const TriangleOptions&) {
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(g.num_edges());
  const auto n = static_cast<std::int64_t>(g.num_vertices());
  for (std::int64_t v = 0; v < n; ++v) {
    const auto u = static_cast<vertex_t>(v);
    for (const vertex_t w : g.neighbors(u)) {
      if (u < w) edges.insert(ds::pack_edge(u, w));
    }
  }
  std::uint64_t total = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(static_cast<vertex_t>(v));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (nbrs[i] != nbrs[j] && edges.contains(ds::pack_edge(nbrs[i], nbrs[j]))) ++total;
      }
    }
  }
  return total / 3;
}

}  // namespace crcw::algo
