#include "graph/csr.hpp"

#include <omp.h>

#include <algorithm>
#include <stdexcept>
#include <string>

namespace crcw::graph {
namespace {

/// Vertices per dynamic grab in the list pass (list lengths are skewed).
constexpr std::int64_t kListChunk = 256;

}  // namespace

Csr::Csr(std::vector<edge_t> offsets, Targets targets, int threads)
    : offsets_(std::move(offsets)), targets_(std::move(targets)), sorted_(check(threads)) {}

void Csr::validate() const { (void)check(0); }

bool Csr::check(int threads) const {
  if (offsets_.empty()) {
    if (!targets_.empty()) throw std::invalid_argument("CSR: targets without offsets");
    return true;
  }
  if (offsets_.front() != 0) throw std::invalid_argument("CSR: offsets[0] != 0");
  if (offsets_.back() != targets_.size()) {
    throw std::invalid_argument("CSR: offsets back " + std::to_string(offsets_.back()) +
                                " != edge count " + std::to_string(targets_.size()));
  }
  // Both scans are min-reductions of the first bad index, so the message
  // names the same vertex or slot at every team size.
  if (threads <= 0) threads = omp_get_max_threads();
  const auto nv = static_cast<std::int64_t>(num_vertices());
  std::int64_t bad_vertex = nv;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(min : bad_vertex)
  for (std::int64_t v = 0; v < nv; ++v) {
    if (offsets_[v + 1] < offsets_[v]) bad_vertex = std::min(bad_vertex, v);
  }
  if (bad_vertex < nv) {
    throw std::invalid_argument("CSR: offsets not monotone at vertex " +
                                std::to_string(bad_vertex));
  }

  // One pass per list, over lists whose lengths differ by orders of
  // magnitude on skewed graphs: range and order together.
  const auto n = static_cast<vertex_t>(num_vertices());
  edge_t bad_slot = targets_.size();
  bool ascending = true;
#pragma omp parallel for num_threads(threads) schedule(dynamic, kListChunk) \
    reduction(min : bad_slot) reduction(&& : ascending)
  for (std::int64_t v = 0; v < nv; ++v) {
    const auto list = neighbors(static_cast<vertex_t>(v));
    const auto out =
        std::find_if(list.begin(), list.end(), [n](vertex_t t) { return t >= n; });
    if (out != list.end()) bad_slot = std::min(bad_slot, offsets_[v] + (out - list.begin()));
    ascending = ascending && std::is_sorted(list.begin(), list.end());
  }
  if (bad_slot < targets_.size()) {
    throw std::invalid_argument("CSR: edge " + std::to_string(bad_slot) + " targets vertex " +
                                std::to_string(targets_[bad_slot]) + " >= " +
                                std::to_string(n));
  }
  return ascending;
}

vertex_t Csr::source_of(edge_t slot) const {
  if (slot >= num_edges()) {
    throw std::out_of_range("CSR: slot " + std::to_string(slot) + " >= edge count " +
                            std::to_string(num_edges()));
  }
  // The last offset <= slot; ties (zero-degree runs) resolve to the run's
  // final vertex, whose list is the one that holds the slot.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), slot);
  return static_cast<vertex_t>(it - offsets_.begin() - 1);
}

bool Csr::has_edge(vertex_t u, vertex_t v) const {
  const auto adj = neighbors(u);
  if (sorted_) return std::binary_search(adj.begin(), adj.end(), v);
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

std::uint64_t Csr::max_degree() const {
  std::uint64_t best = 0;
  for (vertex_t v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double Csr::average_degree() const {
  const std::uint64_t n = num_vertices();
  if (n == 0) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(n);
}

}  // namespace crcw::graph
