#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace crcw::graph {

Csr::Csr(std::vector<edge_t> offsets, std::vector<vertex_t> targets)
    : offsets_(std::move(offsets)), targets_(std::move(targets)) {
  if (offsets_.empty()) {
    if (!targets_.empty()) throw std::invalid_argument("CSR: targets without offsets");
    return;
  }
  validate();
}

void Csr::validate() const {
  if (offsets_.empty()) {
    if (!targets_.empty()) throw std::invalid_argument("CSR: targets without offsets");
    return;
  }
  if (offsets_.front() != 0) throw std::invalid_argument("CSR: offsets[0] != 0");
  if (offsets_.back() != targets_.size()) {
    throw std::invalid_argument("CSR: offsets back " + std::to_string(offsets_.back()) +
                                " != edge count " + std::to_string(targets_.size()));
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      throw std::invalid_argument("CSR: offsets not monotone at vertex " +
                                  std::to_string(i - 1));
    }
  }
  const auto n = static_cast<vertex_t>(num_vertices());
  for (std::size_t e = 0; e < targets_.size(); ++e) {
    if (targets_[e] >= n) {
      throw std::invalid_argument("CSR: edge " + std::to_string(e) + " targets vertex " +
                                  std::to_string(targets_[e]) + " >= " + std::to_string(n));
    }
  }
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
  if (std::is_sorted(adj.begin(), adj.end())) {
    return std::binary_search(adj.begin(), adj.end(), v);
  }
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
