#include "algorithms/kcore.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "core/slot_alloc.hpp"
#include "util/atomic_bitset.hpp"
#include "util/chunking.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::vertex_t;

}  // namespace

KcoreResult kcore(const Csr& g, const KcoreOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();

  KcoreResult result;
  result.core.assign(n, 0);
  if (n == 0) return result;

  std::vector<std::uint64_t> deg(n);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(static_cast<vertex_t>(v));
  }

  util::AtomicBitset removed(n);
  // Peel wavefronts allocate their successor slots through per-thread
  // chunked grants (one shared RMW per chunk, core/slot_alloc.hpp); the
  // next buffer carries the grants' per-lane slack on top of n.
  SlotAllocator slots(threads);
  std::vector<vertex_t> frontier;
  std::vector<vertex_t> next(static_cast<std::size_t>(slots.capacity_for(n)));
  frontier.reserve(n);
  std::uint64_t removed_total = 0;

  std::uint32_t k = 0;
  while (removed_total < n) {
    ++k;
    // Seed this k's wavefront: still-active vertices now under the
    // threshold. test_and_set makes first-removal exclusive.
    frontier.clear();
    for (std::uint64_t v = 0; v < n; ++v) {
      if (!removed.test(v) && deg[v] < k) {
        if (removed.test_and_set(v)) frontier.push_back(static_cast<vertex_t>(v));
      }
    }

    while (!frontier.empty()) {
      ++result.peel_rounds;
      removed_total += frontier.size();
      const auto fsize = static_cast<std::int64_t>(frontier.size());
      auto* next_data = next.data();

#pragma omp parallel for num_threads(threads) schedule(dynamic, util::kFrontierChunk)
      for (std::int64_t fi = 0; fi < fsize; ++fi) {
        const vertex_t v = frontier[static_cast<std::size_t>(fi)];
        const int lane = omp_get_thread_num();
        result.core[v] = k - 1;
        for (const vertex_t u : g.neighbors(v)) {
          if (u == v || removed.test(u)) continue;
          // Combining decrement; the thread that observes the crossing
          // from k to k-1 owns u's removal.
          const std::uint64_t old =
              std::atomic_ref<std::uint64_t>(deg[u]).fetch_sub(1, std::memory_order_acq_rel);
          if (old == k) {
            if (removed.test_and_set(u)) {
              next_data[slots.grant(lane)] = u;
            }
          }
        }
      }

      const auto dense = static_cast<std::ptrdiff_t>(slots.compact(next_data));
      frontier.assign(next.begin(), next.begin() + dense);
    }
  }

  result.degeneracy =
      n == 0 ? 0 : *std::max_element(result.core.begin(), result.core.end());
  return result;
}

std::vector<std::uint32_t> kcore_seq(const Csr& g) {
  const std::uint64_t n = g.num_vertices();
  std::vector<std::uint32_t> core(n, 0);
  if (n == 0) return core;

  // Bucket peeling (Batagelj–Zaversnik): process vertices in increasing
  // current-degree order.
  std::vector<std::uint64_t> deg(n);
  std::uint64_t max_deg = 0;
  for (vertex_t v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }

  std::vector<std::vector<vertex_t>> buckets(max_deg + 1);
  for (vertex_t v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<std::uint8_t> done(n, 0);

  std::uint64_t processed = 0;
  std::uint64_t current = 0;
  std::uint64_t scan = 0;
  while (processed < n) {
    // Find the next vertex with the minimal current degree.
    while (scan <= max_deg && buckets[scan].empty()) {
      ++scan;
    }
    vertex_t v = buckets[scan].back();
    buckets[scan].pop_back();
    if (done[v] != 0 || deg[v] != scan) {
      // Stale bucket entry (degree changed since insertion): skip. Reset
      // the scan floor only when the real degree is lower.
      if (done[v] == 0) {
        buckets[deg[v]].push_back(v);
        scan = std::min(scan, deg[v]);
      }
      continue;
    }
    done[v] = 1;
    ++processed;
    current = std::max(current, scan);
    core[v] = static_cast<std::uint32_t>(current);
    for (const vertex_t u : g.neighbors(v)) {
      if (u == v || done[u] != 0) continue;
      if (deg[u] > 0) {
        --deg[u];
        buckets[deg[u]].push_back(u);
        scan = std::min(scan, deg[u]);
      }
    }
  }
  return core;
}

}  // namespace crcw::algo
