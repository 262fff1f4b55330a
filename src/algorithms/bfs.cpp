#include "algorithms/bfs.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/arbiter.hpp"
#include "core/instrumented.hpp"
#include "core/slot_alloc.hpp"
#include "obs/metrics.hpp"
#include "util/chunking.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::kNoVertex;
using graph::vertex_t;

constexpr edge_t kNoEdge = static_cast<edge_t>(-1);

BfsResult make_result(std::uint64_t n, vertex_t source) {
  if (source >= n) throw std::invalid_argument("bfs: source out of range");
  BfsResult r;
  r.level.assign(n, -1);
  r.parent.assign(n, kNoVertex);
  r.sel_edge.assign(n, kNoEdge);
  r.level[source] = 0;
  r.parent[source] = source;
  return r;
}

/// Relaxed atomic views — the arrays are raced by design (checked by one
/// thread while written by another within a level); atomic_ref keeps that
/// defined behaviour without changing the generated x86 loads/stores.
inline std::int64_t load_level(const std::int64_t& cell) noexcept {
  return std::atomic_ref<const std::int64_t>(cell).load(std::memory_order_relaxed);
}
inline void store_level(std::int64_t& cell, std::int64_t v) noexcept {
  std::atomic_ref<std::int64_t>(cell).store(v, std::memory_order_relaxed);
}

/// Folds a run's slot-allocation tallies into a ContentionSite so profile
/// passes see them (attempts = slots handed out, atomics = refills = the
/// shared-cursor RMWs). The site is scoped to the call: it detaches
/// immediately and the current MetricsRegistry retains its totals.
void report_slot_counts(const SlotAllocator& slots) {
  obs::ContentionSite site("frontier-slots");
  site.add_attempts(slots.grants());
  site.add_atomics(slots.refills());
  // Every slot-cursor fetch_add succeeds, so wins == atomics and the
  // derived failures stays 0 — grants beyond the shared RMWs are the
  // chunking's saving, carried by attempts vs atomics, not by failures.
  site.add_wins(slots.refills());
  site.add_refills(slots.refills());
}

}  // namespace

namespace detail {

template <WritePolicy Policy>
BfsResult bfs_kernel(const Csr& g, vertex_t source, const BfsOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);

  const auto offsets = g.offsets();
  const auto targets = g.targets();
  auto* level = result.level.data();
  auto* parent = result.parent.data();
  auto* sel_edge = result.sel_edge.data();

  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  ArbiterConfig cfg;
  // Tag pages land with the threads that sweep and acquire them.
  cfg.first_touch = util::FirstTouch::kParallel;
  cfg.first_touch_threads = threads;
  WriteArbiter<Policy> arbiter(n, cfg);
  const auto count = static_cast<std::int64_t>(n);

  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    std::uint8_t frontier_empty = 1;
    // Fig 3(b) lines 34-35: re-zero the whole gatekeeper array — the
    // Θ(N)-work-per-level overhead CAS-LT avoids (no-op for policies
    // without per-round reset).
    arbiter.reset_tags_parallel(threads);
    // Round id L+1 (Fig 3(a) line 22): monotone across levels, so CAS-LT
    // tags never need re-initialisation.
    auto scope = arbiter.next_round(ResetMode::kCaller);

#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(&& : frontier_empty)
    for (std::int64_t vi = 0; vi < count; ++vi) {
      const auto v = static_cast<vertex_t>(vi);
      if (load_level(level[vi]) != l) continue;
      for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        const vertex_t u = targets[j];
        if (load_level(level[u]) != -1) continue;  // Fig 3 "visited" check
        if (scope.acquire(u)) {
          // The multi-word discovery write of Fig 3 lines 23-27. Only the
          // policy winner executes it, so plain stores suffice for the
          // arbitrary-CW members (parent, sel_edge).
          parent[u] = v;
          sel_edge[u] = j;
          store_level(level[u], l + 1);
          frontier_empty = 0;
        }
      }
    }
    // Implicit barrier = the synchronisation point before dependent reads.
    done = frontier_empty != 0;
    ++l;  // Fig 3(a) line 33: "update round ID"
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

template BfsResult bfs_kernel<CasLtPolicy>(const Csr&, vertex_t, const BfsOptions&);
template BfsResult bfs_kernel<GatekeeperPolicy>(const Csr&, vertex_t, const BfsOptions&);
template BfsResult bfs_kernel<GatekeeperSkipPolicy>(const Csr&, vertex_t, const BfsOptions&);
template BfsResult bfs_kernel<CriticalPolicy>(const Csr&, vertex_t, const BfsOptions&);
// Instrumented variants for the contention-profiling entry points.
template BfsResult bfs_kernel<InstrumentedPolicy<CasLtPolicy>>(const Csr&, vertex_t,
                                                               const BfsOptions&);
template BfsResult bfs_kernel<InstrumentedPolicy<GatekeeperPolicy>>(const Csr&, vertex_t,
                                                                    const BfsOptions&);
template BfsResult bfs_kernel<InstrumentedPolicy<GatekeeperSkipPolicy>>(const Csr&, vertex_t,
                                                                        const BfsOptions&);

}  // namespace detail

BfsResult bfs_naive(const Csr& g, vertex_t source, const BfsOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);

  const auto offsets = g.offsets();
  const auto targets = g.targets();
  auto* level = result.level.data();
  auto* parent = result.parent.data();
  auto* sel_edge = result.sel_edge.data();

  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto count = static_cast<std::int64_t>(n);

  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    std::uint8_t frontier_empty = 1;

#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(&& : frontier_empty)
    for (std::int64_t vi = 0; vi < count; ++vi) {
      const auto v = static_cast<vertex_t>(vi);
      if (load_level(level[vi]) != l) continue;
      for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        const vertex_t u = targets[j];
        if (load_level(level[u]) != -1) continue;
        // Rodinia's original: no winner selection — every discovering edge
        // performs the whole write. Level is a common CW (same value L+1)
        // and stays correct; parent/sel_edge are arbitrary CWs racing each
        // other, so the committed pair may be MIXED across writers (the §4
        // hazard; tests only validate levels for this variant, and
        // tests/test_bfs.cpp demonstrates the mixed-pair outcome).
        std::atomic_ref<vertex_t>(parent[u]).store(v, std::memory_order_relaxed);
        std::atomic_ref<edge_t>(sel_edge[u]).store(j, std::memory_order_relaxed);
        store_level(level[u], l + 1);
        frontier_empty = 0;
      }
    }
    done = frontier_empty != 0;
    ++l;
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

namespace detail {

template <WritePolicy Policy>
BfsResult bfs_frontier_kernel(const Csr& g, vertex_t source, const BfsOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);

  const auto offsets = g.offsets();
  const auto targets = g.targets();
  auto* level = result.level.data();
  auto* parent = result.parent.data();
  auto* sel_edge = result.sel_edge.data();

  WriteArbiter<Policy> arbiter(n);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();

  // Double-buffered frontier/next, each sized ONCE: a frontier holds at
  // most n vertices, plus the chunked grants' per-lane slack (holes that
  // compact() squeezes out again). Levels exchange the buffers with
  // std::swap — no O(frontier) copy per level.
  SlotAllocator slots(threads);
  const auto cap = static_cast<std::size_t>(slots.capacity_for(n));
  std::vector<vertex_t> frontier(cap);
  std::vector<vertex_t> next(cap);
  frontier[0] = source;
  std::uint64_t fsize = 1;
  std::int64_t l = 0;

  while (fsize > 0) {
    auto scope = arbiter.next_round(ResetMode::kNone);
    const auto fcount = static_cast<std::int64_t>(fsize);
    auto* next_data = next.data();

    // Frontier vertices own very different degrees; dynamic chunks keep
    // threads busy on skewed graphs (util/chunking.hpp).
#pragma omp parallel for num_threads(threads) schedule(dynamic, util::kFrontierChunk)
    for (std::int64_t fi = 0; fi < fcount; ++fi) {
      const vertex_t v = frontier[static_cast<std::size_t>(fi)];
      const int lane = omp_get_thread_num();
      for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        const vertex_t u = targets[j];
        if (load_level(level[u]) != -1) continue;
        if (scope.acquire(u)) {
          parent[u] = v;
          sel_edge[u] = j;
          store_level(level[u], l + 1);
          // Slot-allocating CW through the lane's private cursor: one
          // shared fetch_add per chunk of discoveries, not per discovery.
          next_data[slots.grant(lane)] = u;
        }
      }
    }
    fsize = slots.compact(next_data);

    std::swap(frontier, next);
    ++l;
  }

  if constexpr (InstrumentedWritePolicy<Policy>) report_slot_counts(slots);

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

template BfsResult bfs_frontier_kernel<CasLtPolicy>(const Csr&, vertex_t, const BfsOptions&);
template BfsResult bfs_frontier_kernel<InstrumentedPolicy<CasLtPolicy>>(const Csr&, vertex_t,
                                                                        const BfsOptions&);

}  // namespace detail

BfsResult bfs_frontier(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return detail::bfs_frontier_kernel<CasLtPolicy>(g, source, opts);
}

BfsResult bfs_direction_optimizing(const Csr& g, vertex_t source, const BfsOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);

  const auto offsets = g.offsets();
  const auto targets = g.targets();
  auto* level = result.level.data();
  auto* parent = result.parent.data();
  auto* sel_edge = result.sel_edge.data();

  WriteArbiter<CasLtPolicy> arbiter(n);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto count = static_cast<std::int64_t>(n);

  // Switch to bottom-up when the frontier's edge volume exceeds this
  // fraction of the graph (Beamer's alpha heuristic, simplified).
  const std::uint64_t dense_threshold = std::max<std::uint64_t>(1, g.num_edges() / 8);

  std::uint64_t frontier_edges = g.degree(source);
  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    auto scope = arbiter.next_round(ResetMode::kNone);
    std::uint8_t frontier_empty = 1;
    std::uint64_t next_edges = 0;

    if (frontier_edges < dense_threshold) {
      // Top-down: the Fig 3(a) step, arbitration by CAS-LT.
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(&& : frontier_empty) reduction(+ : next_edges)
      for (std::int64_t vi = 0; vi < count; ++vi) {
        const auto v = static_cast<vertex_t>(vi);
        if (load_level(level[vi]) != l) continue;
        for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
          const vertex_t u = targets[j];
          if (load_level(level[u]) != -1) continue;
          if (scope.acquire(u)) {
            parent[u] = v;
            sel_edge[u] = j;
            store_level(level[u], l + 1);
            frontier_empty = 0;
            next_edges += g.degree(u);
          }
        }
      }
    } else {
      // Bottom-up: each unvisited vertex claims ITSELF on finding a
      // frontier neighbour. parent/sel_edge/level[u] are written by u's
      // own processor only — exclusive writes, zero CW arbitration.
#pragma omp parallel for num_threads(threads) schedule(dynamic, util::kBottomUpChunk) \
    reduction(&& : frontier_empty) reduction(+ : next_edges)
      for (std::int64_t ui = 0; ui < count; ++ui) {
        const auto u = static_cast<vertex_t>(ui);
        if (load_level(level[ui]) != -1) continue;
        for (edge_t j = offsets[u]; j < offsets[u + 1]; ++j) {
          const vertex_t v = targets[j];
          if (load_level(level[v]) != l) continue;
          parent[u] = v;
          // Record the (v -> u) slot, like the top-down kernel does. The
          // sorted CSR makes the reverse slot findable by binary search.
          const auto adj_begin = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
          const auto adj_end = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
          const auto it = std::lower_bound(adj_begin, adj_end, u);
          sel_edge[u] = offsets[v] + static_cast<edge_t>(it - adj_begin);
          store_level(level[ui], l + 1);
          frontier_empty = 0;
          next_edges += g.degree(u);
          break;
        }
      }
    }

    done = frontier_empty != 0;
    frontier_edges = next_edges;
    ++l;
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

BfsResult bfs_gatekeeper(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return detail::bfs_kernel<GatekeeperPolicy>(g, source, opts);
}

BfsResult bfs_gatekeeper_skip(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return detail::bfs_kernel<GatekeeperSkipPolicy>(g, source, opts);
}

BfsResult bfs_caslt(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return detail::bfs_kernel<CasLtPolicy>(g, source, opts);
}

BfsResult bfs_critical(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return detail::bfs_kernel<CriticalPolicy>(g, source, opts);
}

}  // namespace crcw::algo
