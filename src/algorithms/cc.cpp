#include "algorithms/cc.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/arbiter.hpp"
#include "core/combining.hpp"
#include "core/instrumented.hpp"
#include "util/chunking.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::vertex_t;

constexpr edge_t kNoEdge = static_cast<edge_t>(-1);

/// Flag bits a conditional hook list returns to sweep_edges.
constexpr std::uint8_t kHooked = 1;   ///< a hook committed
constexpr std::uint8_t kCrossed = 2;  ///< a scanned slot joins two trees (pv != pu)

/// Relaxed atomic views over the raced arrays (see bfs.cpp for rationale).
inline vertex_t load_v(const vertex_t& cell) noexcept {
  return std::atomic_ref<const vertex_t>(cell).load(std::memory_order_relaxed);
}
inline void store_v(vertex_t& cell, vertex_t value) noexcept {
  std::atomic_ref<vertex_t>(cell).store(value, std::memory_order_relaxed);
}
inline std::uint8_t load_b(const std::uint8_t& cell) noexcept {
  return std::atomic_ref<const std::uint8_t>(cell).load(std::memory_order_relaxed);
}
inline void store_b(std::uint8_t& cell, std::uint8_t value) noexcept {
  std::atomic_ref<std::uint8_t>(cell).store(value, std::memory_order_relaxed);
}

/// "Parallelizing across all edges to perform the hooking step" (§7.2),
/// walking the CSR in place instead of a copied edge list. Slots are cut
/// into util::kEdgeChunk-slot chunks handed out one at a time, so a hub's
/// long list spreads over the team; each chunk finds its first source with
/// Csr::source_of and then steps through the sources in order, skipping
/// zero-degree vertices. `body(u, first, last)` gets the nonempty slot
/// range [first, last) of u's list that lies in the chunk, and returns flag
/// bits, bit 0 (kHooked) meaning it changed shared state; the sweep returns
/// their OR. That is a team reduction, so no thread stores to a shared flag.
///
/// Handing the body a whole list lets it test a per-source guard once per
/// list. A hook round's guard `star[u]` depends on the source alone, so a
/// body that skips a non-star list skips only edges whose per-edge test
/// would have been false: every round makes exactly the acquire() attempts
/// of an edge-by-edge sweep, and the winners, the recorded hook slots and
/// the instrumented attempt counts keep their meaning.
template <class Body>
std::uint8_t sweep_edges(const Csr& g, int threads, const Body& body) {
  const edge_t m = g.num_edges();
  const std::span<const edge_t> offsets = g.offsets();
  const auto chunks = static_cast<std::int64_t>((m + util::kEdgeChunk - 1) / util::kEdgeChunk);
  std::uint8_t any = 0;
#pragma omp parallel for num_threads(threads) schedule(dynamic, 1) reduction(| : any)
  for (std::int64_t c = 0; c < chunks; ++c) {
    edge_t first = static_cast<edge_t>(c) * util::kEdgeChunk;
    const edge_t end = std::min(m, first + util::kEdgeChunk);
    for (vertex_t u = g.source_of(first); first < end; ++u) {
      const edge_t last = std::min(end, offsets[u + 1]);
      if (last == first) continue;  // zero-degree vertex: owns no slot
      any |= body(u, first, last);
      first = last;
    }
  }
  return any;
}

/// Star detection (A-S); correct for arbitrary forest depth:
///   1. star[v] = true
///   2. v with a grandparent ≠ parent marks itself, its parent and its
///      grandparent non-star (common CWs of `false`)
///   3. star[v] = star[P[v]] pulls the root's verdict down to depth-1
///      children. The phase-3 read race is benign: a root copies its own
///      flag (P[root] == root), so a child reads the final value whether or
///      not the root's copy ran first; a deeper vertex's parent was marked
///      non-star in phase 2, and phase 3 never turns a 0 into a 1.
/// Returns whether every tree is a star (no vertex has a grandparent ≠
/// parent); then every flag is 1 and phase 3 has nothing to pull.
bool detect_stars(const std::vector<vertex_t>& parent, std::vector<std::uint8_t>& star,
                  int threads) {
  const auto n = static_cast<std::int64_t>(parent.size());
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) star[static_cast<std::size_t>(v)] = 1;

  std::uint8_t deep = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(| : deep)
  for (std::int64_t v = 0; v < n; ++v) {
    const vertex_t p = parent[static_cast<std::size_t>(v)];
    const vertex_t gp = parent[p];
    if (p != gp) {
      store_b(star[static_cast<std::size_t>(v)], 0);
      store_b(star[p], 0);
      store_b(star[gp], 0);
      deep = 1;
    }
  }
  if (deep == 0) return true;

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const vertex_t p = parent[static_cast<std::size_t>(v)];
    store_b(star[static_cast<std::size_t>(v)], load_b(star[p]));
  }
  return false;
}

/// Roots of a converged forest (label[v] == v). Pointer jumping has
/// reached its fixpoint, so every label is a root that labels itself, and
/// the roots are exactly the distinct labels.
std::uint64_t count_roots(const std::vector<vertex_t>& label, int threads) {
  const auto n = static_cast<std::int64_t>(label.size());
  std::uint64_t roots = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : roots)
  for (std::int64_t v = 0; v < n; ++v) {
    if (label[static_cast<std::size_t>(v)] == static_cast<vertex_t>(v)) ++roots;
  }
  return roots;
}

}  // namespace

namespace detail {

template <WritePolicy Policy>
CcResult cc_kernel(const Csr& g, const CcOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto vcount = static_cast<std::int64_t>(n);

  CcResult result;
  result.label.resize(n);
  if (n == 0) return result;

  const std::span<const vertex_t> targets = g.targets();
  std::vector<vertex_t>& parent = result.label;  // P[], doubles as the output
  std::vector<vertex_t> snapshot(n);             // pre-substep P (PRAM read set)
  std::vector<std::uint8_t> star(n, 1);          // the identity forest is all stars
  std::vector<edge_t> hook_edge(n, kNoEdge);  // 2nd member of the multi-array hook
  ArbiterConfig cfg;
  cfg.first_touch = util::FirstTouch::kParallel;  // tag pages with the sweepers
  cfg.first_touch_threads = threads;
  WriteArbiter<Policy> arbiter(n, cfg);

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < vcount; ++v) {
    parent[static_cast<std::size_t>(v)] = static_cast<vertex_t>(v);
  }

  const auto take_snapshot = [&] {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = parent[static_cast<std::size_t>(v)];
    }
  };

  // Safety net for implementation bugs: A-S converges in O(log n)
  // iterations; exceeding a generous multiple means non-convergence.
  std::uint64_t max_iters = 16;
  for (std::uint64_t s = 1; s < n; s *= 2) max_iters += 4;

  std::uint64_t iterations = 0;
  bool changed = true;

  while (changed) {
    if (++iterations > max_iters) {
      throw std::runtime_error("cc_kernel: exceeded iteration bound (no convergence)");
    }
    std::uint8_t any_change = 0;
    // Iteration 1 starts from the identity forest, whose star flags (all
    // set) and snapshot (P[v] == v) are known without a sweep: the first
    // star detection and snapshot are skipped, and the conditional hook
    // reads pu = u and pv = targets[j] directly.
    const bool identity = iterations == 1;

    // --- 1. star detection -------------------------------------------------
    const bool all_stars = identity || detect_stars(parent, star, threads);

    // --- 2. conditional star hooking (one arbitrary-CW round) --------------
    if (!identity) take_snapshot();
    // The gatekeeper re-initialisation sweep, once per hooking substep —
    // the recurring Θ(N) cost CAS-LT does not pay (§6).
    arbiter.reset_tags_parallel(threads);
    std::uint8_t conditional = 0;
    {
      auto scope = arbiter.next_round(ResetMode::kCaller);
      conditional = sweep_edges(g, threads, [&](vertex_t u, edge_t first, edge_t last) {
        if (star[u] == 0) return std::uint8_t{0};
        const vertex_t pu = identity ? u : snapshot[u];
        std::uint8_t flags = 0;
        for (edge_t j = first; j < last; ++j) {
          const vertex_t pv = identity ? targets[j] : snapshot[targets[j]];
          if (pv != pu) flags |= kCrossed;
          if (pv < pu && scope.acquire(pu)) {
            // The multi-array hook update of §7.2: new parent + hook edge
            // must come from ONE winning edge, or the pair is inconsistent.
            store_v(parent[pu], pv);
            hook_edge[pu] = j;
            flags |= kHooked;
          }
        }
        return flags;
      });
    }
    any_change = conditional & kHooked;

    // A forest of stars that no slot crosses has converged: the sweep
    // scanned every slot and hooked nothing, so steps 3–5 would find the
    // same stars, make no unconditional attempt (pv > pu needs pv ≠ pu)
    // and jump no pointer (every parent is a root). The test reads slots,
    // not hooks, so it holds on any input; on a symmetric graph every
    // crossing slot has a downward twin that hooks, and the final
    // iteration always ends here.
    if (all_stars && (conditional & kCrossed) == 0) break;

    // --- 3. star detection on the hooked forest ----------------------------
    detect_stars(parent, star, threads);

    // --- 4. unconditional star hooking (one arbitrary-CW round) ------------
    // Two extra guards beyond the textbook `pv != pu`, both protecting the
    // invariant that a committed hook is PERMANENT (lockstep A-S instead
    // lets transient 2-cycles form and dissolve in the next jump — e.g.
    // two stars assembled by this iteration's conditional phase can be
    // mutually adjacent here and hook each other; harmless for labels,
    // fatal for the recorded spanning forest):
    //   * snapshot[pv] == pv — hook onto a settled ROOT, never a vertex
    //     whose own root moved this iteration;
    //   * pv > pu — orient unconditional hooks strictly UPWARD, so the
    //     round's hook digraph on tree roots is increasing and therefore
    //     acyclic under any interleaving. A star blocked by either guard
    //     merges in a later round once pointer jumping exposes the
    //     neighbouring root (downward merges belong to the conditional
    //     phase by construction).
    take_snapshot();
    arbiter.reset_tags_parallel(threads);
    {
      auto scope = arbiter.next_round(ResetMode::kCaller);
      any_change |= sweep_edges(g, threads, [&](vertex_t u, edge_t first, edge_t last) {
        if (star[u] == 0) return false;
        const vertex_t pu = snapshot[u];
        bool hooked = false;
        for (edge_t j = first; j < last; ++j) {
          const vertex_t pv = snapshot[targets[j]];
          if (pv > pu && snapshot[pv] == pv && scope.acquire(pu)) {
            store_v(parent[pu], pv);
            hook_edge[pu] = j;
            hooked = true;
          }
        }
        return hooked;
      });
    }

    // --- 5. pointer jumping -------------------------------------------------
    take_snapshot();
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(| : any_change)
    for (std::int64_t v = 0; v < vcount; ++v) {
      const vertex_t target = snapshot[snapshot[static_cast<std::size_t>(v)]];
      if (target != parent[static_cast<std::size_t>(v)]) {
        parent[static_cast<std::size_t>(v)] = target;
        any_change = 1;
      }
    }

    changed = any_change != 0;
  }

  result.iterations = iterations;
  result.components = count_roots(result.label, threads);
  // A root is hooked at most once in its lifetime (a hooked root never
  // becomes a root again), so the per-root hook records are final and
  // together form the spanning forest: one edge per merged tree. The team
  // collects them in vertex order: each contiguous block of vertices counts
  // its records, a scan places the blocks, and each block copies its own.
  const std::uint64_t blocks = std::min<std::uint64_t>(threads, n);
  const auto block = [&](std::int64_t b) {  // hook records of vertices [first, last)
    const std::uint64_t first = static_cast<std::uint64_t>(b) * n / blocks;
    const std::uint64_t last = static_cast<std::uint64_t>(b + 1) * n / blocks;
    return std::span<const edge_t>(hook_edge).subspan(first, last - first);
  };
  const auto recorded = [](edge_t j) { return j != kNoEdge; };
  std::vector<std::uint64_t> place(blocks + 1, 0);
  const auto nb = static_cast<std::int64_t>(blocks);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t b = 0; b < nb; ++b) {
    const std::span<const edge_t> records = block(b);
    place[static_cast<std::size_t>(b) + 1] =
        static_cast<std::uint64_t>(std::count_if(records.begin(), records.end(), recorded));
  }
  std::partial_sum(place.begin(), place.end(), place.begin());
  result.forest_edges.resize(place[blocks]);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t b = 0; b < nb; ++b) {
    const std::span<const edge_t> records = block(b);
    std::copy_if(records.begin(), records.end(),
                 result.forest_edges.begin() +
                     static_cast<std::ptrdiff_t>(place[static_cast<std::size_t>(b)]),
                 recorded);
  }
  return result;
}

template CcResult cc_kernel<CasLtPolicy>(const Csr&, const CcOptions&);
template CcResult cc_kernel<GatekeeperPolicy>(const Csr&, const CcOptions&);
template CcResult cc_kernel<GatekeeperSkipPolicy>(const Csr&, const CcOptions&);
template CcResult cc_kernel<CriticalPolicy>(const Csr&, const CcOptions&);
// Instrumented variants for the contention-profiling entry points.
template CcResult cc_kernel<InstrumentedPolicy<CasLtPolicy>>(const Csr&, const CcOptions&);
template CcResult cc_kernel<InstrumentedPolicy<GatekeeperPolicy>>(const Csr&, const CcOptions&);
template CcResult cc_kernel<InstrumentedPolicy<GatekeeperSkipPolicy>>(const Csr&,
                                                                      const CcOptions&);

}  // namespace detail

CcResult cc_gatekeeper(const Csr& g, const CcOptions& opts) {
  return detail::cc_kernel<GatekeeperPolicy>(g, opts);
}

CcResult cc_gatekeeper_skip(const Csr& g, const CcOptions& opts) {
  return detail::cc_kernel<GatekeeperSkipPolicy>(g, opts);
}

CcResult cc_caslt(const Csr& g, const CcOptions& opts) {
  return detail::cc_kernel<CasLtPolicy>(g, opts);
}

CcResult cc_critical(const Csr& g, const CcOptions& opts) {
  return detail::cc_kernel<CriticalPolicy>(g, opts);
}

CcResult cc_min_hook(const Csr& g, const CcOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto vcount = static_cast<std::int64_t>(n);

  CcResult result;
  result.label.resize(n);
  if (n == 0) return result;

  const std::span<const vertex_t> targets = g.targets();
  std::vector<vertex_t>& parent = result.label;
  std::vector<vertex_t> snapshot(n);

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < vcount; ++v) {
    parent[static_cast<std::size_t>(v)] = static_cast<vertex_t>(v);
  }

  const auto take_snapshot = [&] {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = parent[static_cast<std::size_t>(v)];
    }
  };

  std::uint64_t max_iters = 16;
  for (std::uint64_t s = 1; s < n; s *= 2) max_iters += 4;

  std::uint64_t iterations = 0;
  bool changed = true;
  while (changed) {
    if (++iterations > max_iters) {
      throw std::runtime_error("cc_min_hook: exceeded iteration bound");
    }
    std::uint8_t any_change = 0;

    // Hooking: offer the smaller endpoint label into the larger label's
    // cell (atomic fetch-min = Priority(min-value) CW). Since the written
    // value is always strictly below the target index, parent[i] <= i is an
    // invariant and the forest can never form a cycle, whatever the
    // interleaving — monotonicity replaces A-S's star machinery.
    take_snapshot();
    any_change |= sweep_edges(g, threads, [&](vertex_t u, edge_t first, edge_t last) {
      const vertex_t pu = snapshot[u];
      bool lowered = false;
      for (edge_t j = first; j < last; ++j) {
        const vertex_t pv = snapshot[targets[j]];
        if (pu == pv) continue;
        const vertex_t lo = pu < pv ? pu : pv;
        const vertex_t hi = pu < pv ? pv : pu;
        std::atomic_ref<vertex_t> cell(parent[hi]);
        if (atomic_fetch_min(cell, lo)) lowered = true;
      }
      return lowered;
    });

    // Full pointer compression: jump until every pointer is a fixpoint.
    bool compressing = true;
    while (compressing) {
      std::uint8_t jumped = 0;
      take_snapshot();
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(| : jumped)
      for (std::int64_t v = 0; v < vcount; ++v) {
        const vertex_t target = snapshot[snapshot[static_cast<std::size_t>(v)]];
        if (target != parent[static_cast<std::size_t>(v)]) {
          parent[static_cast<std::size_t>(v)] = target;
          jumped = 1;
        }
      }
      compressing = jumped != 0;
      if (jumped != 0) any_change = 1;
    }

    changed = any_change != 0;
  }

  result.iterations = iterations;
  result.components = count_roots(result.label, threads);
  return result;
}

}  // namespace crcw::algo
