// IncrementalCc — incremental connectivity for the streaming subsystem: a
// CAS-based union-find whose hook step is an arbitrary-CW write.
//
// Hooking. link(u, v) finds both roots and hooks the LARGER root under the
// smaller with one compare-exchange on parent[larger], expecting the
// self-loop — the TaggedBucket claim shape (winner-take-parent: many
// threads may offer parents for one root in one round; exactly one CAS
// lands, everyone else re-finds and retries). Because only roots are
// hooked and always to a strictly smaller id, parent values are monotone
// non-increasing along every chain under ANY interleaving — the same
// acyclicity argument as cc_min_hook — so concurrent links can never form
// a cycle and every find terminates. A failed CAS means another hook won
// that root (it is making progress); the loser backs off
// (Dice/Hendler/Mirsky shaping, util::Backoff) and retries against the
// new root. Each CAS success provably merges two distinct trees, so the
// component counter's fetch_sub is exact even under full contention.
//
// Path compaction runs as a between-rounds cooperative sweep (the
// grow_help idiom, not an in-find mutation): compact() rewrites every
// parent to its root and rebuilds the per-root size counts. find() is
// therefore read-only — safe concurrently with other finds and, during
// the write phase, concurrent with links (atomic loads of atomically
// CASed words; monotonicity keeps mid-link walks terminating).
//
// Deletions. Union-find cannot un-merge, so edge deletions take the
// bounded fallback: the scheduler collects the endpoints of every KILLED
// live edge in the round, and rebuild() recomputes exactly the affected
// components — the vertices whose (stale) root is a root of a killed
// endpoint — with the existing cc kernel over the live edges among them.
// The stale forest can only over-connect (merges the deletion may have
// undone), never under-connect, so no live edge crosses from an affected
// vertex to an unaffected one and the sub-problem is closed. The new
// representative of each rebuilt component is its minimum global vertex,
// preserving the parent[v] <= v invariant for later hooks.
#pragma once

#include <omp.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/cc.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/reference.hpp"
#include "obs/metrics.hpp"
#include "util/aligned_buffer.hpp"
#include "util/backoff.hpp"

namespace crcw::stream {

class IncrementalCc {
 public:
  /// `n` vertices, each initially its own component. With `counters` the
  /// hook path reports into a ContentionSite (attempts = hook tries,
  /// atomics = CASes issued, wins = merges) — profile passes only.
  explicit IncrementalCc(std::uint32_t n, bool counters = false,
                         std::string site_name = "stream-cc-hook")
      : n_(n), parent_(n), size_(n), components_(n) {
    if (n == 0) throw std::invalid_argument("IncrementalCc: n == 0");
    for (std::uint32_t v = 0; v < n; ++v) {
      parent_[v].store(v, std::memory_order_relaxed);
      size_[v].store(1, std::memory_order_relaxed);
    }
    if (counters) site_ = std::make_unique<obs::ContentionSite>(std::move(site_name));
  }

  IncrementalCc(const IncrementalCc&) = delete;
  IncrementalCc& operator=(const IncrementalCc&) = delete;

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }

  /// Concurrent hook: connects u and v; true iff two components merged
  /// (this thread's CAS was the arbitration winner for that merge).
  bool link(std::uint32_t u, std::uint32_t v) {
    util::Backoff backoff;
    for (;;) {
      std::uint32_t ru = root(u);
      std::uint32_t rv = root(v);
      if (ru == rv) return false;
      if (rv < ru) std::swap(ru, rv);  // hook the larger root under the smaller
      if (site_) {
        site_->count_attempt();
        site_->count_atomic();
      }
      std::uint32_t expected = rv;
      if (parent_[rv].compare_exchange_strong(expected, ru, std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        if (site_) site_->count_win();
        components_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      backoff.pause();  // rv got hooked by a concurrent winner — re-find
    }
  }

  /// Read-only root walk (no halving — compaction is the sweep's job).
  [[nodiscard]] std::uint32_t find(std::uint32_t v) const noexcept {
    std::uint32_t p = parent_[v].load(std::memory_order_acquire);
    while (p != v) {
      v = p;
      p = parent_[v].load(std::memory_order_acquire);
    }
    return v;
  }

  [[nodiscard]] bool same_component(std::uint32_t u, std::uint32_t v) const noexcept {
    return find(u) == find(v);
  }

  /// |component of v|. Valid after the compact() that followed the last
  /// connectivity change (the scheduler compacts every changed round).
  [[nodiscard]] std::uint64_t component_size(std::uint32_t v) const noexcept {
    return size_[find(v)].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t components() const noexcept {
    return components_.load(std::memory_order_relaxed);
  }

  /// Between-rounds cooperative sweep: full path compression (parent[v] =
  /// root(v)) plus a rebuild of the per-root sizes. Serial with
  /// threads == 1 (no OpenMP region — the raw-thread TSan tier's mode);
  /// otherwise three barrier-separated parallel passes. Must run
  /// quiescent: no concurrent link/rebuild.
  void compact(int threads = 0) {
    const auto n = static_cast<std::ptrdiff_t>(n_);
    if (threads == 1) {
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        parent_[static_cast<std::size_t>(v)].store(find(static_cast<std::uint32_t>(v)),
                                                   std::memory_order_relaxed);
      }
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        size_[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
      }
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        const std::uint32_t r =
            parent_[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
        size_[r].fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
#pragma omp parallel num_threads(threads > 0 ? threads : omp_get_max_threads())
    {
      // Pass 1 races benignly with itself: another thread compacting a
      // prefix of our chain only shortens our walk (roots are stable —
      // nothing links during the sweep).
#pragma omp for schedule(static)
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        parent_[static_cast<std::size_t>(v)].store(find(static_cast<std::uint32_t>(v)),
                                                   std::memory_order_relaxed);
      }
#pragma omp for schedule(static)
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        size_[static_cast<std::size_t>(v)].store(0, std::memory_order_relaxed);
      }
#pragma omp for schedule(static)
      for (std::ptrdiff_t v = 0; v < n; ++v) {
        const std::uint32_t r =
            parent_[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
        size_[r].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Bounded deletion fallback (serial, between rounds). `touched` holds
  /// the endpoints of every live edge the closing round erased;
  /// `each_edge` is a callable invoking fn(u, v) for every LIVE edge
  /// (post-round — the DynamicGraph sweep). Recomputes the partition of
  /// exactly the affected components via the cc kernel (serial DSU when
  /// threads == 1, the TSan-tier no-OpenMP path). Follow with compact()
  /// to refresh sizes.
  template <typename EdgeSource>
  void rebuild(const std::vector<std::uint32_t>& touched, EdgeSource&& each_edge,
               int threads = 0) {
    if (touched.empty()) return;
    constexpr std::uint32_t kNone = ~std::uint32_t{0};

    // Affected roots in the stale forest. Over-connected is fine: a
    // too-big affected set only rebuilds more than strictly necessary.
    std::vector<std::uint8_t> affected(n_, 0);
    std::uint64_t old_roots = 0;
    for (const std::uint32_t v : touched) {
      const std::uint32_t r = find(v);
      if (affected[r] == 0) {
        affected[r] = 1;
        ++old_roots;
      }
    }

    // Membership scan: local ids for every vertex of an affected
    // component, ascending — so the first member seen per rebuilt label
    // is the component's minimum global vertex.
    std::vector<std::uint32_t> local(n_, kNone);
    std::vector<std::uint32_t> verts;
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (affected[find(v)] != 0) {
        local[v] = static_cast<std::uint32_t>(verts.size());
        verts.push_back(v);
      }
    }

    // Live edges inside the affected set. No live edge crosses out of it:
    // the stale forest merges everything a live path ever connected, so
    // both endpoints of a live edge share a stale root.
    graph::EdgeList edges;
    each_edge([&](std::uint32_t a, std::uint32_t b) {
      if (local[a] != kNone && local[b] != kNone) {
        edges.push_back({local[a], local[b]});
      }
    });

    const auto n_local = static_cast<std::uint32_t>(verts.size());
    std::vector<graph::vertex_t> label;
    if (threads == 1) {
      // Serial DSU — same partition, no OpenMP region.
      graph::UnionFind uf(n_local);
      for (const graph::Edge& e : edges) uf.unite(e.u, e.v);
      label.resize(n_local);
      for (std::uint32_t i = 0; i < n_local; ++i) label[i] = uf.find(i);
    } else {
      const graph::Csr sub = graph::build_csr(
          n_local, edges, {.symmetrize = true, .sort_neighbors = false, .threads = threads});
      label = algo::cc_caslt(sub, {.threads = threads}).label;
    }

    // Re-point every affected vertex at its component's minimum member —
    // parent[v] <= v survives, so later hooks stay monotone.
    std::vector<std::uint32_t> rep(n_local, kNone);
    std::uint64_t new_roots = 0;
    for (std::uint32_t i = 0; i < n_local; ++i) {
      const graph::vertex_t l = label[i];
      if (rep[l] == kNone) {
        rep[l] = verts[i];
        ++new_roots;
      }
      parent_[verts[i]].store(rep[l], std::memory_order_relaxed);
    }
    components_.fetch_add(new_roots - old_roots, std::memory_order_relaxed);
    ++rebuilds_;
  }

  /// Deletion-fallback rebuilds executed so far.
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  // -- snapshot capture/restore (serial, quiescent — under the scheduler's
  // -- held pump lock, where no link/rebuild/compact can run) ---------------

  /// Serialises the forest: fn(v, parent[v]) for every vertex. Captured at
  /// the same cut as the edge set, so a restored server's find() walks the
  /// exact pre-kill forest.
  template <typename Fn>
  void for_each_parent(Fn&& fn) const {
    for (std::uint32_t v = 0; v < n_; ++v) {
      fn(v, parent_[v].load(std::memory_order_relaxed));
    }
  }

  /// Restores one captured parent edge. Fails (false) on anything that
  /// would break the hook invariants — out-of-range ids or parent > v,
  /// which would let later hooks cycle — so a corrupt snapshot is refused
  /// instead of planting a forest that can hang find().
  [[nodiscard]] bool restore_parent(std::uint32_t v, std::uint32_t parent) {
    if (v >= n_ || parent > v) return false;
    parent_[v].store(parent, std::memory_order_relaxed);
    return true;
  }

  /// After the last restore_parent: recounts components from the restored
  /// forest and rebuilds the per-root sizes (serial compact). Call once,
  /// before serving resumes.
  void finish_restore() {
    std::uint64_t roots = 0;
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (parent_[v].load(std::memory_order_relaxed) == v) ++roots;
    }
    components_.store(roots, std::memory_order_relaxed);
    compact(/*threads=*/1);
  }

  [[nodiscard]] obs::ContentionSite* site() noexcept { return site_.get(); }
  void flush_round() noexcept {
    if (site_) site_->flush_round();
  }

 private:
  [[nodiscard]] std::uint32_t root(std::uint32_t v) const noexcept { return find(v); }

  std::uint32_t n_;
  util::AlignedBuffer<std::atomic<std::uint32_t>> parent_;
  util::AlignedBuffer<std::atomic<std::uint64_t>> size_;
  std::atomic<std::uint64_t> components_;
  std::uint64_t rebuilds_ = 0;  // serial (between-rounds) counter
  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw::stream
