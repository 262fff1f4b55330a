#include "graph/builder.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <bit>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace crcw::graph {
namespace detail {

void sort_list(std::span<vertex_t> list, int bits, std::vector<vertex_t>& scratch) {
  const std::size_t len = list.size();
  if (len < kRadixMinList) {
    std::sort(list.begin(), list.end());
    return;
  }
  constexpr int kDigitBits = 8;
  constexpr vertex_t kDigitMask = (1u << kDigitBits) - 1;
  const int digits = (bits + kDigitBits - 1) / kDigitBits;
  // One read fills every digit's histogram; counts are list-sized.
  std::array<std::array<std::size_t, kDigitMask + 1>, 4> count{};
  for (const vertex_t v : list) {
    for (int d = 0; d < digits; ++d) ++count[d][(v >> (d * kDigitBits)) & kDigitMask];
  }
  if (scratch.size() < len) scratch.resize(len);
  vertex_t* from = list.data();
  vertex_t* to = scratch.data();
  for (int d = 0; d < digits; ++d) {
    const int shift = d * kDigitBits;
    auto& cursor = count[d];
    // A digit that every slot shares leaves the order as it is.
    if (cursor[(from[0] >> shift) & kDigitMask] == len) continue;
    std::size_t run = 0;
    for (std::size_t& c : cursor) run += std::exchange(c, run);
    for (std::size_t i = 0; i < len; ++i) {
      const vertex_t v = from[i];
      to[cursor[(v >> shift) & kDigitMask]++] = v;
    }
    std::swap(from, to);
  }
  if (from != list.data()) std::copy_n(from, len, list.data());
}

}  // namespace detail

namespace {

/// Vertices per dynamic grab in the per-list sort: list lengths differ by
/// orders of magnitude on skewed graphs, so static ranges would starve
/// threads behind a hub.
constexpr std::int64_t kListChunk = 256;

/// In-place inclusive scan of a[0, len) in at most `threads` contiguous
/// ranges: each range sums itself, a serial scan over the range sums gives
/// each range its base, and each range then scans itself from that base.
void inclusive_scan(edge_t* a, std::uint64_t len, int threads) {
  const std::uint64_t ranges =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(threads, len));
  const auto begin = [&](std::uint64_t r) {
    return r * (len / ranges) + std::min(r, len % ranges);
  };
  std::vector<edge_t> base(ranges + 1, 0);
  const auto nr = static_cast<std::int64_t>(ranges);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t r = 0; r < nr; ++r) {
    edge_t sum = 0;
    for (auto i = begin(r); i < begin(r + 1); ++i) sum += a[i];
    base[r + 1] = sum;
  }
  for (std::uint64_t r = 0; r < ranges; ++r) base[r + 1] += base[r];
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t r = 0; r < nr; ++r) {
    edge_t run = base[r];
    for (auto i = begin(r); i < begin(r + 1); ++i) a[i] = run += a[i];
  }
}

/// The build, with per-(block, vertex) counts of type `Count`. A count or
/// cursor never exceeds the number of slots, so `Count` only has to hold
/// that.
template <typename Count>
Csr build(std::uint64_t n, const EdgeList& edges, const BuildOptions& opts) {
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const std::uint64_t m = edges.size();
  const std::uint64_t slot_bound = m * (opts.symmetrize ? 2 : 1);

  // Blocks are contiguous runs of the edge list, each with its own row of n
  // counts. At most one per thread and one per edge, and blocks·n <= the
  // slot bound, so the rows never outgrow the slots they count.
  std::uint64_t blocks = std::min<std::uint64_t>(threads, m);
  if (n > 0) blocks = std::min(blocks, slot_bound / n);
  blocks = std::max<std::uint64_t>(blocks, 1);
  const auto first_edge = [&](std::uint64_t b) {
    return b * (m / blocks) + std::min(b, m % blocks);
  };
  const auto nb = static_cast<std::int64_t>(blocks);
  const auto nv = static_cast<std::int64_t>(n);

  // Validate and count: each block zeroes its row, then counts its slots
  // per source, stopping at its first out-of-range edge. Blocks are handed
  // out by index, so a nested call (a team of one) runs them all.
  auto count = std::make_unique_for_overwrite<Count[]>(blocks * n);
  std::vector<std::uint64_t> first_bad(blocks, m);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t b = 0; b < nb; ++b) {
    Count* const row = count.get() + static_cast<std::uint64_t>(b) * n;
    std::fill(row, row + n, Count{0});
    for (auto i = first_edge(b); i < first_edge(b + 1); ++i) {
      const Edge e = edges[i];
      if (e.u >= n || e.v >= n) {
        first_bad[b] = i;
        break;
      }
      if (e.u == e.v) {
        if (!opts.remove_self_loops) ++row[e.u];
        continue;
      }
      ++row[e.u];
      if (opts.symmetrize) ++row[e.v];
    }
  }
  // Blocks are in edge-list order, so the least index is the first bad edge.
  const std::uint64_t bad = *std::min_element(first_bad.begin(), first_bad.end());
  if (bad < m) {
    throw std::invalid_argument("edge (" + std::to_string(edges[bad].u) + "," +
                                std::to_string(edges[bad].v) + ") out of range for n=" +
                                std::to_string(n));
  }

  // Scan: each count becomes its block's cursor into the vertex's list
  // (the slots of earlier blocks come first), and the degrees become
  // offsets.
  std::vector<edge_t> offsets(n + 1, 0);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t u = 0; u < nv; ++u) {
    Count run = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      Count& c = count[b * n + static_cast<std::uint64_t>(u)];
      const Count k = c;
      c = run;
      run += k;
    }
    offsets[u + 1] = run;
  }
  inclusive_scan(offsets.data() + 1, n, threads);

  // Scatter straight from the edge list, both directions of an edge in one
  // pass. A block writes its slots of a list in edge-list order behind the
  // earlier blocks', so every list is in edge-list order. The scatter
  // writes every slot of the unwritten targets, so its threads are the
  // ones that fault the pages in.
  Csr::Targets targets(offsets[n]);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t b = 0; b < nb; ++b) {
    Count* const cursor = count.get() + static_cast<std::uint64_t>(b) * n;
    for (auto i = first_edge(b); i < first_edge(b + 1); ++i) {
      const Edge e = edges[i];
      if (e.u == e.v && opts.remove_self_loops) continue;
      targets[offsets[e.u] + cursor[e.u]++] = e.v;
      if (opts.symmetrize && e.u != e.v) targets[offsets[e.v] + cursor[e.v]++] = e.u;
    }
  }
  count.reset();

  if (!opts.sort_neighbors && !opts.dedup) {
    return Csr(std::move(offsets), std::move(targets), threads);
  }

  // Sort each list; when deduplicating, kept[u + 1] takes list u's length
  // after unique, and a scan makes it the compacted offsets. A thread's
  // radix scratch grows to the longest list it sorts; a throw must not
  // leave the parallel region, so a failed allocation is rethrown after it.
  const int bits = n > 1 ? static_cast<int>(std::bit_width(n - 1)) : 0;
  std::vector<edge_t> kept(opts.dedup ? n + 1 : 0, 0);
  std::exception_ptr failure;
#pragma omp parallel num_threads(threads)
  {
    std::vector<vertex_t> scratch;
#pragma omp for schedule(dynamic, kListChunk)
    for (std::int64_t u = 0; u < nv; ++u) {
      vertex_t* const begin = targets.data() + offsets[u];
      vertex_t* const end = targets.data() + offsets[u + 1];
      try {
        detail::sort_list({begin, end}, bits, scratch);
      } catch (...) {
#pragma omp critical(crcw_graph_sort_failure)
        failure = std::current_exception();
      }
      if (opts.dedup) kept[u + 1] = static_cast<edge_t>(std::unique(begin, end) - begin);
    }
  }
  if (failure) std::rethrow_exception(failure);
  if (!opts.dedup) return Csr(std::move(offsets), std::move(targets), threads);

  inclusive_scan(kept.data() + 1, n, threads);
  Csr::Targets unique_targets(kept[n]);
#pragma omp parallel for num_threads(threads) schedule(dynamic, kListChunk)
  for (std::int64_t u = 0; u < nv; ++u) {
    std::copy_n(targets.data() + offsets[u], kept[u + 1] - kept[u],
                unique_targets.data() + kept[u]);
  }
  return Csr(std::move(kept), std::move(unique_targets), threads);
}

}  // namespace

Csr build_csr(std::uint64_t n, const EdgeList& edges, const BuildOptions& opts) {
  if (n > kNoVertex) throw std::invalid_argument("vertex count exceeds vertex_t");
  const std::uint64_t slot_bound = edges.size() * (opts.symmetrize ? 2 : 1);
  return slot_bound <= std::numeric_limits<std::uint32_t>::max()
             ? build<std::uint32_t>(n, edges, opts)
             : build<std::uint64_t>(n, edges, opts);
}

EdgeList to_edge_list(const Csr& g) {
  EdgeList out;
  out.reserve(g.num_edges());
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) out.push_back({u, v});
  }
  return out;
}

}  // namespace crcw::graph
