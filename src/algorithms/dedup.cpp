#include "algorithms/dedup.hpp"

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"

namespace crcw::algo {
namespace {

[[nodiscard]] int resolve_threads(int threads) {
  return threads > 0 ? threads : omp_get_max_threads();
}

[[nodiscard]] ds::HashConfig table_config(const DedupOptions& opts, const char* site) {
  ds::HashConfig cfg;
  cfg.max_load = opts.max_load;
  cfg.telemetry = opts.telemetry;
  cfg.site_name = site;
  return cfg;
}

}  // namespace

DedupResult dedup_caslt(std::span<const std::uint64_t> keys, const DedupOptions& opts) {
  const int threads = resolve_threads(opts.threads);
  ds::ConcurrentHashSet<> set(opts.initial_capacity, table_config(opts, "dedup-open"));

  const std::uint64_t n = keys.size();
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, opts.round_chunk) * static_cast<std::uint64_t>(threads);
  std::vector<std::vector<std::uint64_t>> pending(static_cast<std::size_t>(threads));

  DedupResult result;
  std::uint64_t offset = 0;
  bool have_pending = false;
  while (offset < n || have_pending) {
    const std::uint64_t stop = std::min(n, offset + stride);
#pragma omp parallel num_threads(threads)
    {
      auto& mine = pending[static_cast<std::size_t>(omp_get_thread_num())];
      // Retry earlier overflow first: the table has grown since it failed.
      std::size_t keep = 0;
      for (const std::uint64_t k : mine) {
        if (set.insert(k) == ds::SetInsert::kFull) mine[keep++] = k;
      }
      mine.resize(keep);
#pragma omp for schedule(static)
      for (std::int64_t i = static_cast<std::int64_t>(offset);
           i < static_cast<std::int64_t>(stop); ++i) {
        const std::uint64_t k = keys[static_cast<std::size_t>(i)];
        if (set.insert(k) == ds::SetInsert::kFull) mine.push_back(k);
      }
    }
    offset = stop;
    ++result.rounds;
    set.flush_round();

    std::uint64_t backlog = 0;
    for (const auto& p : pending) backlog += p.size();
    have_pending = backlog > 0;
    if (set.needs_grow() || have_pending) {
      // One grow sized to absorb the whole backlog (maybe_grow_for_backlog;
      // doubling once per round leaves retry rounds probing a near-full
      // table for keys that cannot fit — quadratic when the backlog dwarfs
      // capacity). The backlog overcounts (cross-thread duplicates), which
      // only makes the grown table roomier.
      if (!set.maybe_grow_for_backlog(backlog, threads)) {
        // Pending kFull keys but the sizing math says the table fits them:
        // still grow ×2 so the retry loop always makes progress.
        set.grow_parallel(threads, 2);
      }
      ++result.grows;
    }
  }
  result.distinct = set.size();
  return result;
}

DedupResult dedup_sort(std::span<const std::uint64_t> keys, const DedupOptions&) {
  std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  const auto last = std::unique(sorted.begin(), sorted.end());
  return {static_cast<std::uint64_t>(last - sorted.begin()), 0, 1};
}

}  // namespace crcw::algo
