// Parallel duplicate elimination — the canonical hash-set workload, run
// through the ds/ tables so the insert race is a concurrent write.
//
// Every thread offering key k races the same bucket claim; exactly one
// wins and the rest observe the committed key wait-free (arbitrary-CW, see
// ClaimWord). dedup_caslt also exercises the cooperative resize: inserts
// proceed in barrier-separated rounds, and between rounds the team grows
// the table whenever occupancy crossed the load factor or a probe walk
// came back kFull (the overflow keys are stashed and retried after the
// grow — the kFull path is reachable, not theoretical).
//
//   dedup_caslt    ConcurrentHashSet + cooperative grow rounds
//   dedup_sort     serial sort+unique baseline
#pragma once

#include <cstdint>
#include <span>

namespace crcw::algo {

struct DedupOptions {
  int threads = 0;  ///< OpenMP threads; 0 = ambient setting
  /// Starting key capacity of the open table. Small values (relative to
  /// the input's distinct-key count) force resize storms — deliberately
  /// reachable for tests and the resize-storm bench sweep.
  std::uint64_t initial_capacity = 1024;
  /// Keys each thread inserts per barrier-separated round (the grow check
  /// runs between rounds).
  std::uint64_t round_chunk = 4096;
  /// Load factor of the open table — the storm sweep's probe-length knob
  /// (bench/ext_hash.cpp sweeps it to locate the knee).
  double max_load = 0.5;
  /// Attach ContentionSites to the tables (profile passes only).
  bool telemetry = false;
};

struct DedupResult {
  std::uint64_t distinct = 0;  ///< committed key count
  std::uint64_t grows = 0;     ///< cooperative resizes performed
  std::uint64_t rounds = 0;    ///< barrier-separated insert rounds
};

/// Keys must avoid the all-ones sentinel (throws std::invalid_argument).
[[nodiscard]] DedupResult dedup_caslt(std::span<const std::uint64_t> keys,
                                      const DedupOptions& opts = {});
[[nodiscard]] DedupResult dedup_sort(std::span<const std::uint64_t> keys,
                                     const DedupOptions& opts = {});

}  // namespace crcw::algo
