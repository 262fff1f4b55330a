// Contention telemetry: per-thread sharded counters, aggregated at round
// boundaries — the observability layer the §6 cost argument is measured
// with.
//
// Design constraints, in order:
//   * the hot path (one try_acquire) must not touch a shared cache line —
//     each thread increments its own padded shard, so instrumentation
//     perturbs the contention pattern it measures as little as possible;
//   * counters are INSTANCE-owned (one ContentionSite per WriteArbiter),
//     never static per policy type — two instrumented arbiters in one
//     process count independently and tests cannot leak into each other;
//   * every live site is discoverable through a MetricsRegistry so a
//     harness can snapshot "everything this kernel did" without plumbing
//     references through call chains. Destroyed sites fold their totals
//     into the registry, so short-lived arbiters inside a kernel still
//     report.
//
// Related work: "Lightweight Contention Management for Efficient
// Compare-and-Swap Operations" (PAPERS.md) identifies CAS failure/retry
// counts as the throughput-collapse predictor; ContentionSite counts
// exactly those (attempts / atomics issued / wins; failures = atomics -
// wins).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"

namespace crcw::obs {

/// Aggregated view of one contention site (or a whole registry).
struct ContentionTotals {
  std::uint64_t attempts = 0;  ///< try_acquire calls (contenders arriving)
  std::uint64_t atomics = 0;   ///< atomic RMWs actually issued
  std::uint64_t wins = 0;      ///< writes admitted
  std::uint64_t rounds = 0;    ///< round boundaries flushed through the site
  /// SlotAllocator shared-cursor refills (one fetch_add granting a chunk).
  /// atomics counts the same events for slot sites, so refills/atomics
  /// separates "RMWs on the shared line" from per-slot work.
  std::uint64_t refills = 0;
  /// Tags re-initialised by round-reset sweeps — Θ(N)·rounds for the
  /// gatekeeper sweep (the §6 cost CAS-LT does not pay).
  std::uint64_t reset_tags = 0;
  /// Erase commits (ds tables): each is one CAS-LT tombstone write, so
  /// tombstones == erase wins and tombstones ≤ atomics for a table site.
  std::uint64_t tombstones = 0;
  /// Dead entries dropped by reclaim/shrink sweeps (ds tables).
  std::uint64_t reclaimed = 0;
  /// Control-byte groups scanned by SIMD probe walks (ds tables): one per
  /// 16-bucket step, so group_loads·16 bounds the buckets *filtered* while
  /// attempts counts the buckets actually *verified* — their ratio is the
  /// probe-bandwidth saving the sidecar buys.
  std::uint64_t group_loads = 0;
  /// H2 fingerprint hits whose bucket verification found a different key —
  /// the filter's false positives (expected ≈ occupancy/128 per group).
  std::uint64_t fingerprint_fps = 0;
  /// Probe-length quantile upper bounds (buckets verified per table
  /// operation; power-of-two bucketed). NOT additive: operator+= keeps the
  /// max, so a registry merge reports the worst site's distribution tail.
  std::uint64_t probe_p50 = 0;
  std::uint64_t probe_p99 = 0;

  /// Atomic RMWs that did not admit a write — the paper's "failed races"
  /// and the gatekeeper's serialised losers. Saturates at 0: sites whose
  /// wins are tallied elsewhere than their RMWs (registry-level merges of
  /// tag sites with slot sites) must not wrap to 2^64-ish garbage.
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return atomics >= wins ? atomics - wins : 0;
  }

  ContentionTotals& operator+=(const ContentionTotals& o) noexcept {
    attempts += o.attempts;
    atomics += o.atomics;
    wins += o.wins;
    rounds += o.rounds;
    refills += o.refills;
    reset_tags += o.reset_tags;
    tombstones += o.tombstones;
    reclaimed += o.reclaimed;
    group_loads += o.group_loads;
    fingerprint_fps += o.fingerprint_fps;
    probe_p50 = probe_p50 > o.probe_p50 ? probe_p50 : o.probe_p50;
    probe_p99 = probe_p99 > o.probe_p99 ? probe_p99 : o.probe_p99;
    return *this;
  }
  friend bool operator==(const ContentionTotals&, const ContentionTotals&) = default;
};

/// Power-of-two-bucketed histogram of uint64 samples (bucket 0 holds value
/// 0, bucket k holds [2^(k-1), 2^k)). Recording is a relaxed increment of
/// one bucket — safe from any thread; readers race benignly with writers
/// and see a consistent-enough view for reporting.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;
  /// Plain per-bucket tallies: a hot path counts into its own array
  /// (`++counts[bucket_index(v)]`) and folds it in with one add().
  using Counts = std::array<std::uint64_t, kBuckets>;

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  }
  /// Bulk add: counts[i] more samples in bucket i, one relaxed RMW per
  /// non-zero bucket — so the shared buckets see one RMW per fold, not one
  /// per sample.
  void add(const Counts& counts) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts[i] != 0) buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Inclusive upper bound of bucket i (the largest value it can hold).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  /// Upper bound of the bucket containing the p-quantile (p in [0,1]);
  /// 0 when empty.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double p) const noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

class MetricsRegistry;

/// Returns the registry new ContentionSites attach to: the innermost live
/// ScopedRegistry on this thread, else the process-global registry.
[[nodiscard]] MetricsRegistry& current_registry() noexcept;

/// One instrumented contention domain — typically owned by one
/// WriteArbiter. Hot-path counting lands in a per-thread shard (padded, no
/// shared lines up to kShards concurrent threads); totals() sums shards on
/// demand; flush_round() counts one round at the PRAM step boundary.
class ContentionSite {
 public:
  static constexpr std::size_t kShards = 32;

  explicit ContentionSite(std::string name);
  ~ContentionSite();

  ContentionSite(const ContentionSite&) = delete;
  ContentionSite& operator=(const ContentionSite&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // -- hot path (any thread) ------------------------------------------------
  void count_attempt() noexcept {
    shard().attempts.fetch_add(1, std::memory_order_relaxed);
  }
  void count_atomic() noexcept { shard().atomics.fetch_add(1, std::memory_order_relaxed); }
  void count_win() noexcept { shard().wins.fetch_add(1, std::memory_order_relaxed); }

  // -- bulk adders (any thread) ---------------------------------------------
  // For code that keeps private tallies on its own hot path (SlotAllocator
  // lanes, reset sweeps) and folds them in once per run/round.
  void add_attempts(std::uint64_t k) noexcept {
    shard().attempts.fetch_add(k, std::memory_order_relaxed);
  }
  void add_atomics(std::uint64_t k) noexcept {
    shard().atomics.fetch_add(k, std::memory_order_relaxed);
  }
  void add_wins(std::uint64_t k) noexcept {
    shard().wins.fetch_add(k, std::memory_order_relaxed);
  }
  void add_refills(std::uint64_t k) noexcept {
    shard().refills.fetch_add(k, std::memory_order_relaxed);
  }
  void add_reset_tags(std::uint64_t k) noexcept {
    shard().reset_tags.fetch_add(k, std::memory_order_relaxed);
  }
  void add_tombstones(std::uint64_t k) noexcept {
    shard().tombstones.fetch_add(k, std::memory_order_relaxed);
  }
  void add_reclaimed(std::uint64_t k) noexcept {
    shard().reclaimed.fetch_add(k, std::memory_order_relaxed);
  }

  /// Probe-length sampling stride for record_walk(): the histogram sees
  /// one op in 64, which keeps its (shared, unsharded) buckets off the
  /// table hot path entirely in the steady state.
  static constexpr std::uint64_t kProbeSampleEvery = 64;

  /// Batched flush of one table operation's probe walk: a single RMW on
  /// the caller's shard covers the attempt count, and its returned
  /// pre-value decides 1-in-64 probe-length sampling — the decision
  /// depends only on *prior* attempts, never on this walk's own length,
  /// so ops are sampled uniformly (no length bias) and the histogram's
  /// quantiles stay unbiased; quantiles are scale-invariant, so no
  /// count rescaling is needed anywhere. A site's first op always
  /// samples (prior == 0), keeping small serial workloads visible.
  /// Zero-valued group/fingerprint tallies skip their RMWs.
  void record_walk(std::uint64_t probes, std::uint64_t group_loads,
                   std::uint64_t fingerprint_fps) noexcept {
    Shard& sh = shard();
    const std::uint64_t prior = sh.attempts.fetch_add(probes, std::memory_order_relaxed);
    if (group_loads > 0) sh.group_loads.fetch_add(group_loads, std::memory_order_relaxed);
    if (fingerprint_fps > 0) {
      sh.fingerprint_fps.fetch_add(fingerprint_fps, std::memory_order_relaxed);
    }
    if ((prior & (kProbeSampleEvery - 1)) == 0) probe_lengths_.record(probes);
  }

  // -- round boundary (serial code between parallel regions) ---------------
  /// Counts one round. Call between parallel regions — the same place the
  /// round counter itself advances.
  void flush_round() noexcept { rounds_.fetch_add(1, std::memory_order_relaxed); }

  // -- reporting ------------------------------------------------------------
  [[nodiscard]] ContentionTotals totals() const noexcept;
  [[nodiscard]] const Histogram& probe_lengths() const noexcept { return probe_lengths_; }

  /// Zeroes counters and the probe-length histogram. Not safe
  /// concurrently with the hot path.
  void reset() noexcept;

 private:
  struct alignas(util::kCacheLineSize) Shard {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> atomics{0};
    std::atomic<std::uint64_t> wins{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> reset_tags{0};
    std::atomic<std::uint64_t> tombstones{0};
    std::atomic<std::uint64_t> reclaimed{0};
    std::atomic<std::uint64_t> group_loads{0};
    std::atomic<std::uint64_t> fingerprint_fps{0};
  };
  // Nine counters outgrew one line; what matters is that shards never
  // SHARE a line, which alignas keeps true at any padded multiple.
  static_assert(sizeof(Shard) % util::kCacheLineSize == 0);
  static_assert(alignof(Shard) == util::kCacheLineSize);

  [[nodiscard]] Shard& shard() noexcept;

  Shard shards_[kShards];
  std::atomic<std::uint64_t> rounds_{0};
  Histogram probe_lengths_;
  std::string name_;
  MetricsRegistry* registry_;
};

/// Tracks every live ContentionSite plus the folded totals of destroyed
/// ones, so `totals()` answers "all contention this registry has seen".
/// Thread-safe; sites attach in their constructor and detach (folding
/// their totals) in their destructor.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry (default attach target).
  [[nodiscard]] static MetricsRegistry& global();

  void attach(ContentionSite& site);
  void detach(ContentionSite& site);

  /// Sum over live sites and retained totals of destroyed sites.
  [[nodiscard]] ContentionTotals totals() const;

  /// Per-name totals (same-named sites merged), retained first, then live,
  /// in attach order — deterministic for a deterministic program.
  [[nodiscard]] std::vector<std::pair<std::string, ContentionTotals>> snapshot() const;

  [[nodiscard]] std::size_t live_sites() const;

  /// Resets live sites and drops retained totals.
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<ContentionSite*> sites_;
  std::vector<std::pair<std::string, ContentionTotals>> retained_;
};

/// Redirects ContentionSites constructed on this thread to `r` for the
/// scope's lifetime; nests. Lets a harness profile one kernel run into a
/// private registry without disturbing the global one.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricsRegistry& r) noexcept;
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace crcw::obs
