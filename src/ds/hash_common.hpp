// Shared vocabulary of the ds/ hash tables: the key mixer, probe/capacity
// arithmetic, sharded size counters, and the telemetry knob.
//
// Layering: ds/ sits on core/ (ClaimWord, TaggedBucket, LiveTag) and
// util/, and reports into obs/ the same way the arbiters do — through a
// ContentionSite, so table probes/migrations land in the same
// MetricsRegistry snapshots and BENCH_*.json counters as the CW kernels.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/cacheline.hpp"
#include "util/simd.hpp"

namespace crcw::ds {

/// splitmix64's finalizer (util/rng.hpp uses the same constants inside
/// SplitMix64::next): a full-avalanche 64-bit mixer, so linear probing over
/// a power-of-two table sees well-spread home slots even for sequential
/// keys. test_rng.cpp's avalanche smoke test pins the quality claim.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded variant: used when a table rehashes into a different bucket
/// permutation (DHash's "change the hash function" move) and by the
/// avalanche test to decorrelate streams.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x, std::uint64_t seed) noexcept {
  return mix64(x + 0x9e3779b97f4a7c15ull * seed);
}

/// Smallest power of two >= max(n, 2) — bucket counts stay pow2 so the
/// probe sequence can mask instead of mod. Requests beyond 2^63 clamp to
/// 2^63 (the largest representable power of two) instead of hitting
/// std::bit_ceil's not-representable undefined behaviour; a table that big
/// cannot be allocated anyway, so the clamp only keeps sizing arithmetic
/// on huge backlogs well-defined.
[[nodiscard]] constexpr std::uint64_t bucket_count_for(std::uint64_t n) noexcept {
  constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 63;
  if (n >= kMaxBuckets) return kMaxBuckets;
  return std::bit_ceil(n < 2 ? std::uint64_t{2} : n);
}

/// Buckets needed so `capacity` keys sit at or below `max_load` — a
/// *ceiling* division. The truncating `capacity / max_load` this replaces
/// could hand back a power of two one notch too small (e.g. 5 keys at
/// max_load 0.6 → trunc(8.33) = 8 buckets = load 0.625), so a freshly
/// constructed table already violated its load factor and needs_grow()
/// fired before the first insert. The post-ceil correction loop absorbs
/// the double-rounding edge where ceil() lands exactly on a value whose
/// product with max_load still reads below capacity.
[[nodiscard]] inline std::uint64_t required_buckets(std::uint64_t capacity,
                                                    double max_load) {
  if (max_load <= 0.0 || max_load > 1.0) {
    throw std::invalid_argument("ds: max_load must be in (0, 1]");
  }
  if (capacity < 1) capacity = 1;
  auto need = static_cast<std::uint64_t>(static_cast<double>(capacity) / max_load);
  while (static_cast<double>(capacity) > max_load * static_cast<double>(need)) ++need;
  return need;
}

/// String-key adapter: hashes a byte string into the tables' uint64 key
/// space — FNV-1a over the bytes, then the splitmix64 finalizer on top
/// (FNV alone avalanches poorly in the high bits, and the tables derive
/// home slots from the high-quality mix64 of the key anyway, so the
/// finalize keeps distinct short strings from clustering). The all-ones
/// result is remapped: it is the tables' reserved empty sentinel, and a
/// valid string must never hash to it.
[[nodiscard]] constexpr std::uint64_t string_key(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV-1a prime
  }
  h = mix64(h);
  return h == ~std::uint64_t{0} ? 0 : h;
}

// -- edge-key adapter --------------------------------------------------------
// The streaming subsystem (src/stream) stores undirected edges in the
// uint64 key space of these tables: canonical order (min, max) packed as
// hi<<32|lo, so {u,v} and {v,u} collide onto one key and the one-CAS
// arbitration per (key, round) is per *edge*. mix64 on top spreads the
// packed keys across buckets/shards like any other key. The all-ones key
// would be the self-loop at vertex 0xffffffff — callers reject self-loops
// (and vertex ids are bounded well below 2^32), so the tables' reserved
// sentinel stays unreachable.

/// Packs an undirected edge {u, v} into one canonical uint64 key.
[[nodiscard]] constexpr std::uint64_t pack_edge(std::uint32_t u, std::uint32_t v) noexcept {
  const std::uint32_t lo = u < v ? u : v;
  const std::uint32_t hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Unpacks a canonical edge key into (lo, hi) endpoints.
struct EdgeKey {
  std::uint32_t u;  ///< the smaller endpoint
  std::uint32_t v;  ///< the larger endpoint
};
[[nodiscard]] constexpr EdgeKey unpack_edge(std::uint64_t key) noexcept {
  return {static_cast<std::uint32_t>(key), static_cast<std::uint32_t>(key >> 32)};
}

// -- control-byte sidecar vocabulary ----------------------------------------
// The open tables keep one byte per bucket beside the bucket array: a
// 7-bit H2 fingerprint of the owning key (high bit set), or one of two
// reserved control values. Probe walks scan these bytes 16 at a time
// (util::Group) and only touch the bucket line for lanes whose byte could
// be the probed key — a filter, never a source of truth: every hit is
// re-verified against the atomic claim word (docs/architecture.md, "SIMD
// group probing").

/// Control byte of an unclaimed bucket. Zero on purpose: freshly
/// value-initialised sidecars (AlignedBuffer, migration targets) are
/// all-empty with no initialisation sweep.
inline constexpr std::uint8_t kCtrlEmpty = 0x00;
/// Control byte of a claimed-but-erased bucket. Probe walks must keep
/// verifying these lanes (the key still owns the bucket; an insert may
/// revive it), which the candidate masks include explicitly.
inline constexpr std::uint8_t kCtrlTombstone = 0x01;

/// Bit offset of the H2 fingerprint slice inside mix64(key). Chosen so the
/// fingerprint shares no bits with either consumer of the same mixed word:
/// bucket homes use the LOW bits (mix64 & mask — up to bit 38 even for an
/// absurd 2^38-bucket table) and the serve layer's shard router uses bits
/// [32, 39) (ShardedScheduler::shard_of: mix64 >> 32 over ≤ 2^7 shards).
/// Slicing [39, 46) keeps H2 independent of both, so the keys that collide
/// into one probe chain still fan out across fingerprint values —
/// tests/test_hash_probe.cpp pins the independence claim.
inline constexpr unsigned kH2Shift = 39;

/// The 7-bit fingerprint with the high bit set: full bytes can never
/// collide with kCtrlEmpty/kCtrlTombstone.
[[nodiscard]] constexpr std::uint8_t ctrl_h2(std::uint64_t mixed) noexcept {
  return static_cast<std::uint8_t>(0x80u | ((mixed >> kH2Shift) & 0x7Fu));
}

/// Per-operation probe tallies, accumulated in registers during the walk
/// and flushed through TableTelemetry::walk() once at the end — the probe
/// loop itself issues no counter RMWs (the per-bucket probes(1) this
/// replaces was one sharded fetch_add per bucket visited).
struct ProbeStats {
  std::uint64_t probes = 0;       ///< buckets verified or claimed
  std::uint64_t group_loads = 0;  ///< 16-byte control groups snapshot
  std::uint64_t fps = 0;          ///< fingerprint hits that verified false
};

/// ProbeStats' stand-in for walks that report nothing (lookups keep
/// telemetry off the read path): the walk's `++stats.probes` statements
/// compile to nothing.
struct NoProbeStats {
  struct Tally {
    constexpr void operator++() const noexcept {}
  };
  Tally probes, group_loads, fps;
};

/// Cursor over the aligned 16-lane control groups of one probe walk: the
/// first group masks off the lanes before the home bucket (they belong to
/// earlier probe chains), then whole groups follow in wrapping order. The
/// walk revisits the starting group once at the end so the masked-off
/// lanes are still covered — groups()+1 steps visit every lane at least
/// once, which is what makes a kFull verdict sound.
class GroupWalk {
 public:
  GroupWalk(std::uint64_t home, std::uint64_t buckets) noexcept
      : groups_(buckets / util::kGroupWidth),
        group_(home / util::kGroupWidth),
        first_lanes_(~std::uint32_t{0} << (home % util::kGroupWidth)) {}

  /// Lane mask of the current group (call once, before any next()).
  [[nodiscard]] std::uint32_t first() const noexcept { return first_lanes_; }
  /// Advances to the next group (wrapping past the last) and returns its
  /// lane mask (all lanes — only the first group is partial).
  [[nodiscard]] std::uint32_t next() noexcept {
    ++steps_;
    group_ = group_ + 1 == groups_ ? 0 : group_ + 1;
    return ~std::uint32_t{0};
  }
  /// True once every group (plus the wrap revisit) has been offered.
  [[nodiscard]] bool done() const noexcept { return steps_ > groups_; }
  /// Bucket index of the current group's lane 0.
  [[nodiscard]] std::uint64_t base() const noexcept { return group_ * util::kGroupWidth; }

 private:
  std::uint64_t groups_;
  std::uint64_t group_;
  std::uint64_t steps_ = 0;
  std::uint32_t first_lanes_;
};

/// Outcome of a key insert (set and map build phases share it).
enum class SetInsert {
  kInserted,  ///< this thread committed the key (the arbitration winner)
  kFound,     ///< the key was already present (possibly committed this round
              ///< by a racing thread — the loser observes it wait-free)
  kFull,      ///< the probe walk exhausted the table: grow, then retry
};

/// Empty and inert: the tombstone watermark alone decides reclaim. Kept
/// only so perfbench/src/ladder.cpp's
/// `maybe_reclaim_parallel(threads, table.telemetry_signal())` compiles.
struct ReclaimSignal {};

/// Construction-time knobs shared by the ds/ tables.
struct HashConfig {
  /// Bucket count = bucket_count_for(capacity / max_load) so `capacity`
  /// keys fit below the load factor that keeps linear probing short.
  double max_load = 0.5;
  /// Buckets migrated per shared-cursor claim during cooperative resize
  /// (the chunked sweep; one RMW per chunk, like SlotAllocator grants).
  std::uint64_t migrate_chunk = 256;
  /// Tombstone-ratio watermark: needs_reclaim() fires once dead buckets
  /// make up this fraction of the table. Checked at step boundaries only
  /// (like needs_grow); 0.25 leaves a hysteresis band below max_load so a
  /// reclaim sweep is never immediately followed by a backlog grow.
  double reclaim_ratio = 0.25;
  /// Probe via the control-byte sidecar, 16 buckets per group load (the
  /// default path). OFF forces the scalar bucket-at-a-time walk — the
  /// A/B lever bench/micro_probe.cpp and the equivalence tests use; the
  /// sidecar is maintained either way, so flipping the knob between runs
  /// of the same workload is safe. Tables smaller than one group always
  /// walk scalar regardless.
  bool group_probe = true;
  /// Attach a ContentionSite and count probes/CASes/migrations. For
  /// profile passes only — counting costs sharded RMWs (see
  /// InstrumentedPolicy's caveat).
  bool telemetry = false;
  /// Site name when telemetry is on.
  std::string site_name = "hash";
};

/// Table occupancy counter, sharded like obs::ContentionSite so concurrent
/// inserts never bounce one line. total() is serial/post-barrier exact.
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 32;

  void add(std::uint64_t k) noexcept {
    shards_[shard_index()].value.fetch_add(k, std::memory_order_relaxed);
  }

  /// Decrement by k. Shards are unsigned and may individually wrap (a
  /// thread can erase keys another shard counted) — only total()'s sum is
  /// meaningful, and modular arithmetic makes the sum exact regardless of
  /// which shard absorbed the subtraction.
  void sub(std::uint64_t k) noexcept {
    shards_[shard_index()].value.fetch_sub(k, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto& s : shards_) t += s.value.load(std::memory_order_relaxed);
    return t;
  }

  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(util::kCacheLineSize) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  /// Dense thread index, recycled mod kShards (same contract as
  /// ContentionSite: collisions degrade to sharing, never to wrong counts).
  [[nodiscard]] static std::size_t shard_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
    return index % kShards;
  }

  Shard shards_[kShards];
};

/// The telemetry half every table embeds: a lazily constructed
/// ContentionSite plus inline no-op-when-off recorders. Counter mapping
/// (documented in docs/architecture.md "ds layer"):
///   attempts   buckets verified/claimed by probe walks (group probing
///              skips fingerprint-mismatched buckets entirely, so at equal
///              workload a lower attempts count at unchanged CAS/win
///              counts is the SIMD saving; attempts/wins = mean verified
///              probe length)
///   atomics    every claim CAS issued (won or lost), tag CASes and
///              liveness-bit RMWs
///   wins       fresh bucket claims, plus revives of erased keys by the
///              build-phase inserts (set insert, map insert_first)
///   refills    migration chunk claims from the shared sweep cursor
///   reset_tags buckets migrated by resize sweeps
///   tombstones erase commits (one CAS each; the churn benches divide by
///              erase count to pin the one-CAS-per-(key,round) claim)
///   reclaimed  dead buckets/nodes dropped by reclaim sweeps
///   group_loads / fingerprint_fps
///              sidecar group snapshots and H2 false positives (walk())
class TableTelemetry {
 public:
  explicit TableTelemetry(const HashConfig& cfg) {
    if (cfg.telemetry) site_ = std::make_unique<obs::ContentionSite>(cfg.site_name);
  }

  void probes(std::uint64_t k) noexcept {
    if (site_) site_->add_attempts(k);
  }
  /// One probe walk's locally accumulated tallies, flushed in a single
  /// visit (≤ 3 shard RMWs + 1 histogram bump per OPERATION, not per
  /// bucket). Also feeds the probe-length histogram behind the
  /// probe_p50/p99 of totals(). The flush itself is outlined, like the
  /// per-CAS and per-win counts below: a table op inlines only the site
  /// test, which keeps the ops and walks small enough for GCC to keep
  /// their state in registers and inline them into callers' loops.
  void walk(const ProbeStats& s) noexcept {
    if (site_) record_walk(s);
  }
  void cas() noexcept {
    if (site_) count_atomic();
  }
  void win() noexcept {
    if (site_) count_win();
  }
  void chunk_claim() noexcept {
    if (site_) site_->add_refills(1);
  }
  void migrated(std::uint64_t buckets) noexcept {
    if (site_ && buckets > 0) site_->add_reset_tags(buckets);
  }
  void tombstone() noexcept {
    if (site_) site_->add_tombstones(1);
  }
  void reclaimed(std::uint64_t entries) noexcept {
    if (site_ && entries > 0) site_->add_reclaimed(entries);
  }
  void flush_round() noexcept {
    if (site_) site_->flush_round();
  }

  [[nodiscard]] obs::ContentionSite* site() noexcept { return site_.get(); }

 private:
  [[gnu::noinline]] void record_walk(const ProbeStats& s) noexcept {
    site_->record_walk(s.probes, s.group_loads, s.fps);
  }
  [[gnu::noinline]] void count_atomic() noexcept { site_->count_atomic(); }
  [[gnu::noinline]] void count_win() noexcept { site_->count_win(); }

  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw::ds
