// OpenTable — the open-addressing core under ConcurrentHashSet and
// ConcurrentHashMap. It is their CRTP base and owns everything the two
// tables share: the bucket array, the control-byte sidecar, the claim and
// find walks, the cooperative migration that grows and reclaims, and the
// telemetry. A table keeps only its slot, its liveness, and its public ops.
//
// Claim walk. The insert race *is* a concurrent write: every thread
// offering key k races one compare-exchange on the first free bucket of
// k's probe chain, exactly one wins, and every loser learns wait-free
// whether the committed key was its own (present) or a stranger's (probe
// on) — ClaimWord's protocol, which is CAS-LT with the empty sentinel in
// the stale-round role. A claimed bucket holds its key until a migration
// drops it, so probe chains can walk through erased keys; each table
// tracks liveness beside the key word.
//
// Sidecar. One byte per bucket beside the array: kCtrlEmpty,
// kCtrlTombstone while the bucket's key is erased, or the key's H2
// fingerprint while it is live (hash_common.hpp). Walks scan it 16 lanes
// per util::Group snapshot and verify only the lanes whose byte could be
// the probed key, so fingerprint-mismatched buckets cost no bucket-line
// traffic. The sidecar is strictly a FILTER: a byte is published with a
// release store only by the thread whose RMW made the liveness transition
// (claim, revive or erase winner), every fingerprint hit is re-verified
// against the atomic key word, and empty/tombstone lanes stay candidates,
// so a stale byte costs an extra verify or group step, never a wrong
// answer. HashConfig::group_probe turns the scan off for A/B runs; the
// sidecar is maintained either way.
//
// Migration. DHash-style cooperative migration, run *between* rounds at
// the PRAM step boundary instead of behind per-bucket locks: one thread
// opens the window, every thread then sweeps chunks of the old array
// claimed from a shared cursor (one RMW per `migrate_chunk` buckets), and
// after the team's barrier one thread swaps the arrays. Writes and the
// sweep never overlap, so the buckets need no migration flags. The sweep
// skips dead buckets, so every migration is also a reclaim: grow_prepare
// sizes the target up from the current array, reclaim_prepare sizes it
// from the live count so a churned table shrinks back.
//
//   serial:   if (t.needs_grow()) t.grow_prepare();
//   parallel: if (t.growing()) t.grow_help();   // every thread
//   barrier
//   serial:   if (t.growing()) t.grow_finish();
//
// or, from serial code with an OpenMP team: t.maybe_grow_parallel().
//
// What a table supplies, through static calls only:
//   Slot                         the bucket type: claim(key, on_cas), key()
//   bool slot_live(i)            liveness of claimed bucket i
//   uint64_t tombstones()        claimed buckets that are not live
//   void clear_tombstones()      after a swap, every bucket is live
//   static void carry(from, to)  what a migrated slot carries beside its key
// plus its public ops, built on claim_slot() and find_slot().
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cacheline.hpp"
#include "util/simd.hpp"

namespace crcw::ds {

template <typename Derived, typename Slot>
class OpenTable {
 public:
  using Key = std::remove_const_t<decltype(Slot::kEmptyKey)>;
  static constexpr Key kEmptyKey = Slot::kEmptyKey;

  OpenTable(const OpenTable&) = delete;
  OpenTable& operator=(const OpenTable&) = delete;

  [[nodiscard]] std::uint64_t bucket_count() const noexcept { return buckets_.size(); }
  /// Live keys only: claimed buckets minus tombstones. Exact from serial
  /// code or post-barrier.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return occupied() - self().tombstones();
  }
  /// Claimed buckets, live or dead — what probe-chain length (and thus
  /// needs_grow) actually depends on.
  [[nodiscard]] std::uint64_t occupied() const noexcept { return occupied_.total(); }
  [[nodiscard]] const HashConfig& config() const noexcept { return cfg_; }

  // -- cooperative migration: grow and tombstone reclaim --------------------

  /// True once claimed buckets exceed cfg.max_load — tombstones count,
  /// because they lengthen probe chains exactly like live keys. Serial or
  /// post-barrier.
  [[nodiscard]] bool needs_grow() const noexcept {
    return static_cast<double>(occupied()) >
           cfg_.max_load * static_cast<double>(buckets_.size());
  }

  /// Tombstone-ratio watermark (HashConfig::reclaim_ratio), checked at
  /// step boundaries like needs_grow. The band between the two thresholds
  /// is the hysteresis that keeps churny workloads from alternating
  /// grow/shrink every step.
  [[nodiscard]] bool needs_reclaim() const noexcept {
    const std::uint64_t dead = self().tombstones();
    return dead > 0 && static_cast<double>(dead) >=
                           cfg_.reclaim_ratio * static_cast<double>(buckets_.size());
  }

  /// Serial: allocates the next array (factor × buckets) and opens the
  /// migration window.
  void grow_prepare(std::uint64_t factor = 2) {
    if (factor < 2) factor = 2;
    migration_prepare(bucket_count_for(buckets_.size() * factor));
  }

  /// Serial: opens a migration sized for the live keys, so the sweep drops
  /// every tombstone and the array shrinks back toward size()/max_load.
  /// The target keeps max_load headroom, so the rebuilt table is never
  /// immediately grow-worthy.
  void reclaim_prepare() {
    migration_prepare(bucket_count_for(required_buckets(size(), cfg_.max_load)));
  }

  [[nodiscard]] bool growing() const noexcept { return migration_ != nullptr; }

  /// Any thread, repeatedly until it returns: claims chunks of the old
  /// bucket array from the shared cursor and re-inserts every live bucket
  /// into the next array, carrying what the table's slot carries. Dead
  /// buckets are dropped — nothing can revive them mid-sweep, since writes
  /// never overlap migrations. Lock-free: one fetch_add per chunk, one
  /// claim CAS per live bucket, and a stalled helper blocks nobody — the
  /// chunks it claimed are its own. Returns when the cursor is exhausted
  /// (which does NOT mean every chunk is migrated — the caller's barrier
  /// before grow_finish() establishes that).
  void grow_help() {
    Migration& mig = *migration_;
    const std::uint64_t end = buckets_.size();
    for (;;) {
      const std::uint64_t begin = mig.cursor.fetch_add(cfg_.migrate_chunk,
                                                       std::memory_order_relaxed);
      if (begin >= end) return;
      telemetry_.chunk_claim();
      const std::uint64_t stop = std::min(begin + cfg_.migrate_chunk, end);
      std::uint64_t moved = 0;
      std::uint64_t dropped = 0;
      std::uint64_t probes = 0;
      for (std::uint64_t i = begin; i < stop; ++i) {
        const Key k = buckets_[i].key();
        if (k == kEmptyKey) continue;
        if (!self().slot_live(i)) {
          ++dropped;
          continue;
        }
        Derived::carry(buckets_[i], migrate_into(mig, k, probes));
        ++moved;
      }
      if (moved > 0) mig.live_moved.fetch_add(moved, std::memory_order_relaxed);
      if (dropped > 0) mig.dropped.fetch_add(dropped, std::memory_order_relaxed);
      if (probes > 0) telemetry_.probes(probes);  // one flush per chunk
      telemetry_.migrated(stop - begin);
    }
  }

  /// Serial, after every helper has passed the barrier: installs the next
  /// array. It holds exactly the migrated live keys, so the occupancy
  /// counter resets to that truth and the table clears its tombstones.
  void grow_finish() {
    assert(growing() && "grow_finish without grow_prepare");
    assert(migration_->cursor.load(std::memory_order_relaxed) >= buckets_.size() &&
           "grow_finish before the migration sweep completed");
    buckets_ = std::move(migration_->buckets);
    ctrl_ = std::move(migration_->ctrl);
    mask_ = migration_->mask;
    occupied_.reset();
    occupied_.add(migration_->live_moved.load(std::memory_order_relaxed));
    self().clear_tombstones();
    telemetry_.reclaimed(migration_->dropped.load(std::memory_order_relaxed));
    migration_.reset();
  }

  /// Serial convenience: the whole protocol over an OpenMP team.
  /// `threads <= 0` means the ambient OpenMP default.
  void grow_parallel(int threads = 0, std::uint64_t factor = 2) {
    grow_prepare(factor);
    migrate_parallel(threads);
  }

  /// Serial: grows iff needed; returns whether it grew.
  bool maybe_grow_parallel(int threads = 0, std::uint64_t factor = 2) {
    if (!needs_grow()) return false;
    grow_parallel(threads, factor);
    return true;
  }

  /// Cooperative rebuild toward the live count: drops every tombstone and
  /// shrinks the array if churn left it oversized.
  void reclaim_parallel(int threads = 0) {
    reclaim_prepare();
    migrate_parallel(threads);
  }

  /// Watermark-gated reclaim for step boundaries. Returns true iff a
  /// rebuild ran.
  bool maybe_reclaim_parallel(int threads = 0) {
    if (!needs_reclaim()) return false;
    reclaim_parallel(threads);
    return true;
  }

  /// Forwards to the one-argument form; kept only for the call in
  /// perfbench/src/ladder.cpp (ReclaimSignal).
  bool maybe_reclaim_parallel(int threads, ReclaimSignal) {
    return maybe_reclaim_parallel(threads);
  }

  /// Backlog-sized grow (ROADMAP "resize-storm tail"): one grow sized for
  /// `backlog` further inserts on top of the current occupancy, instead of
  /// a cascade of ×2 grows each re-migrating every key. Returns true iff a
  /// grow ran. Serial/step-boundary only, like every grow entry point.
  /// Sizes from occupied(), not size(): tombstones hold buckets (and
  /// lengthen probes) until a reclaim drops them.
  bool maybe_grow_for_backlog(std::uint64_t backlog, int threads = 0) {
    const std::uint64_t occ = occupied();
    const std::uint64_t demand =
        backlog > std::numeric_limits<std::uint64_t>::max() - occ
            ? std::numeric_limits<std::uint64_t>::max()
            : occ + backlog;
    const std::uint64_t want = bucket_count_for(required_buckets(demand, cfg_.max_load));
    if (want <= buckets_.size()) return false;
    // Both sides are powers of two, so the division is exact — the old
    // `size * factor < want` doubling loop could wrap to 0 for huge
    // backlogs and never terminate.
    grow_parallel(threads, want / buckets_.size());
    return true;
  }

  // -- telemetry ------------------------------------------------------------

  [[nodiscard]] TableTelemetry& telemetry() noexcept { return telemetry_; }

  /// Round boundary hook: counts one round on the table's site.
  /// Serial/post-barrier.
  void flush_round() noexcept { telemetry_.flush_round(); }

  /// Always empty; kept only for the call in perfbench/src/ladder.cpp
  /// (ReclaimSignal).
  [[nodiscard]] ReclaimSignal telemetry_signal() const noexcept { return {}; }

  // -- test/debug introspection (serial or post-barrier only) ---------------

  /// Raw control byte for bucket `i` — lets tests assert the sidecar
  /// invariants (empty / tombstone / fingerprint) across writes, erase,
  /// revive and reclaim without poking at internals.
  [[nodiscard]] std::uint8_t debug_ctrl(std::uint64_t i) const noexcept {
    return ctrl_[i].load(std::memory_order_acquire);
  }

  /// Index of the bucket claimed by `key` (live or tombstoned), or ~0 if
  /// unclaimed. Always a scalar walk, so it double-checks the group path.
  [[nodiscard]] std::uint64_t debug_bucket_of(Key key) const noexcept {
    std::uint64_t b = mix64(key) & mask_;
    for (std::uint64_t probe = 0; probe <= mask_; ++probe) {
      const Key current = buckets_[b].key();
      if (current == key) return b;
      if (current == kEmptyKey) return ~std::uint64_t{0};
      b = (b + 1) & mask_;
    }
    return ~std::uint64_t{0};
  }

 protected:
  /// Sizes the bucket array so `capacity` keys stay under cfg.max_load.
  OpenTable(std::uint64_t capacity, HashConfig cfg)
      : cfg_(std::move(cfg)),
        telemetry_(cfg_),
        buckets_(bucket_count_for(required_buckets(capacity, cfg_.max_load))),
        ctrl_(buckets_.size()),  // value-initialised atomics = all kCtrlEmpty
        mask_(buckets_.size() - 1) {}
  ~OpenTable() = default;

  static void check_key(Key key) {
    if (key == kEmptyKey) {
      throw std::invalid_argument("ds: the all-ones key is reserved");
    }
  }

  [[nodiscard]] Slot& slot(std::uint64_t i) noexcept { return buckets_[i]; }
  [[nodiscard]] const Slot& slot(std::uint64_t i) const noexcept { return buckets_[i]; }

  /// Sidecar publication by the winner of a liveness transition.
  void publish_live(std::uint64_t i, Key key) noexcept {
    ctrl_[i].store(ctrl_h2(mix64(key)), std::memory_order_release);
  }
  void publish_tombstone(std::uint64_t i) noexcept {
    ctrl_[i].store(kCtrlTombstone, std::memory_order_release);
  }

  /// Where a claim walk ended: its verdict and, unless kFull, the bucket.
  struct Claim {
    SetInsert result;
    std::uint64_t index;
  };

  /// The claim walk. On a fresh claim it returns `claimed(b)`: bucket b is
  /// born live, so its fingerprint is already published and the claim
  /// counted as a win. When `key` already owns bucket b, live or dead
  /// (liveness is the table's concern), it returns `found(b)`. When the
  /// walk exhausted the table it returns `full` — grow, then retry. Every
  /// claim CAS issued, won or lost, counts as an atomic. Throws for the
  /// reserved sentinel key. The outlined walks only report where they
  /// ended; a fresh claim's bookkeeping and the visitors run here, so the
  /// walk loops make no calls and a home-lane claim resolves straight into
  /// the table's own tail. Forced inline: left to GCC, an OpenMP loop of
  /// set inserts called it out of line with the visitor spilled to the
  /// stack, 20–30% slower.
  template <typename R, typename Claimed, typename Found>
  [[gnu::always_inline]] R claim_slot(Key key, R full, Claimed&& claimed, Found&& found) {
    check_key(key);
    assert(!growing() && "write during cooperative migration: missing barrier");
    ProbeStats stats;
    // Home-lane fast path, mirrored from the walks' probe 0. Home is lane
    // zero of both walks and a claim must land on the earliest free lane,
    // so running the one-shot claim protocol on it first changes no
    // arbitration outcome — the common claim resolves in one step without
    // a group snapshot, and only a stranger at home pays for the outlined
    // walk (which re-checks home once, a benign extra probe).
    const std::uint64_t mixed = mix64(key);
    const std::uint64_t home = mixed & mask_;
    ++stats.probes;
    const BucketClaim claim = claim_at(home, key);
    if (claim == BucketClaim::kWon) {
      publish_claim(home, ctrl_h2(mixed));
      telemetry_.walk(stats);
      return claimed(home);
    }
    std::uint64_t b = home;
    if (claim == BucketClaim::kOther) {
      const Claim c = group_probing() ? claim_group(key, stats) : claim_scalar(key, stats);
      if (c.result != SetInsert::kFound) {
        if (c.result == SetInsert::kInserted) publish_claim(c.index, ctrl_h2(mixed));
        telemetry_.walk(stats);
        return c.result == SetInsert::kInserted ? claimed(c.index) : full;
      }
      b = c.index;
    }
    telemetry_.walk(stats);
    return found(b);
  }

  /// The claim walk for callers that want the bucket itself.
  [[gnu::always_inline]] Claim claim_slot(Key key) {
    return claim_slot(
        key, Claim{SetInsert::kFull, 0},
        [](std::uint64_t b) { return Claim{SetInsert::kInserted, b}; },
        [](std::uint64_t b) { return Claim{SetInsert::kFound, b}; });
  }

  /// The find walk: `hit(b)` on the bucket `key` owns (live or dead), or
  /// `miss` when the key is absent. Wait-free; reads only. Lookups tally
  /// nothing; a walk that reports its probes passes a ProbeStats and
  /// flushes it itself.
  template <typename R, typename Hit>
  [[nodiscard, gnu::always_inline]] R find_slot(Key key, R miss, Hit&& hit) const {
    NoProbeStats none;
    return find_slot(key, miss, hit, none);
  }
  template <typename R, typename Hit, typename Stats>
  [[nodiscard, gnu::always_inline]] R find_slot(Key key, R miss, Hit&& hit,
                                                Stats& stats) const {
    if (key == kEmptyKey) return miss;
    // Home-bucket fast path against the authoritative word — exactly the
    // scalar walk's first step, shared by both probe modes so the common
    // case inlines small at every call site. A match is a hit; an empty
    // home is a sound miss (a displaced key implies its home was claimed
    // at insert time, and buckets never unclaim outside barrier-separated
    // migrations, so key-elsewhere ⇒ home non-empty). Only a stranger at
    // home pays for the outlined walk.
    const std::uint64_t mixed = mix64(key);
    const std::uint64_t home = mixed & mask_;
    ++stats.probes;
    const Key at_home = buckets_[home].key();
    if (at_home == key) return hit(home);
    if (at_home == kEmptyKey) return miss;
    return find_displaced(key, mixed, home, miss, hit, stats);
  }

 private:
  struct Migration {
    util::AlignedBuffer<Slot> buckets;
    util::AlignedBuffer<std::atomic<std::uint8_t>> ctrl;
    std::uint64_t mask = 0;
    alignas(util::kCacheLineSize) std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> live_moved{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  [[nodiscard]] Derived& self() noexcept { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& self() const noexcept {
    return static_cast<const Derived&>(*this);
  }

  [[nodiscard]] bool group_probing() const noexcept {
    return cfg_.group_probe && buckets_.size() >= util::kGroupWidth;
  }

  void migration_prepare(std::uint64_t target_buckets) {
    assert(!growing() && "migration_prepare while a migration is already open");
    auto mig = std::make_unique<Migration>();
    mig->buckets = util::AlignedBuffer<Slot>(target_buckets);
    mig->ctrl = util::AlignedBuffer<std::atomic<std::uint8_t>>(target_buckets);
    mig->mask = mig->buckets.size() - 1;
    migration_ = std::move(mig);
  }

  void migrate_parallel(int threads) {
#pragma omp parallel num_threads(threads > 0 ? threads : omp_get_max_threads())
    grow_help();
    // The implicit barrier at parallel-region end is the protocol barrier.
    grow_finish();
  }

  /// Migration insert: helpers never offer the same key twice (keys are
  /// unique in the old array), so the claim either wins or probes past a
  /// different key, and the target (sized for every live key at max_load
  /// ≤ 1) cannot fill. The sweep probes scalar (keys arrive deduplicated
  /// and the target is sparse, so group filtering buys little) but still
  /// seeds the target's control bytes — relaxed, because grow_finish's
  /// barrier publishes the whole array — so the first post-swap walk finds
  /// a fully populated sidecar. Probe counts accumulate in `probes` and
  /// flush once per chunk from grow_help. Returns the claimed slot for the
  /// table's carry().
  Slot& migrate_into(Migration& mig, Key key, std::uint64_t& probes) {
    const std::uint64_t mixed = mix64(key);
    std::uint64_t b = mixed & mig.mask;
    for (;;) {
      ++probes;
      const BucketClaim claim = mig.buckets[b].claim(key, [this] { telemetry_.cas(); });
      if (claim == BucketClaim::kWon) {
        mig.ctrl[b].store(ctrl_h2(mixed), std::memory_order_relaxed);
        return mig.buckets[b];
      }
      assert(claim == BucketClaim::kOther && "duplicate key in migration sweep");
      b = (b + 1) & mig.mask;
    }
  }

  BucketClaim claim_at(std::uint64_t b, Key key) noexcept {
    return buckets_[b].claim(key, [this] { telemetry_.cas(); });
  }

  /// A fresh claim's bookkeeping: the winner seeds the fingerprint byte
  /// (fresh claims are born live) before anyone can observe the key as
  /// present through the sidecar — though observing it through a stale
  /// empty byte first is fine too, since empty lanes are always verified.
  void publish_claim(std::uint64_t b, std::uint8_t fp) noexcept {
    ctrl_[b].store(fp, std::memory_order_release);
    telemetry_.win();
    occupied_.add(1);
  }

  /// A walk's verdict on a candidate bucket that did not say kOther. The
  /// walks leave a fresh claim's bookkeeping to claim_slot, so their
  /// loops make no calls and keep the walk state in registers.
  static Claim resolve_claim(BucketClaim claim, std::uint64_t b) noexcept {
    return {claim == BucketClaim::kHeld ? SetInsert::kFound : SetInsert::kInserted, b};
  }

  /// Scalar claim walk (sub-group tables and the group_probe=OFF A/B
  /// lever). Identical arbitration to the group walk; probe telemetry
  /// accumulates in `stats` instead of paying one sharded RMW per bucket.
  [[gnu::noinline]] Claim claim_scalar(Key key, ProbeStats& stats) {
    std::uint64_t b = mix64(key) & mask_;
    for (std::uint64_t probe = 0; probe <= mask_; ++probe) {
      ++stats.probes;
      const BucketClaim claim = claim_at(b, key);
      if (claim != BucketClaim::kOther) return resolve_claim(claim, b);
      b = (b + 1) & mask_;
    }
    return {SetInsert::kFull, 0};
  }

  /// Group claim walk: verify only the lanes whose control byte is the
  /// key's fingerprint, a tombstone, or empty, re-running the one-shot
  /// claim protocol verbatim, so the arbitration outcome is bit-for-bit
  /// the scalar walk's. A lane whose byte matched the fingerprint but
  /// whose claim says kOther is a verified H2 false positive.
  [[gnu::noinline]] Claim claim_group(Key key, ProbeStats& stats) {
    const std::uint64_t mixed = mix64(key);
    const std::uint8_t fp = ctrl_h2(mixed);
    GroupWalk walk(mixed & mask_, buckets_.size());
    for (std::uint32_t lanes = walk.first(); !walk.done(); lanes = walk.next()) {
      const util::Group grp = util::Group::load(&ctrl_[walk.base()]);
      ++stats.group_loads;
      const std::uint32_t h2m = grp.match(fp) & lanes;
      std::uint32_t cand = (h2m | grp.match_special()) & lanes;
      while (cand != 0) {
        const auto lane = static_cast<unsigned>(std::countr_zero(cand));
        cand &= cand - 1;
        const std::uint64_t b = walk.base() + lane;
        ++stats.probes;
        const BucketClaim claim = claim_at(b, key);
        if (claim != BucketClaim::kOther) return resolve_claim(claim, b);
        if (((h2m >> lane) & 1u) != 0) ++stats.fps;
      }
    }
    return {SetInsert::kFull, 0};
  }

  /// Displaced-chain tail of find_slot(), outlined (noinline) so the
  /// inlined fast path stays a handful of instructions at every call site.
  /// `home` has already been verified to hold a different key.
  template <typename R, typename Hit, typename Stats>
  [[nodiscard, gnu::noinline]] R find_displaced(Key key, std::uint64_t mixed,
                                                std::uint64_t home, R miss, Hit& hit,
                                                Stats& stats) const {
    if (group_probing()) {
      const std::uint8_t fp = ctrl_h2(mixed);
      GroupWalk walk(home, buckets_.size());
      for (std::uint32_t lanes = walk.first(); !walk.done(); lanes = walk.next()) {
        const util::Group grp = util::Group::load(&ctrl_[walk.base()]);
        ++stats.group_loads;
        // Read-only walk: fingerprint candidates first (a full byte means
        // a permanently claimed bucket, so a key match is authoritative
        // wherever it sits), then the sentinel lanes in order — only they
        // can terminate the chain, and each one is verified against the
        // bucket word so a stale empty hiding this key is still caught.
        std::uint32_t fpm = grp.match(fp) & lanes;
        while (fpm != 0) {
          const std::uint64_t b = walk.base() + std::countr_zero(fpm);
          fpm &= fpm - 1;
          ++stats.probes;
          if (buckets_[b].key() == key) return hit(b);
          ++stats.fps;
        }
        std::uint32_t spec = grp.match_special() & lanes;
        while (spec != 0) {
          const std::uint64_t b = walk.base() + std::countr_zero(spec);
          spec &= spec - 1;
          ++stats.probes;
          const Key current = buckets_[b].key();
          if (current == key) return hit(b);
          if (current == kEmptyKey) return miss;
        }
      }
      return miss;
    }
    std::uint64_t b = (home + 1) & mask_;
    for (std::uint64_t probe = 1; probe <= mask_; ++probe) {
      ++stats.probes;
      const Key current = buckets_[b].key();
      if (current == key) return hit(b);
      if (current == kEmptyKey) return miss;
      b = (b + 1) & mask_;
    }
    return miss;
  }

  HashConfig cfg_;
  TableTelemetry telemetry_;
  util::AlignedBuffer<Slot> buckets_;
  // Control-byte sidecar, one byte per bucket (filter only — see the header
  // comment). Declared after buckets_ to match the ctor init order.
  util::AlignedBuffer<std::atomic<std::uint8_t>> ctrl_;
  std::uint64_t mask_;
  ShardedCounter occupied_;
  std::unique_ptr<Migration> migration_;
};

}  // namespace crcw::ds
