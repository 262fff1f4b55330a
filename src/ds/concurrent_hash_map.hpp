// ConcurrentHashMap — open addressing over TaggedBucket: the key claim
// arbitrates which key owns a bucket (arbitrary-CW insert race, as in
// ConcurrentHashSet) and the bucket's LiveTag arbitrates which *write* —
// upsert or erase — commits per round (paper-faithful CAS-LT, as in
// ConWriteCell). The two arbitrations compose: for N threads upserting
// and erasing the same key in round r, exactly one claims the bucket (if
// it was empty) and exactly one — not necessarily the same thread — wins
// the round-r write; everyone else returns kLost wait-free and reads the
// committed outcome after the step barrier.
//
// Values are plain (non-atomic) payloads published by the step barrier,
// the exact ConWriteCell contract: find() is valid from serial code or
// after the barrier that closed the writing round, not mid-round.
//
// Lifecycle: an erase commits a *tombstone* — the key keeps its bucket
// (probe chains must keep walking through it) but the LiveTag's liveness
// bit goes dead, so find()/size() no longer see it while a later round's
// upsert can revive it in place. Tombstones are reclaimed by the same
// cooperative chunk-swept migration that grows the table, run toward a
// target sized from the live count: dead buckets are simply not migrated.
// Dropping them is sound because migrations happen between rounds and
// rounds are strictly increasing, so a dropped bucket's committed round
// can never be raced again. needs_reclaim() watches the tombstone-ratio
// watermark (HashConfig::reclaim_ratio) for the step-boundary trigger.
//
// The probe walks, the control-byte sidecar (a bucket's byte reads
// kCtrlTombstone while its LiveTag is dead) and the grow/reclaim migration
// are OpenTable's (open_table.hpp). A map slot is a TaggedBucket plus the
// value, and a migrated slot carries its value and packed (round, live)
// word, so post-migration CAS-LT writes keep refusing committed rounds.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "ds/open_table.hpp"
#include "util/sanitizer.hpp"

namespace crcw::ds {

/// Outcome of a round-arbitrated upsert or erase.
enum class MapUpsert {
  kWon,   ///< this thread's write is the round's committed one
  kLost,  ///< another thread won this (key, round); read it post-barrier
  kFull,  ///< probe walk exhausted: grow, then retry
};

/// A map bucket: the key claim and its LiveTag, then the barrier-published
/// value.
template <typename Key, typename Value>
struct MapSlot : TaggedBucket<Key> {
  Value value{};
};

template <typename Key, typename Value>
  requires std::unsigned_integral<Key> && std::is_nothrow_default_constructible_v<Value>
class ConcurrentHashMap
    : public OpenTable<ConcurrentHashMap<Key, Value>, MapSlot<Key, Value>> {
  using Base = OpenTable<ConcurrentHashMap<Key, Value>, MapSlot<Key, Value>>;
  using Slot = MapSlot<Key, Value>;

 public:
  explicit ConcurrentHashMap(std::uint64_t capacity, HashConfig cfg = {})
      : Base(capacity, std::move(cfg)) {}

  /// Current tombstones (erased keys still holding their buckets).
  [[nodiscard]] std::uint64_t tombstones() const noexcept { return dead_.total(); }

  /// First-writer-wins insert (no round): the claim winner — or, for a
  /// tombstoned key, the winner of the idempotent revive — stores `v`;
  /// everyone else observes the key as present. This is the build-phase
  /// primitive (semijoin's arbitrary pick among duplicate build keys).
  /// Returns kInserted for the winner, kFound otherwise; value is
  /// barrier-published.
  SetInsert insert_first(Key key, const Value& v) {
    const auto [r, b] = this->claim_slot(key);
    if (r == SetInsert::kFull) return r;
    Slot& slot = this->slot(b);
    if (r == SetInsert::kFound) {
      if (slot.tag().live()) return r;
      this->telemetry().cas();
      if (!slot.tag().mark_live()) return r;  // revive: first flipper wins
      dead_.sub(1);
      this->publish_live(b, key);
      this->telemetry().win();
    }
    // Fresh claims are born live (LiveTag's polarity): the build-phase
    // fast path is one CAS plus the barrier-published store, no tag RMW.
    const util::TsanIgnoreWritesScope published_by_barrier;
    slot.value = v;
    return SetInsert::kInserted;
  }

  /// Round-arbitrated upsert: claims the bucket if empty, then races the
  /// bucket's LiveTag with CAS-LT for round `round`. One winner per
  /// (key, round) — among upserts AND erases — stores `v`; rounds must be
  /// strictly increasing per the LiveTag contract (use one counter per
  /// map, advanced between barriers).
  MapUpsert upsert(round_t round, Key key, const Value& v) {
    Slot* slot = nullptr;
    const MapUpsert r = write(round, key, /*live=*/true, slot);
    if (r == MapUpsert::kWon) {
      const util::TsanIgnoreWritesScope published_by_barrier;
      slot->value = v;
    }
    return r;
  }

  /// Winner-computes upsert: the factory runs only in the winning thread.
  template <typename Factory>
    requires std::is_invocable_r_v<Value, Factory>
  MapUpsert upsert_with(round_t round, Key key, Factory&& make) {
    Slot* slot = nullptr;
    const MapUpsert r = write(round, key, /*live=*/true, slot);
    if (r == MapUpsert::kWon) {
      Value made = std::forward<Factory>(make)();
      const util::TsanIgnoreWritesScope published_by_barrier;
      slot->value = std::move(made);
    }
    return r;
  }

  /// Round-arbitrated erase: the same CAS-LT race as upsert, committing a
  /// tombstone instead of a value. One winner per (key, round) across both
  /// op kinds — a same-round erase/upsert pair on one key resolves to
  /// whichever CAS landed, exactly the paper's arbitrary-CW pick. Erasing
  /// an absent key claims (and immediately tombstones) a bucket so the
  /// arbitration stays symmetric — a same-round upsert loser must observe
  /// the erase's commit on the key's tag; the wasted bucket is dropped by
  /// the next reclaim sweep.
  MapUpsert erase(round_t round, Key key) {
    Slot* slot = nullptr;
    const MapUpsert r = write(round, key, /*live=*/false, slot);
    if (r == MapUpsert::kWon) this->telemetry().tombstone();
    return r;
  }

  /// Pointer to the committed value for `key`, or nullptr (absent or
  /// erased). Read from serial code or after the barrier that closed the
  /// writing round.
  [[nodiscard]] const Value* find(Key key) const noexcept {
    return this->find_slot(key, static_cast<const Value*>(nullptr),
                           [this](std::uint64_t b) -> const Value* {
                             const Slot& slot = this->slot(b);
                             return slot.tag().live() ? &slot.value : nullptr;
                           });
  }

  [[nodiscard]] bool contains(Key key) const noexcept { return find(key) != nullptr; }

  /// Serial/post-barrier iteration over committed live (key, value) pairs.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t i = 0; i < this->bucket_count(); ++i) {
      const Slot& slot = this->slot(i);
      const Key k = slot.key();
      if (k != Base::kEmptyKey && slot.tag().live()) fn(k, slot.value);
    }
  }

  /// One entry of a cut-predicated scan: the committed value and the round
  /// that committed it (the round travels into snapshot files so restore
  /// can stamp the LiveTag exactly).
  struct ScanEntry {
    Key key;
    Value value;
    round_t round;
  };

  /// Cut-predicated scan: calls fn(key, value, round) for every entry whose
  /// committed write is live with round <= cut_round. Safe CONCURRENTLY
  /// with writers committing rounds > cut_round — the consistent-snapshot
  /// read the round structure makes cheap (Blelloch & Wei's atomic-copy
  /// observation: a version word beside every slot buys multi-word
  /// consistency with plain loads). Per bucket it is a seqlock-shaped
  /// double read of the packed (round, live) word around the plain value
  /// load:
  ///
  ///   p1 = packed; v = value; fence(acquire); p2 = packed;
  ///   emit iff p1 == p2 && live(p1) && round(p1) <= cut_round
  ///
  /// Soundness: a CAS-LT writer commits its (round, live) word BEFORE its
  /// value store, and rounds are strictly increasing, so p1 == p2 with
  /// round <= cut proves no post-cut writer touched the bucket across the
  /// value load; p1 != p2 (or a post-cut round in either) means the entry
  /// was overwritten after the cut and is excluded either way. NOT safe
  /// concurrently with grow/reclaim (the swap frees this array) — cut
  /// holders must keep migrations parked, which is exactly what the serve
  /// schedulers' held-cut discipline does.
  template <typename Fn>
  void for_each_at(round_t cut_round, Fn&& fn) const {
    for (std::uint64_t i = 0; i < this->bucket_count(); ++i) {
      const Slot& slot = this->slot(i);
      const Key k = slot.key();
      if (k == Base::kEmptyKey) continue;
      const std::uint64_t p1 = slot.tag().packed();
      if ((p1 & 1) == 0 || (p1 >> 1) > cut_round) continue;
      const Value v = slot.value;  // racy iff p2 below disagrees; then dropped
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t p2 = slot.tag().packed();
      if (p1 == p2) fn(k, v, static_cast<round_t>(p1 >> 1));
    }
  }

  /// Collecting wrapper over for_each_at — the checkpoint writer's unit of
  /// work. Same concurrency contract.
  [[nodiscard]] std::vector<ScanEntry> scan_at(round_t cut_round) const {
    std::vector<ScanEntry> out;
    out.reserve(this->size());
    for_each_at(cut_round, [&out](Key k, const Value& v, round_t r) {
      out.push_back(ScanEntry{k, v, r});
    });
    return out;
  }

  /// Serial restore of one committed (key, value, round) entry into this
  /// table — the snapshot restore path. Claims the bucket and stamps the
  /// packed LiveTag directly (like the migration sweep carries it), so
  /// CAS-LT writes at rounds > `round` behave exactly as they would have
  /// against the original table. Returns false iff the probe walk
  /// exhausted (table sized too small for the snapshot).
  bool restore_slot(Key key, const Value& v, round_t round) {
    const auto [r, b] = this->claim_slot(key);
    if (r == SetInsert::kFull) return false;
    Slot& slot = this->slot(b);
    slot.value = v;
    slot.tag().restore(LiveTag::pack(round, /*live=*/true));
    this->publish_live(b, key);
    return true;
  }


 private:
  friend Base;

  [[nodiscard]] bool slot_live(std::uint64_t i) const noexcept {
    return this->slot(i).tag().live();
  }
  void clear_tombstones() noexcept { dead_.reset(); }
  /// Old buckets are quiescent during the sweep (barrier before
  /// grow_help), so plain reads of value and tag are safe.
  static void carry(const Slot& from, Slot& to) {
    to.value = from.value;
    to.tag().restore(from.tag().packed());
  }

  /// The shared head of upsert and erase: claim the key's bucket, then
  /// race its LiveTag with CAS-LT for `round`, committing `live`. The
  /// round winner gets kWon and `slot`, and keeps the tombstone count and
  /// the sidecar byte in step with the liveness transition its own CAS
  /// observed — no second pass, no double counting. The pre-load skip of
  /// a closed round issues no RMW, so `atomics` counts only real
  /// compare-exchanges (as InstrumentedPolicy<CasLtPolicy> counts). Forced
  /// inline: shared by three ops it outgrows GCC's inline budget, and the
  /// outlined call made a single-thread upsert or erase ~30% slower.
  [[gnu::always_inline]] MapUpsert write(round_t round, Key key, bool live, Slot*& slot) {
    const auto [r, b] = this->claim_slot(key);
    if (r == SetInsert::kFull) return MapUpsert::kFull;
    LiveTag& tag = this->slot(b).tag();
    if (tag.last_round() >= round) return MapUpsert::kLost;  // skip: no atomic
    this->telemetry().cas();
    bool was_live = false;
    if (!tag.try_acquire(round, live, was_live)) return MapUpsert::kLost;
    if (live && !was_live) {  // tombstone revive: republish the fingerprint
      dead_.sub(1);
      this->publish_live(b, key);
    } else if (!live && was_live) {  // live → dead: publish the tombstone byte
      dead_.add(1);
      this->publish_tombstone(b);
    }
    slot = &this->slot(b);
    return MapUpsert::kWon;
  }

  ShardedCounter dead_;
};

}  // namespace crcw::ds
