// ConcurrentHashSet — open-addressing key membership with arbitrary-CW
// insert arbitration and a cooperative, lock-free, chunk-swept resize.
//
// The probe walks, the control-byte sidecar and the grow/reclaim
// migration are OpenTable's (open_table.hpp); the set's slot is a bare
// ClaimWord, 8 bytes per bucket. Inserts are lock-free (bounded by the
// probe walk), lookups are wait-free reads, and there are no locks
// anywhere.
//
// Erase is membership split from bucket ownership: a claimed bucket holds
// its key until a migration drops it, while a side AtomicBitset marks
// *tombstoned* buckets. The polarity is deliberate — a freshly claimed
// bucket is live with the bit at rest, so the insert-only fast path (the
// dedup/semijoin build phases measured by the benches) is exactly one CAS
// with zero bitset traffic; only erase (first bit-setter wins) and revive
// (first bit-clearer wins) pay an extra RMW, each an arbitrary concurrent
// write of a boolean. Tombstones are dropped by reclaim sweeps, which
// rebuild the array from the live buckets and shrink it back toward the
// live count.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <utility>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "ds/open_table.hpp"
#include "util/atomic_bitset.hpp"

namespace crcw::ds {

template <typename Key = std::uint64_t>
  requires std::unsigned_integral<Key>
class ConcurrentHashSet : public OpenTable<ConcurrentHashSet<Key>, ClaimWord<Key>> {
  using Base = OpenTable<ConcurrentHashSet<Key>, ClaimWord<Key>>;

 public:
  /// Sizes the bucket array so `capacity` keys stay under cfg.max_load.
  explicit ConcurrentHashSet(std::uint64_t capacity, HashConfig cfg = {})
      : Base(capacity, std::move(cfg)), dead_(this->bucket_count()) {}

  /// Current tombstones (erased keys still holding their buckets).
  [[nodiscard]] std::uint64_t tombstones() const noexcept { return dead_.count(); }

  /// Inserts `key`, reviving it if it was erased. Safe concurrently with
  /// other inserts, erases and lookups; NOT concurrently with the grow
  /// sweep (the round structure separates them). kInserted goes to the
  /// thread whose RMW made the key live: the claim winner on a fresh
  /// bucket, the tombstone-bit clearer on an erased one. Throws
  /// std::invalid_argument for the reserved sentinel key. Forced inline so
  /// callers' insert loops keep the claim fast path in line (GCC's budget
  /// otherwise stops at the claim walk it inlines).
  [[gnu::always_inline]] SetInsert insert(Key key) {
    return this->claim_slot(
        key, SetInsert::kFull, [](std::uint64_t) { return SetInsert::kInserted; },
        [this, key](std::uint64_t b) { return revive_or_found(b, key); });
  }

  /// Erases `key`: marks its bucket tombstoned. First setter wins —
  /// returns true iff this call transitioned the key live → dead (false
  /// if the key was absent or already erased). The bucket stays claimed
  /// until a reclaim sweep drops it.
  bool erase(Key key) {
    this->check_key(key);
    assert(!this->growing() && "erase during cooperative grow: missing barrier");
    ProbeStats stats;
    const bool r = this->find_slot(
        key, false, [this](std::uint64_t b) { return commit_tombstone(b); }, stats);
    this->telemetry().walk(stats);
    return r;
  }

  /// Membership test for live keys. Wait-free; concurrent inserts/erases
  /// may or may not be visible (keys never move outside a grow sweep, so
  /// a live hit is always authoritative).
  [[nodiscard]] bool contains(Key key) const noexcept {
    return this->find_slot(key, false, [this](std::uint64_t b) { return !dead_.test(b); });
  }

  /// Serial/post-barrier iteration over the committed live keys.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t i = 0; i < this->bucket_count(); ++i) {
      const Key k = this->slot(i).key();
      if (k != Base::kEmptyKey && !dead_.test(i)) fn(k);
    }
  }

 private:
  friend Base;

  [[nodiscard]] bool slot_live(std::uint64_t i) const noexcept { return !dead_.test(i); }
  void clear_tombstones() { dead_ = util::AtomicBitset(this->bucket_count()); }
  /// A migrated set slot carries nothing beside its key.
  static void carry(const ClaimWord<Key>& /*from*/, ClaimWord<Key>& /*to*/) noexcept {}

  /// Insert tail for a bucket already holding the key: live is a plain
  /// kFound with no RMW; tombstoned races the revive — the first bit
  /// clearer wins and republishes the fingerprint byte.
  SetInsert revive_or_found(std::uint64_t b, Key key) {
    if (!dead_.test(b)) return SetInsert::kFound;  // live: no RMW
    this->telemetry().cas();
    if (dead_.test_and_reset(b)) {  // revive race: first clearer wins
      this->publish_live(b, key);
      this->telemetry().win();
      return SetInsert::kInserted;
    }
    return SetInsert::kFound;
  }

  /// Erase tail: first bit-setter wins, and only the winner publishes the
  /// tombstone byte — losers and already-dead hits leave the sidecar alone
  /// (a late byte store racing a revive is benign: tombstone lanes stay
  /// probe candidates forever).
  bool commit_tombstone(std::uint64_t b) {
    if (dead_.test(b)) return false;  // already tombstoned: no RMW
    this->telemetry().cas();
    if (dead_.test_and_set(b)) {
      this->publish_tombstone(b);
      this->telemetry().tombstone();
      return true;
    }
    return false;  // a racing eraser set the bit first
  }

  util::AtomicBitset dead_;
};

}  // namespace crcw::ds
