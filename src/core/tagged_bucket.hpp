// TaggedBucket — the bucket-claim generalisation of the round-tag.
//
// A RoundTag (round_tag.hpp) arbitrates "many writers, one winner" for a
// target whose identity is fixed at construction. A hash bucket adds one
// twist: the contended word is the *identity of the target itself* — the
// key that owns the bucket. The claim protocol is the same CAS-or-observe
// shape as CAS-LT, with the sentinel kEmptyKey playing the role of the
// stale round: one compare-exchange from empty to the candidate key admits
// exactly one winner, and every loser learns wait-free (from the CAS's
// loaded value, no retry) whether its own key committed — the arbitrary-CW
// contract of paper §5 applied to the insert race of a concurrent hash
// table (see src/ds/).
//
// The bucket pairs that claim word (ClaimWord, which is all the open set
// keeps per slot) with a LiveTag so that, once a key owns the bucket,
// per-round value writes keep using paper-faithful CAS-LT (one winner per
// key per round; the value itself is barrier-published like ConWriteCell's
// payload). The LiveTag extends the RoundTag with one
// liveness bit packed into the same word, which is what makes *erase* a
// first-class concurrent write: an erase and an upsert targeting the same
// key in the same round race the same single compare-exchange, exactly one
// commits, and the committed word carries both the round and whether the
// key survived it. A separate liveness flag would need a second store and
// would let a reader observe "round committed" without knowing the
// outcome; packing closes that window at the cost of halving the round
// space to 2^63 (still unreachable).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <limits>

#include "core/round_tag.hpp"

namespace crcw {

/// Outcome of a bucket claim, from the claiming thread's point of view.
enum class BucketClaim {
  kWon,    ///< this thread installed its key; the bucket is now its target
  kHeld,   ///< the bucket already holds the caller's key (it lost the per-key
           ///< race — or won it in an earlier call; either way the key is in)
  kOther,  ///< a different key owns the bucket: probe on
};

/// CAS-LT round arbitration with a liveness bit riding in the same word:
/// packed = (last_round << 1) | live. A fresh tag is (kInitialRound, live)
/// — a claimed bucket is born live, so the build-phase insert fast path
/// (claim CAS + barrier-published value store) needs no tag RMW at all;
/// the bit only moves when an erase tombstones the entry or a later write
/// revives it. The embedding table's claim discipline guarantees every
/// claim is followed by exactly one committed write before the barrier,
/// so "live" never outruns "has a value" where reads are allowed.
///
/// try_acquire keeps the RoundTag contract (pre-load skip when the round
/// is closed, at most one CAS, wait-free under the strictly-increasing-
/// rounds-across-barriers discipline) and additionally commits the
/// caller's liveness verdict: an upsert acquires with live=true, an erase
/// with live=false, and whichever CAS lands first owns the (key, round)
/// write. The winner also learns the *previous* liveness from the CAS's
/// expected value, which is what lets tables keep exact live/tombstone
/// counts without a second pass.
class LiveTag {
 public:
  LiveTag() noexcept = default;
  LiveTag(const LiveTag&) = delete;
  LiveTag& operator=(const LiveTag&) = delete;

  /// One winner per round; `live` is the liveness this write commits.
  /// `was_live` (winner only) reports the liveness the write replaced.
  bool try_acquire(round_t round, bool live, bool& was_live) noexcept {
    std::uint64_t current = packed_.load(std::memory_order_relaxed);
    if ((current >> 1) >= round) return false;  // closed round: skip the RMW
    const std::uint64_t desired = (round << 1) | static_cast<std::uint64_t>(live);
    if (packed_.compare_exchange_strong(current, desired, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      was_live = (current & 1) != 0;
      return true;
    }
    // A failed CAS means another contender committed this same round
    // (rounds are non-decreasing), so one attempt suffices — same
    // wait-free argument as RoundTag::try_acquire.
    return false;
  }

  /// RoundTag-compatible shape: a plain value write (live), outcome of the
  /// replaced entry discarded.
  bool try_acquire(round_t round) noexcept {
    bool was_live = false;
    return try_acquire(round, true, was_live);
  }

  /// Round-free liveness flip for build-phase first-writer-wins inserts
  /// (insert_first has no round to acquire): an idempotent fetch_or, so
  /// racing revivers of the same tombstoned key arbitrate on the bit
  /// itself. Returns true iff this call flipped dead → live.
  bool mark_live() noexcept {
    const std::uint64_t prev = packed_.fetch_or(1, std::memory_order_acq_rel);
    return (prev & 1) == 0;
  }

  [[nodiscard]] round_t last_round() const noexcept {
    return packed_.load(std::memory_order_acquire) >> 1;
  }

  /// True iff the last committed write kept the key alive. Like the round,
  /// this is barrier-published truth: read it post-barrier (or pre-round,
  /// serially) to classify the bucket.
  [[nodiscard]] bool live() const noexcept {
    return (packed_.load(std::memory_order_acquire) & 1) != 0;
  }

  /// True iff the round-`round` write has already been committed.
  [[nodiscard]] bool committed(round_t round) const noexcept {
    return last_round() >= round;
  }

  /// The raw (round, live) word — migration sweeps carry it wholesale so a
  /// rebuilt table preserves round monotonicity for surviving keys.
  [[nodiscard]] std::uint64_t packed() const noexcept {
    return packed_.load(std::memory_order_acquire);
  }

  /// Non-concurrent restore of a carried word (resize target, inside the
  /// migration window where no round is running).
  void restore(std::uint64_t packed) noexcept {
    packed_.store(packed, std::memory_order_relaxed);
  }

  /// The packed word a (round, live) pair would commit — what migration
  /// carries wholesale and what snapshot restore reconstructs from a
  /// serialised entry's round. Keeping the layout here means no caller
  /// hardcodes the shift-and-bit encoding.
  [[nodiscard]] static constexpr std::uint64_t pack(round_t round, bool live) noexcept {
    return (round << 1) | static_cast<std::uint64_t>(live);
  }

  /// Non-concurrent re-initialisation: round kInitialRound, live (the
  /// fresh state — see the class comment on the born-live polarity).
  void reset() noexcept { packed_.store(kFreshPacked, std::memory_order_relaxed); }

 private:
  static constexpr std::uint64_t kFreshPacked = (kInitialRound << 1) | 1u;

  std::atomic<std::uint64_t> packed_{kFreshPacked};
};

static_assert(sizeof(LiveTag) == sizeof(std::uint64_t));

/// The bucket-ownership word on its own: an atomically claimable key. It
/// is the open set's whole slot, and the claim half of every TaggedBucket.
/// Key must be an unsigned integer; the all-ones value is reserved as the
/// empty sentinel.
template <typename Key>
  requires std::unsigned_integral<Key>
class ClaimWord {
 public:
  static constexpr Key kEmptyKey = std::numeric_limits<Key>::max();

  ClaimWord() noexcept = default;
  ClaimWord(const ClaimWord&) = delete;
  ClaimWord& operator=(const ClaimWord&) = delete;

  /// One-shot arbitration for bucket ownership: at most one CAS, wait-free.
  /// kWon means this call transitioned empty → k; the caller owns any
  /// non-atomic payload initialisation that follows (publish it with the
  /// step barrier, exactly like a ConWriteCell winner). `on_cas` runs just
  /// before the compare-exchange is issued, won or lost, so a table can
  /// count every claim CAS without a second load of the word.
  template <typename OnCas>
  BucketClaim claim(Key k, OnCas&& on_cas) noexcept {
    Key current = key_.load(std::memory_order_acquire);
    if (current == kEmptyKey) {
      on_cas();
      if (key_.compare_exchange_strong(current, k, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return BucketClaim::kWon;
      }
      // CAS failure reloaded `current` with the winning key: losers observe
      // the committed claim without retrying.
    }
    return current == k ? BucketClaim::kHeld : BucketClaim::kOther;
  }

  BucketClaim claim(Key k) noexcept {
    return claim(k, [] {});
  }

  /// The owning key, or kEmptyKey. An acquire load, so a reader that sees
  /// key k also sees everything the claimer published before the claim —
  /// but payload written *after* a claim is barrier-published, not
  /// load-published; read it post-barrier only.
  [[nodiscard]] Key key() const noexcept { return key_.load(std::memory_order_acquire); }

  [[nodiscard]] bool empty() const noexcept { return key() == kEmptyKey; }

  /// Non-concurrent re-initialisation.
  void reset() noexcept { key_.store(kEmptyKey, std::memory_order_relaxed); }

 private:
  std::atomic<Key> key_{kEmptyKey};
};

/// One concurrent-write-arbitrated hash bucket: a ClaimWord plus a LiveTag
/// guarding per-round writes (and erases) of whatever payload the
/// embedding table stores beside it.
template <typename Key>
  requires std::unsigned_integral<Key>
class TaggedBucket : public ClaimWord<Key> {
 public:
  /// The per-round value/erase arbitration tag (CAS-LT; see LiveTag).
  [[nodiscard]] LiveTag& tag() noexcept { return tag_; }
  [[nodiscard]] const LiveTag& tag() const noexcept { return tag_; }

  /// A claimed bucket whose latest committed write was an erase — the key
  /// word stays claimed (probe chains must keep walking through it), only
  /// the entry is gone.
  [[nodiscard]] bool dead() const noexcept { return !this->empty() && !tag_.live(); }

  /// Non-concurrent re-initialisation (table reset between runs; the
  /// migration target of a resize is freshly constructed instead).
  void reset() noexcept {
    ClaimWord<Key>::reset();
    tag_.reset();
  }

 private:
  LiveTag tag_;
};

static_assert(sizeof(ClaimWord<std::uint64_t>) == sizeof(std::uint64_t));
static_assert(sizeof(TaggedBucket<std::uint64_t>) == 2 * sizeof(std::uint64_t));

}  // namespace crcw
