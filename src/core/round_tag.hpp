// RoundTag — the auxiliary word behind CAS-LT concurrent writes (paper §5).
//
// One RoundTag guards one concurrent-write target. It stores the id of the
// last round in which a write to that target was committed
// (`lastRoundUpdated` in the paper's Figure 1). A thread wanting to perform
// the round-r concurrent write first *reads* the tag: if it already equals r
// the write happened and both the atomic and the write are skipped — this
// skip is what keeps CAS-LT O(P_phys) per contended cell instead of
// serialising all P_PRAM contenders. Otherwise the thread races a single
// compare-exchange from the observed older round to r; exactly one thread
// wins and performs the write.
//
// Unlike the gatekeeper scheme, a RoundTag never needs re-initialisation:
// advancing the round id invalidates all previous acquisitions for free.
#pragma once

#include <atomic>
#include <cstdint>

namespace crcw {

/// Identifier of a concurrent-write execution step. Distinct concurrent-write
/// steps targeting the same cell must use strictly increasing rounds; 64 bits
/// make wrap-around unreachable in practice.
using round_t = std::uint64_t;

/// Rounds start at kInitialRound; the first usable write round is
/// kInitialRound + 1 so a fresh tag never equals a live round.
inline constexpr round_t kInitialRound = 0;

class RoundTag {
 public:
  RoundTag() noexcept = default;
  explicit RoundTag(round_t initial) noexcept : last_round_(initial) {}

  // Tags guard shared state; copying one would fork that state.
  RoundTag(const RoundTag&) = delete;
  RoundTag& operator=(const RoundTag&) = delete;

  /// Paper-faithful CAS-LT (Figure 1): one relaxed load, at most one CAS.
  ///
  /// Returns true iff this thread won the round-`round` write. Requires that
  /// all tag updates use non-decreasing rounds (guaranteed when rounds come
  /// from a per-step counter with a barrier between steps). Under that
  /// contract a failed CAS means another contender committed this same
  /// round, so a single attempt suffices and the operation is wait-free.
  /// `on_cas` runs just before the compare-exchange is issued, won or lost,
  /// so InstrumentedPolicy counts the RMWs of this very acquire.
  template <typename OnCas>
  bool try_acquire(round_t round, OnCas&& on_cas) noexcept {
    round_t current = last_round_.load(std::memory_order_relaxed);
    if (current >= round) return false;
    on_cas();
    return last_round_.compare_exchange_strong(current, round, std::memory_order_acq_rel,
                                               std::memory_order_relaxed);
  }

  bool try_acquire(round_t round) noexcept {
    return try_acquire(round, [] {});
  }

  /// Robust variant: retries while the observed round is still older, so it
  /// admits exactly one winner even when *different* rounds race on the same
  /// tag (a misuse the strict contract forbids, but one a defensive library
  /// should survive). Lock-free rather than wait-free: each retry implies
  /// another thread made progress.
  bool try_acquire_retry(round_t round) noexcept {
    round_t current = last_round_.load(std::memory_order_relaxed);
    while (current < round) {
      if (last_round_.compare_exchange_weak(current, round, std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Ablation variant (bench/ablation_memorder): no pre-load skip — every
  /// call issues at least one atomic RMW, mimicking the gatekeeper's
  /// unconditional fetch_add. The expected value now seeds from a fresh
  /// load; it used to seed from kInitialRound, which guaranteed the first
  /// CAS failed on any tag that had ever advanced, so the ablation measured
  /// "failed CAS + reload + retry" (two RMWs even uncontended) instead of
  /// "CAS-LT minus the skip". Post-fix cost: a winner pays one successful
  /// CAS; a late contender pays one same-value CAS (the RMW is still
  /// executed, but the tag can never move backward). This also repairs a
  /// semantic edge: the old seed made try_acquire_no_skip(kInitialRound)
  /// "win" round 0 on a fresh tag, a round that is never live.
  bool try_acquire_no_skip(round_t round) noexcept {
    round_t current = last_round_.load(std::memory_order_relaxed);
    for (;;) {
      // Committed rounds re-store the current value: pays the RMW without
      // regressing the tag. Live rounds race to install `round`.
      const round_t desired = current < round ? round : current;
      if (last_round_.compare_exchange_weak(current, desired, std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        return current < round;
      }
    }
  }

  /// True iff the round-`round` write has already been committed.
  [[nodiscard]] bool committed(round_t round) const noexcept {
    return last_round_.load(std::memory_order_acquire) >= round;
  }

  [[nodiscard]] round_t last_round() const noexcept {
    return last_round_.load(std::memory_order_acquire);
  }

  /// Non-concurrent reset (e.g. between benchmark repetitions).
  void reset(round_t value = kInitialRound) noexcept {
    last_round_.store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<round_t> last_round_{kInitialRound};
};

static_assert(sizeof(RoundTag) == sizeof(round_t));

}  // namespace crcw
