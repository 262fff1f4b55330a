// Gatekeeper — the prefix-sum / atomic-increment baseline (paper §3, Fig 2).
//
// The scheme from Vishkin et al.'s XMT work: every contender atomically
// post-increments a per-target counter; the thread that observed 0 wins.
// Two structural costs distinguish it from CAS-LT (paper §5, §6):
//   1. every contender executes the atomic RMW even long after a winner
//      exists, serialising all P_PRAM contenders on a multicore;
//   2. the counter must be re-zeroed before every new concurrent-write
//      round — an O(N) sweep per round for N targets.
// The `try_acquire_skip` variant adds the pre-load early-out the paper
// suggests as a mitigation; it still requires the per-round reset.
#pragma once

#include <atomic>
#include <cstdint>

namespace crcw {

class Gatekeeper {
 public:
  Gatekeeper() noexcept = default;

  Gatekeeper(const Gatekeeper&) = delete;
  Gatekeeper& operator=(const Gatekeeper&) = delete;

  /// Paper Figure 2: unconditional atomic post-increment; 0 observed = win.
  /// `on_rmw` runs just before the fetch_add, so InstrumentedPolicy counts
  /// the RMWs of this very acquire.
  template <typename OnRmw>
  bool try_acquire(OnRmw&& on_rmw) noexcept {
    on_rmw();
    return count_.fetch_add(1, std::memory_order_acq_rel) == 0;
  }

  bool try_acquire() noexcept {
    return try_acquire([] {});
  }

  /// Mitigated variant: skip the RMW once a winner is visible. Note the
  /// skip read does not remove the per-round reset requirement.
  ///
  /// The skip load is acquire so it pairs with the release in reset(): a
  /// straggler admitted into the RMW because this load observed the freshly
  /// re-zeroed counter is ordered after everything the resetting thread did
  /// before re-opening the gate (in particular its reads of the previous
  /// round's payload). With a relaxed load, that admission decision would
  /// carry no ordering and the straggler's subsequent payload write could
  /// race those reads on weakly-ordered targets.
  template <typename OnRmw>
  bool try_acquire_skip(OnRmw&& on_rmw) noexcept {
    if (count_.load(std::memory_order_acquire) != 0) return false;
    on_rmw();
    return count_.fetch_add(1, std::memory_order_acq_rel) == 0;
  }

  bool try_acquire_skip() noexcept {
    return try_acquire_skip([] {});
  }

  /// Number of contenders that executed the RMW so far this round. Useful
  /// for tests and for measuring serialisation pressure.
  [[nodiscard]] std::uint64_t contenders() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool taken() const noexcept { return contenders() != 0; }

  /// Required before every new concurrent-write round (Fig 3(b) line 34-35).
  ///
  /// Release, not relaxed: the resetting thread has typically just consumed
  /// the previous round's payload, and the zero it publishes is what
  /// re-admits contenders. A relaxed store could be reordered ahead of those
  /// payload reads on weakly-ordered targets; a straggler whose skip-load
  /// (acquire) or fetch_add (acq_rel) observes the fresh 0 would then write
  /// the next payload concurrently with the old reads. Release/acquire on
  /// the counter closes exactly that window — and no more: the protocol
  /// still requires a synchronisation point (the PRAM step barrier) between
  /// the winner's payload write and any OTHER thread's dependent read,
  /// because the gate word only orders the resetting thread's own accesses.
  void reset() noexcept { count_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> count_{0};
};

static_assert(sizeof(Gatekeeper) == sizeof(std::uint64_t));

}  // namespace crcw
