// Bounded exponential backoff for retry loops that are merely lock-free —
// the contention-management recipe of "Lightweight Contention Management
// for Efficient Compare-and-Swap Operations" (Dice/Hendler/Mirsky,
// PAPERS.md): a failed RMW means another thread is making progress, so the
// loser's best move is to get off the cache line for a doubling interval
// before re-arming, and to hand the core to the OS scheduler once spinning
// has demonstrably lost (oversubscription, preempted lock holder).
//
// Scope discipline: this belongs on genuine RETRY loops only — the
// RequestQueue lane spinlocks (try_enqueue and drain_lane_into), the serve
// pump's SpinLock and the incremental-CC hook CAS
// (stream/incremental_cc.hpp). The CAS-LT claim path must never see it: a
// (key, round) arbitration issues at most one compare-exchange and its
// losers are done wait-free, so there is nothing to retry and a pause
// would only add latency to a path the paper proves contention-immune.
// serve/op.hpp's BackoffState covers a different, higher-level concern:
// waits at the serving edge — the session's (a lane at its watermark in
// submit, a future in wait/call, another thread's pump in flush), a wire
// handler closing its own batch, and the stream event engine's ring.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace crcw::util {

/// One busy-wait hint: tells the core we are spinning so it can yield
/// pipeline resources to the sibling hyperthread (x86 PAUSE / arm YIELD)
/// without giving up the time slice.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);  // compiler barrier only
#endif
}

/// Bounded exponential backoff: pause() spins 2^k cpu_relax hints, doubling
/// k per call up to `max_spins`; past the bound every further pause()
/// yields the thread instead (the lock holder may be descheduled — more
/// spinning cannot help). reset() re-arms after a success, so a thread
/// that just got through starts polite again, not punished.
class Backoff {
 public:
  explicit Backoff(std::uint32_t min_spins = 4, std::uint32_t max_spins = 1024) noexcept
      : min_spins_(min_spins < 1 ? 1 : min_spins),
        max_spins_(max_spins < min_spins_ ? min_spins_ : max_spins),
        spins_(min_spins_) {}

  void pause() noexcept {
    if (spins_ > max_spins_) {
      std::this_thread::yield();
      return;
    }
    for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
    spins_ *= 2;
  }

  void reset() noexcept { spins_ = min_spins_; }

  /// Current spin budget (tests pin the doubling/yield tier transitions).
  [[nodiscard]] std::uint32_t spins() const noexcept { return spins_; }
  [[nodiscard]] bool yielding() const noexcept { return spins_ > max_spins_; }

 private:
  std::uint32_t min_spins_;
  std::uint32_t max_spins_;
  std::uint32_t spins_;
};

/// A test-and-set flag with the standard Lockable surface, so that
/// std::lock_guard and std::unique_lock (std::try_to_lock) release it on
/// every exit path, exceptions included. lock() spins with Backoff.
class SpinLock {
 public:
  [[nodiscard]] bool try_lock() noexcept {
    return !flag_.test_and_set(std::memory_order_acquire);
  }

  void lock() noexcept {
    Backoff backoff;
    while (!try_lock()) backoff.pause();
  }

  void unlock() noexcept { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_;
};

}  // namespace crcw::util
