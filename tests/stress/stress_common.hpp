// Shared harness for the raw-thread stress tier (ctest label: stress).
//
// The tier-1 suites drive the concurrent-write core through OpenMP, whose
// runtime synchronises internally — invisibly to ThreadSanitizer, which
// would then report every barrier-published access as a race. This tier
// re-creates the PRAM lock-step discipline with std::thread + std::barrier,
// primitives TSan models natively, so its happens-before analysis sees the
// exact synchronisation the protocol claims to need: if a schedule here is
// racy under TSan, the race argument of paper §5 has a hole.
//
// Run locally:   cmake -B build-tsan -S . -DCRCW_TSAN=ON
//                cmake --build build-tsan -j
//                ctest --test-dir build-tsan -L stress --output-on-failure
// The same tests run (faster, without race checking) in regular builds.
#pragma once

#include <barrier>
#include <thread>
#include <vector>

#include "core/round_tag.hpp"
#include "util/sanitizer.hpp"

namespace crcw::stress {

/// Thread count for stress schedules: enough for real interleavings, small
/// enough that TSan's (heavily serialised) runtime finishes in seconds.
inline int thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 4;
  return static_cast<int>(hw < 4 ? 4 : (hw > 8 ? 8 : hw));
}

/// Iteration scale: TSan instrumentation costs ~5-20x, so schedules shrink
/// under it rather than time out. Keep invariant checks per-round, not
/// per-run, so the shorter runs lose coverage volume, never strictness.
inline constexpr int scaled(int plain, int tsan) noexcept {
#if CRCW_TSAN_ENABLED
  (void)plain;
  return tsan;
#else
  (void)tsan;
  return plain;
#endif
}

/// Runs body(tid) on `threads` raw std::threads and joins them all.
template <typename Body>
void run_threads(int threads, Body&& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&body, t] { body(t); });
  }
  for (auto& th : pool) th.join();
}

/// run_threads for bodies that share the barrier `sync`. Each thread
/// leaves the barrier with arrive_and_drop() when its body returns,
/// finished or not: a failed ASSERT_* returns from the body, and without
/// the drop every other thread would wait at its next arrive_and_wait()
/// forever, so the test would hang instead of failing.
template <typename Body>
void run_barrier_threads(std::barrier<>& sync, int threads, Body&& body) {
  struct Leave {
    std::barrier<>& sync;
    ~Leave() { sync.arrive_and_drop(); }
  };
  run_threads(threads, [&](int tid) {
    const Leave leave{sync};
    body(tid);
  });
}

/// PRAM lock-step driver. Per round r in [1, rounds]:
///   1. every thread runs step(tid, r)         (the parallel CW step)
///   2. all threads meet at a barrier          (the synchronisation point)
///   3. thread 0 runs audit(r)                 (the post-barrier reader)
///   4. all threads meet at a second barrier   (so the next step cannot
///                                              overlap the audit)
template <typename Step, typename Audit>
void run_lockstep(int threads, round_t rounds, Step&& step, Audit&& audit) {
  std::barrier sync(threads);
  run_barrier_threads(sync, threads, [&](int tid) {
    for (round_t r = 1; r <= rounds; ++r) {
      step(tid, r);
      sync.arrive_and_wait();
      if (tid == 0) audit(r);
      sync.arrive_and_wait();
    }
  });
}

}  // namespace crcw::stress
