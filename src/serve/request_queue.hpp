// RequestQueue — the MPMC admission queue of the serving layer.
//
// Layout follows the repo's sharding idiom (obs::ContentionSite,
// ds::ShardedCounter): one cache-line-padded sub-queue per *lane*, each
// guarded by its own spinlock, with clients bound to lanes by a dense
// thread-local index. Uncontended enqueues therefore touch only their own
// line; the pump drains every lane at a batch boundary. Counts and the
// oldest-enqueue timestamp are advisory relaxed atomics — they steer the
// size/deadline triggers, never correctness (the drain under the lane lock
// is the authoritative hand-off, and its acquire/release pairing is the
// happens-before edge TSan checks in tests/stress/stress_serve.cpp).
//
// Backpressure: a lane holds at most `lane_backlog` records; try_enqueue
// refuses at the watermark and the caller relieves the pressure — the
// session's submit() helps drain, a raw enqueue() backs off (spin, then
// yield) until some other pump drains. Either way queue memory stays
// bounded and, on oversubscribed machines, the core goes to the pump
// instead of racing it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/op.hpp"
#include "util/aligned_buffer.hpp"
#include "util/backoff.hpp"
#include "util/cacheline.hpp"

namespace crcw::serve {

/// One admitted operation: the op, its completion slot, and when it
/// arrived (the enqueue→admit histogram's left edge).
struct Record {
  Op op;
  OpFuture* future = nullptr;
  std::uint64_t enqueue_ns = 0;
};

class RequestQueue {
 public:
  /// Lane sentinel for try_enqueue: "no routing preference" — the record
  /// goes to the caller's own (dense thread-local) lane. Routed backends
  /// pass a real lane index instead (lane→shard affinity).
  static constexpr std::size_t kAnyLane = ~std::size_t{0};

  /// `lanes` ≥ 1 sub-queues; `lane_backlog` is the per-lane watermark
  /// (0 = unbounded); `backoff_spins` parameterises the blocked-client
  /// waiter; `sample_mask` thins latency timestamping (2^k − 1 = stamp
  /// every 2^k-th op per client; 0 = stamp every op — an unstamped
  /// record carries enqueue_ns 0 and skips the histograms downstream).
  RequestQueue(int lanes, std::uint64_t lane_backlog, int backoff_spins,
               std::uint64_t sample_mask = 0)
      : lanes_(static_cast<std::size_t>(lanes < 1 ? 1 : lanes)),
        lane_backlog_(lane_backlog),
        backoff_spins_(backoff_spins),
        sample_mask_(sample_mask) {}

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

  /// Non-blocking admission: refuses (returns false) when the target
  /// lane is at its watermark. The caller decides how to relieve the
  /// pressure — back off, or help drain (BasicServeSession::submit does
  /// the latter, so a pump-less session can never deadlock on its own
  /// backlog). `lane` picks the sub-queue (kAnyLane = the caller's own;
  /// out-of-range wraps — routed callers size the queue to match). The
  /// future must stay pinned until it completes.
  [[nodiscard]] bool try_enqueue(const Op& op, OpFuture& future,
                                 std::size_t lane_hint = kAnyLane) {
    Lane& lane =
        lanes_[lane_hint == kAnyLane ? lane_index() : lane_hint % lanes_.size()];
    if (lane_backlog_ != 0 &&
        lane.count.load(std::memory_order_relaxed) >= lane_backlog_) {
      return false;  // admission backpressure
    }
    // The clock read is the enqueue path's one expensive instruction;
    // under a sampling mask most ops skip it (enqueue_ns 0 = unsampled).
    thread_local std::uint64_t tick = 0;
    const std::uint64_t stamp = (tick++ & sample_mask_) == 0 ? now_ns() : 0;
    // Exponential backoff (util/backoff.hpp), not the linear BackoffState:
    // the lock is held for a few instructions, so doubling PAUSE runs
    // de-syncs the spinners far faster than a fixed spin budget, and the
    // critical section owner stops eating test_and_set line invalidations.
    util::Backoff backoff;
    while (lane.lock.test_and_set(std::memory_order_acquire)) backoff.pause();
    lane.records.push_back(Record{op, &future, stamp});
    if (lane.records.size() == 1) {
      // The deadline trigger needs a real timestamp even for an
      // unsampled head-of-lane record.
      lane.oldest_ns.store(stamp != 0 ? stamp : now_ns(), std::memory_order_relaxed);
    }
    lane.count.store(lane.records.size(), std::memory_order_relaxed);
    lane.lock.clear(std::memory_order_release);
    return true;
  }

  /// Blocking admission: spin-then-yield until the lane has room. Only
  /// safe when some *other* thread drains; a lone thread must use
  /// try_enqueue and relieve its own backpressure.
  void enqueue(const Op& op, OpFuture& future) {
    BackoffState backoff(backoff_spins_);
    while (!try_enqueue(op, future)) backoff.pause();
  }

  /// Moves lane l's pending records into `out` (appending, admission
  /// order) and returns how many were drained. Lane l belongs to one
  /// shard, so the round engine drains lane by lane and keeps the batch
  /// shard-local without a re-sort. Callers serialise through the engine's
  /// pump lock; clients may enqueue concurrently.
  std::uint64_t drain_lane_into(std::size_t l, std::vector<Record>& out) {
    Lane& lane = lanes_[l % lanes_.size()];
    util::Backoff backoff;  // spinlock acquire: exponential, like try_enqueue
    while (lane.lock.test_and_set(std::memory_order_acquire)) backoff.pause();
    const std::uint64_t drained = lane.records.size();
    out.insert(out.end(), lane.records.begin(), lane.records.end());
    lane.records.clear();
    // Advisory-reset order matters for the lock-free readers: clear the
    // timestamp BEFORE the count, so a reader that still sees a non-zero
    // count reads either the old (valid-at-the-time) timestamp or the
    // cleared one — never a stale timestamp for a lane it knows is empty.
    // (oldest_enqueue_ns additionally gates on count, closing the other
    // interleaving; see the regression test OldestNsClearsWhenLaneDrains.)
    lane.oldest_ns.store(0, std::memory_order_relaxed);
    lane.count.store(0, std::memory_order_relaxed);
    lane.lock.clear(std::memory_order_release);
    return drained;
  }

  /// Approximate total backlog (relaxed reads; exact once clients quiesce).
  [[nodiscard]] std::uint64_t pending() const noexcept {
    std::uint64_t total = 0;
    for (const Lane& lane : lanes_) total += lane.count.load(std::memory_order_relaxed);
    return total;
  }

  /// Earliest enqueue timestamp across non-empty lanes (0 = none pending)
  /// — the deadline trigger's input. A lane that drained to empty between
  /// advisory samples reports nothing: its count gates the timestamp, so
  /// the trigger can never fire off a timestamp whose op already left the
  /// queue (the stale-oldest_ns bug this guards against would otherwise
  /// surface as spurious deadline batches).
  [[nodiscard]] std::uint64_t oldest_enqueue_ns() const noexcept {
    std::uint64_t oldest = 0;
    for (const Lane& lane : lanes_) {
      const std::uint64_t ts = lane.oldest_ns.load(std::memory_order_relaxed);
      if (ts == 0) continue;
      if (lane.count.load(std::memory_order_relaxed) == 0) continue;  // drained
      if (oldest == 0 || ts < oldest) oldest = ts;
    }
    return oldest;
  }

 private:
  // One line per lane: the lock, the advisory counters, and the vector
  // header share it, but two lanes never share anything.
  struct alignas(util::kCacheLineSize) Lane {
    std::atomic_flag lock;               // guards `records`
    std::atomic<std::uint64_t> count{0};      // advisory size (size trigger)
    std::atomic<std::uint64_t> oldest_ns{0};  // advisory (deadline trigger)
    std::vector<Record> records;
  };

  /// Dense thread index, recycled mod lanes — the ShardedCounter contract:
  /// collisions degrade to lock sharing, never to wrong hand-offs.
  [[nodiscard]] std::size_t lane_index() const noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
    return index % lanes_.size();
  }

  util::AlignedBuffer<Lane> lanes_;
  std::uint64_t lane_backlog_;
  int backoff_spins_;
  std::uint64_t sample_mask_;
};

}  // namespace crcw::serve
