// SlotAllocator — chunked slot grants for slot-allocating concurrent
// writes.
//
// The frontier kernels allocate output slots with one shared
// `tail.fetch_add(1)` per discovery: correct, but every discovering thread
// hammers the same cache line, and the contention counters (PR 2) show
// that RMW dominating frontier construction on dense levels. Dice, Hendler
// & Mirsky ("Lightweight Contention Management for Efficient
// Compare-and-Swap Operations") and Bender et al. ("Fast Concurrent
// Primitives Despite Contention") both make the same point: reducing how
// many threads touch one line beats micro-tuning the RMW itself.
//
// SlotAllocator applies that here. Each *lane* (thread) holds a private
// cache-line-padded cursor pair [next, end); grant(lane) hands out
// next++ and only refills from the shared cursor — one fetch_add per
// `chunk` slots — when the lane runs dry. The shared-line RMW rate drops
// by the chunk factor (util::kSlotChunk = 256 by default).
//
// The price is *holes*: at round end each lane may hold an unused tail of
// its last chunk. compact() squeezes them out in place — serial, at the
// step boundary — so callers see a dense prefix exactly as fetch_add would
// have produced, in unspecified order (slot-allocating CWs are
// order-insensitive by construction; the paper's arbitrary-CW semantics
// promise no order either).
//
// Threading contract: at most one thread uses a given lane at a time
// (OpenMP kernels pass omp_get_thread_num(); raw-thread tests pass their
// own dense ids). grant() may run concurrently across lanes; everything
// else (compact, reset, counter readout) is serial, between parallel
// regions. Capacity: a round that performs G grants touches at most
// G + lanes·chunk slot indices, so destination arrays need that much slack
// (capacity_for()).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"
#include "util/chunking.hpp"

namespace crcw {

class SlotAllocator {
 public:
  /// `lanes` = max concurrent threads (one padded cursor each); `chunk` =
  /// slots granted per shared fetch_add (util::kSlotChunk by default).
  explicit SlotAllocator(int lanes, std::uint64_t chunk = util::kSlotChunk)
      : lanes_(static_cast<std::size_t>(lanes > 0 ? lanes : 1)),
        chunk_(chunk > 0 ? chunk : 1) {}

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] std::uint64_t chunk() const noexcept { return chunk_; }

  /// Destination-array slack needed on top of the maximum grant count.
  [[nodiscard]] std::uint64_t slack() const noexcept {
    return static_cast<std::uint64_t>(lanes()) * chunk_;
  }
  /// Array size that can absorb `max_grants` grants including holes.
  [[nodiscard]] std::uint64_t capacity_for(std::uint64_t max_grants) const noexcept {
    return max_grants + slack();
  }

  /// Allocates one slot for `lane`. Concurrent across lanes; one shared
  /// fetch_add per `chunk` grants, private arithmetic otherwise. There is
  /// no retry loop here to back off (util/backoff.hpp): every fetch_add
  /// succeeds unconditionally, so backoff would only delay a grant that
  /// cannot fail.
  [[nodiscard]] std::uint64_t grant(int lane) noexcept {
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    ++l.grants;
    if (l.next == l.end) {
      l.next = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
      l.end = l.next + chunk_;
      ++l.refills;
    }
    return l.next++;
  }

  /// Highest slot index handed out this round, holes included (= the
  /// shared cursor). Serial or post-barrier only.
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Squeezes the round's per-lane holes out of data[0, high_water()) so
  /// the granted elements occupy data[0, dense) — in unspecified order —
  /// then resets every lane and the shared cursor for the next round.
  /// Serial, at the step boundary; returns dense (= grants this round).
  template <typename T>
  std::uint64_t compact(T* data) {
    const std::uint64_t high = high_water();

    // The round's holes: each lane's unconsumed [next, end), ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> holes;
    holes.reserve(lanes());
    for (const Lane& l : lanes_) {
      if (l.end > l.next) holes.emplace_back(l.next, l.end);
    }
    std::sort(holes.begin(), holes.end());

    std::uint64_t hole_total = 0;
    for (const auto& [b, e] : holes) hole_total += e - b;
    const std::uint64_t dense = high - hole_total;

    // Used runs = complement of the holes in [0, high).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> used;
    used.reserve(holes.size() + 1);
    std::uint64_t pos = 0;
    for (const auto& [b, e] : holes) {
      if (b > pos) used.emplace_back(pos, b);
      pos = e;
    }
    if (high > pos) used.emplace_back(pos, high);

    // Fill hole positions below `dense` (ascending) from used positions at
    // or above `dense` (descending) — the counts match by construction.
    std::size_t ui = used.size();
    std::uint64_t src_hi = 0;  // one past the next source (descending)
    auto next_src = [&]() -> std::uint64_t {
      while (src_hi == 0 || src_hi <= dense ||
             (ui < used.size() && src_hi <= used[ui].first)) {
        --ui;
        src_hi = used[ui].second;
      }
      return --src_hi;
    };
    for (const auto& [b, e] : holes) {
      if (b >= dense) break;
      const std::uint64_t stop = std::min(e, dense);
      for (std::uint64_t d = b; d < stop; ++d) {
        data[d] = std::move(data[next_src()]);
      }
    }

    reset_round();
    return dense;
  }

  /// Abandons the round's grants without compacting (e.g. the caller
  /// consumed the sparse layout itself). Serial.
  void reset_round() noexcept {
    for (Lane& l : lanes_) l.next = l.end = 0;
    cursor_.store(0, std::memory_order_relaxed);
  }

  /// Lifetime totals across rounds (for profile passes). Serial or
  /// post-barrier only.
  [[nodiscard]] std::uint64_t grants() const noexcept {
    std::uint64_t t = 0;
    for (const Lane& l : lanes_) t += l.grants;
    return t;
  }
  /// Shared-cursor RMWs issued — the number the chunking exists to shrink.
  [[nodiscard]] std::uint64_t refills() const noexcept {
    std::uint64_t t = 0;
    for (const Lane& l : lanes_) t += l.refills;
    return t;
  }

 private:
  // Plain (non-atomic) members: a lane is owned by one thread at a time,
  // and the compacting thread reads them only after the team's barrier.
  struct alignas(util::kCacheLineSize) Lane {
    std::uint64_t next = 0;
    std::uint64_t end = 0;
    std::uint64_t grants = 0;   // lifetime
    std::uint64_t refills = 0;  // lifetime
  };
  static_assert(sizeof(Lane) == util::kCacheLineSize);

  std::vector<Lane> lanes_;
  alignas(util::kCacheLineSize) std::atomic<std::uint64_t> cursor_{0};
  std::uint64_t chunk_;
};

}  // namespace crcw
