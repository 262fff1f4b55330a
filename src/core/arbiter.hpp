// WriteArbiter — one conflict-resolution tag per concurrent-write target.
//
// PRAM kernels perform concurrent writes into whole arrays (Parent[],
// Level[], isMax[], …). A WriteArbiter owns the parallel array of tags and
// the round counter, and — for policies that require it — performs the
// per-round re-initialisation sweep whose cost the paper charges to the
// gatekeeper scheme (§6: depth O(1), work O(N) per round).
//
// Round lifecycle (the only supported way to advance rounds):
//
//   {
//     auto scope = arbiter.next_round();          // PRAM step boundary
//     #pragma omp parallel for
//     for (...) if (scope.acquire(target)) ...;   // concurrent writes
//   }                                             // scope end flushes metrics
//
// next_round takes a ResetMode describing who runs the gatekeeper sweep.
// Explicit-round kernels (the serve tables) pair next_round(kNone) with
// acquire_at(i, round) instead of the scope's acquire.
#pragma once

#include <omp.h>

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "core/policies.hpp"
#include "obs/metrics.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cacheline.hpp"

namespace crcw {

/// Tag layout: packed (dense, default — what the paper's kernels use) or
/// padded (one tag per cache line; ablation A1 measures the difference).
enum class TagLayout { kPacked, kPadded };

/// Who runs the per-round tag re-initialisation when the policy needs one
/// (Policy::kNeedsRoundReset):
enum class ResetMode {
  kPolicy,  ///< the arbiter sweeps serially before the round begins
  kCaller,  ///< the caller sweeps (e.g. reset_tags_parallel work-shared
            ///< across the OpenMP team, as Fig 3(b) lines 34-35 do)
  kNone,    ///< no sweep: tags are known-fresh or the policy never resets
};

/// Construction-time knobs for WriteArbiter (all default to the
/// paper-faithful behaviour).
struct ArbiterConfig {
  /// Page placement of the tag array (util::FirstTouch::kParallel faults
  /// pages in under the same static schedule the reset sweep uses).
  util::FirstTouch first_touch = util::FirstTouch::kSerial;
  int first_touch_threads = 0;  ///< 0 = OpenMP default
};

/// Marker detection: an instrumented policy exposes kInstrumented plus a
/// 3-argument try_acquire(tag, round, ContentionSite&) (see
/// core/instrumented.hpp). The arbiter then owns a ContentionSite and
/// routes every acquire through it.
template <typename P>
concept InstrumentedWritePolicy = WritePolicy<P> && requires { P::kInstrumented; };

template <WritePolicy Policy, TagLayout Layout = TagLayout::kPacked>
class WriteArbiter {
  using Tag = typename Policy::tag_type;
  using Stored =
      std::conditional_t<Layout == TagLayout::kPadded, util::Padded<Tag>, Tag>;

  static constexpr bool kInstrumentedPolicy = InstrumentedWritePolicy<Policy>;

 public:
  using policy_type = Policy;

  /// One concurrent-write step. Holds the round id fixed for its lifetime;
  /// acquire(i) races the calling thread for target i in that round. At
  /// scope end the round's contention counters flush into the arbiter's
  /// ContentionSite histograms (instrumented policies only) — which is why
  /// the scope is deliberately non-copyable and non-movable: exactly one
  /// flush per round, at the step boundary where it is serial-safe.
  class RoundScope {
   public:
    RoundScope(const RoundScope&) = delete;
    RoundScope& operator=(const RoundScope&) = delete;

    ~RoundScope() { arbiter_.flush_round_metrics(); }

    [[nodiscard]] round_t round() const noexcept { return round_; }

    /// True iff the calling thread won this round's write to target i.
    bool acquire(std::size_t i) { return arbiter_.acquire_at(i, round_); }

   private:
    friend class WriteArbiter;
    RoundScope(WriteArbiter& a, round_t r) noexcept : arbiter_(a), round_(r) {}

    WriteArbiter& arbiter_;
    round_t round_;
  };

  WriteArbiter() { init_site(); }

  explicit WriteArbiter(std::size_t targets) : tags_(targets) { init_site(); }

  WriteArbiter(std::size_t targets, const ArbiterConfig& cfg)
      : tags_(targets, cfg.first_touch, cfg.first_touch_threads) {
    init_site();
  }

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
  [[nodiscard]] round_t round() const noexcept { return round_; }

  /// Starts the next concurrent-write step. Not thread-safe: call it from
  /// serial code (or a single thread) between parallel regions — the same
  /// place the PRAM model puts its step boundary. ResetMode::kPolicy runs
  /// the O(N) gatekeeper sweep here, serially; kCaller defers it to the
  /// caller (pair with reset_tags_parallel()); kNone skips it.
  [[nodiscard]] RoundScope next_round(ResetMode mode = ResetMode::kPolicy) {
    ++round_;
    if constexpr (Policy::kNeedsRoundReset) {
      if (mode == ResetMode::kPolicy) {
        for (std::size_t i = 0; i < tags_.size(); ++i) Policy::reset(tag(i));
        count_reset_tags(tags_.size());
      }
    }
    return RoundScope(*this, round_);
  }

  /// Acquire target i at an explicit round id, for kernels that reuse a
  /// loop index as the round (paper §5: "round could be substituted by the
  /// loop iteration"). The caller owns monotonicity of `round` per target
  /// — and, for instrumented runs, calls flush_round_metrics() at its own
  /// step boundaries. Every acquire path funnels through here.
  bool acquire_at(std::size_t i, round_t round) {
    if constexpr (kInstrumentedPolicy) {
      return Policy::try_acquire(tag(i), round, *site_);
    } else {
      return Policy::try_acquire(tag(i), round);
    }
  }

  /// True iff the calling thread won the current-round write to target i.
  bool try_acquire(std::size_t i) { return acquire_at(i, round_); }

  /// The gatekeeper re-initialisation sweep, work-shared across the OpenMP
  /// team (Fig 3(b) lines 34-35: O(N) work, O(N/P) depth). Pair with
  /// next_round(ResetMode::kCaller); no-op for policies without per-round
  /// reset. `threads <= 0` means the OpenMP default.
  void reset_tags_parallel(int threads = 0) {
    if constexpr (Policy::kNeedsRoundReset) {
      if (threads <= 0) threads = omp_get_max_threads();
      const auto n = static_cast<std::ptrdiff_t>(tags_.size());
#pragma omp parallel for num_threads(threads) schedule(static)
      for (std::ptrdiff_t i = 0; i < n; ++i) {
        Policy::reset(tag(static_cast<std::size_t>(i)));
      }
      count_reset_tags(tags_.size());
    }
  }

  /// Direct tag access for kernels that manage rounds themselves.
  Tag& tag(std::size_t i) {
    if constexpr (Layout == TagLayout::kPadded) {
      return tags_[i].value;
    } else {
      return tags_[i];
    }
  }

  /// Re-seeds the round counter, serially, without touching tags. The
  /// snapshot restore path uses this so post-restore rounds continue the
  /// committed sequence strictly increasing: a checkpoint taken at cut r
  /// replays into fresh tables whose tags carry rounds <= r, and the next
  /// next_round() must hand out r+1, never a round some restored tag
  /// already holds. Seeding backwards would violate CAS-LT monotonicity,
  /// so it is rejected.
  void reseed_round(round_t r) {
    assert(r >= round_ && "reseed_round must not move the round backwards");
    round_ = r;
  }

  /// Restores every tag and the round counter to the fresh state; serial.
  void reset_all() {
    for (std::size_t i = 0; i < tags_.size(); ++i) Policy::reset(tag(i));
    round_ = kInitialRound;
  }

  /// Folds the round's contention deltas into the per-round histograms.
  /// RoundScope does this automatically; only explicit-round kernels
  /// (acquire_at) call it by hand, from serial code at step boundaries.
  void flush_round_metrics() noexcept {
    if constexpr (kInstrumentedPolicy) site_->flush_round();
  }

  /// The instance-owned contention counters (instrumented policies only).
  [[nodiscard]] obs::ContentionSite& contention() noexcept
    requires(kInstrumentedPolicy)
  {
    return *site_;
  }
  [[nodiscard]] const obs::ContentionSite& contention() const noexcept
    requires(kInstrumentedPolicy)
  {
    return *site_;
  }

 private:
  void init_site() {
    if constexpr (kInstrumentedPolicy) {
      site_ = std::make_unique<obs::ContentionSite>(std::string(Policy::kName));
    }
  }

  void count_reset_tags(std::uint64_t k) noexcept {
    if constexpr (kInstrumentedPolicy) {
      if (k > 0) site_->add_reset_tags(k);
    }
  }

  util::AlignedBuffer<Stored> tags_;
  round_t round_ = kInitialRound;
  // Heap-owned so the arbiter stays movable (ContentionSite pins its
  // address in the registry); null for uninstrumented policies.
  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw

