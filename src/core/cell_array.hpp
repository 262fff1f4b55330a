// ConWriteArray — an array of concurrent-write targets sharing one round.
//
// The shape every kernel in src/algorithms builds by hand: a payload array,
// a parallel tag array, and a round counter advanced once per lock-step
// time step. ConWriteArray packages it so application code reads like the
// PRAM pseudo-code:
//
//   crcw::ConWriteArray<Record> cells(n);
//   for (each time step) {
//     cells.begin_round();                        // serial, between steps
//     #pragma omp parallel for
//     for (...) if (cells.try_write(u, record)) { ... }
//     // barrier = synchronisation point; then cells[u] is stable
//   }
//
// For gatekeeper-family policies begin_round performs the required O(N)
// re-initialisation (optionally in parallel via begin_round_parallel); for
// CAS-LT it is a single increment — the §6 cost difference, embodied.
#pragma once

#include <omp.h>

#include <cstddef>
#include <utility>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "util/aligned_buffer.hpp"
#include "util/sanitizer.hpp"

namespace crcw {

template <typename T, WritePolicy Policy = CasLtPolicy,
          TagLayout Layout = TagLayout::kPacked>
class ConWriteArray {
  static_assert(kSingleWinner<Policy>,
                "ConWriteArray requires a single-winner policy; for naive "
                "common writes use a plain array");

 public:
  using value_type = T;
  using policy_type = Policy;

  ConWriteArray() = default;

  explicit ConWriteArray(std::size_t n, T initial = T{})
      : values_(n, initial), arbiter_(n) {}

  /// Perf-layer construction: ArbiterConfig selects first-touch placement;
  /// the payload array follows the same placement as the tags.
  ConWriteArray(std::size_t n, const ArbiterConfig& cfg, T initial = T{})
      : values_(n, initial, cfg.first_touch, cfg.first_touch_threads),
        arbiter_(n, cfg) {}

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] round_t round() const noexcept { return arbiter_.round(); }

  /// Starts the next concurrent-write step (serial; call between parallel
  /// regions). Returns the new round id.
  round_t begin_round() { return arbiter_.next_round(ResetMode::kPolicy).round(); }

  /// Same, but runs the policy's per-round tag reset (if any) work-shared
  /// over OpenMP threads — what the Fig 3(b) kernel does on lines 34-35.
  round_t begin_round_parallel(int threads = 0) {
    if constexpr (Policy::kNeedsRoundReset) {
      auto scope = arbiter_.next_round(ResetMode::kCaller);
      arbiter_.reset_tags_parallel(threads);
      return scope.round();
    } else {
      return arbiter_.next_round(ResetMode::kNone).round();
    }
  }

  /// Concurrent write of `v` into cell i under the current round; true iff
  /// the calling thread won.
  bool try_write(std::size_t i, const T& v) {
    if (!arbiter_.try_acquire(i)) return false;
    // Benign under TSan: single arbiter winner per (cell, round); the step
    // barrier publishes the store (same annotation discipline as ConWriteCell).
    const util::TsanIgnoreWritesScope published_by_barrier;
    values_[i] = v;
    return true;
  }

  bool try_write(std::size_t i, T&& v) {
    if (!arbiter_.try_acquire(i)) return false;
    const util::TsanIgnoreWritesScope published_by_barrier;
    values_[i] = std::move(v);
    return true;
  }

  /// Explicit-round overload (round ids managed by the caller, e.g. the
  /// BFS level counter).
  bool try_write(std::size_t i, round_t round, const T& v) {
    if (!arbiter_.acquire_at(i, round)) return false;
    const util::TsanIgnoreWritesScope published_by_barrier;
    values_[i] = v;
    return true;
  }

  /// Winner-computes form.
  template <typename Factory>
    requires std::is_invocable_r_v<T, Factory>
  bool try_write_with(std::size_t i, Factory&& make) {
    if (!arbiter_.try_acquire(i)) return false;
    T made = std::forward<Factory>(make)();
    const util::TsanIgnoreWritesScope published_by_barrier;
    values_[i] = std::move(made);
    return true;
  }

  /// True iff cell i was already written this round (cheap probe; CAS-LT
  /// reads the tag, gatekeeper reads the counter).
  [[nodiscard]] bool written(std::size_t i) {
    if constexpr (std::is_same_v<Policy, CasLtPolicy> ||
                  std::is_same_v<Policy, CasLtRetryPolicy> ||
                  std::is_same_v<Policy, CasLtNoSkipPolicy>) {
      return arbiter_.tag(i).committed(arbiter_.round());
    } else if constexpr (std::is_same_v<Policy, GatekeeperPolicy> ||
                         std::is_same_v<Policy, GatekeeperSkipPolicy>) {
      return arbiter_.tag(i).taken();
    } else {
      return false;  // CriticalPolicy: no cheap probe; callers re-acquire
    }
  }

  /// Post-synchronisation read access.
  [[nodiscard]] const T& operator[](std::size_t i) const { return values_[i]; }
  [[nodiscard]] T& value(std::size_t i) { return values_[i]; }
  [[nodiscard]] const util::AlignedBuffer<T>& values() const noexcept { return values_; }

  /// Full reset: tags and round to fresh (payloads untouched).
  void reset_tags() { arbiter_.reset_all(); }

 private:
  // Cache-line-aligned (not std::vector) so the payload pages can be
  // first-touched by the team that will write them, like the tags.
  util::AlignedBuffer<T> values_;
  WriteArbiter<Policy, Layout> arbiter_;
};

}  // namespace crcw
