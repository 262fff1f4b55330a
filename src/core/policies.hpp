// Write-conflict-resolution policies.
//
// Every method the paper evaluates (and the critical-section strawman it
// dismisses) is expressed as a stateless policy over a per-target tag type,
// so one kernel template instantiates all the variants compared in §7.
//
// Policy contract:
//   tag_type                     per-target auxiliary state
//   static bool try_acquire(tag_type&, round_t)
//                                true ⇒ caller commits the write, exactly one
//                                contender per (tag, round) gets true
//                                (except NaivePolicy, which admits everyone)
//   try_acquire(tag, round, on_rmw)
//                                the same acquire, calling on_rmw() just
//                                before each atomic RMW it issues (the
//                                paper's methods only: CAS-LT and both
//                                gatekeepers; InstrumentedPolicy counts
//                                through it)
//   static constexpr bool kNeedsRoundReset
//                                tag must be reset before each new round
//   static void reset(tag_type&) restore the tag to its pre-round state
//   static constexpr std::string_view kName
#pragma once

#include <mutex>
#include <string_view>
#include <type_traits>

#include "core/gatekeeper.hpp"
#include "core/round_tag.hpp"

namespace crcw {

/// Compile-time check that P implements the write-policy contract.
template <typename P>
concept WritePolicy = requires(typename P::tag_type& tag, round_t round) {
  { P::try_acquire(tag, round) } -> std::same_as<bool>;
  { P::kNeedsRoundReset } -> std::convertible_to<bool>;
  { P::reset(tag) };
  { P::kName } -> std::convertible_to<std::string_view>;
};

/// The paper's contribution: CAS-if-less-than on a round tag (Figure 1).
struct CasLtPolicy {
  using tag_type = RoundTag;
  static constexpr bool kNeedsRoundReset = false;
  static constexpr std::string_view kName = "caslt";

  static bool try_acquire(tag_type& tag, round_t round) noexcept {
    return tag.try_acquire(round);
  }
  template <typename OnRmw>
  static bool try_acquire(tag_type& tag, round_t round, OnRmw&& on_rmw) noexcept {
    return tag.try_acquire(round, on_rmw);
  }
  static void reset(tag_type& tag) noexcept { tag.reset(); }
};

/// CAS-LT with bounded retries — tolerant of racing distinct rounds.
struct CasLtRetryPolicy {
  using tag_type = RoundTag;
  static constexpr bool kNeedsRoundReset = false;
  static constexpr std::string_view kName = "caslt-retry";

  static bool try_acquire(tag_type& tag, round_t round) noexcept {
    return tag.try_acquire_retry(round);
  }
  static void reset(tag_type& tag) noexcept { tag.reset(); }
};

/// CAS-LT without the pre-load skip; ablation A2 (see DESIGN.md §5).
struct CasLtNoSkipPolicy {
  using tag_type = RoundTag;
  static constexpr bool kNeedsRoundReset = false;
  static constexpr std::string_view kName = "caslt-noskip";

  static bool try_acquire(tag_type& tag, round_t round) noexcept {
    return tag.try_acquire_no_skip(round);
  }
  static void reset(tag_type& tag) noexcept { tag.reset(); }
};

/// Prefix-sum / atomic-increment baseline (Figure 2). Ignores the round
/// argument; correctness relies on the per-round reset.
struct GatekeeperPolicy {
  using tag_type = Gatekeeper;
  static constexpr bool kNeedsRoundReset = true;
  static constexpr std::string_view kName = "gatekeeper";

  static bool try_acquire(tag_type& tag, round_t /*round*/) noexcept {
    return tag.try_acquire();
  }
  template <typename OnRmw>
  static bool try_acquire(tag_type& tag, round_t /*round*/, OnRmw&& on_rmw) noexcept {
    return tag.try_acquire(on_rmw);
  }
  static void reset(tag_type& tag) noexcept { tag.reset(); }
};

/// Gatekeeper with the pre-load early-out mitigation the paper mentions.
struct GatekeeperSkipPolicy {
  using tag_type = Gatekeeper;
  static constexpr bool kNeedsRoundReset = true;
  static constexpr std::string_view kName = "gatekeeper-skip";

  static bool try_acquire(tag_type& tag, round_t /*round*/) noexcept {
    return tag.try_acquire_skip();
  }
  template <typename OnRmw>
  static bool try_acquire(tag_type& tag, round_t /*round*/, OnRmw&& on_rmw) noexcept {
    return tag.try_acquire_skip(on_rmw);
  }
  static void reset(tag_type& tag) noexcept { tag.reset(); }
};

/// Rodinia's method (paper §3): admit every contender and let the coherence
/// protocol serialise the stores. Safe ONLY for *common* concurrent writes
/// of single-transaction (word-sized) payloads; arbitrary or multi-word
/// writes through this policy can commit torn or mixed values.
struct NaivePolicy {
  /// No auxiliary state; an empty tag keeps the kernel templates uniform.
  struct tag_type {};
  static constexpr bool kNeedsRoundReset = false;
  static constexpr std::string_view kName = "naive";

  static bool try_acquire(tag_type& /*tag*/, round_t /*round*/) noexcept { return true; }
  static void reset(tag_type& /*tag*/) noexcept {}
};

/// The "trivial but bad" solution of §4: serialise contenders on a mutex and
/// replay the CAS-LT decision under the lock. Correct for every CW flavour;
/// exists as the pessimal baseline for the ablation benches.
struct CriticalPolicy {
  struct tag_type {
    std::mutex mutex;
    round_t last_round = kInitialRound;
  };
  static constexpr bool kNeedsRoundReset = false;
  static constexpr std::string_view kName = "critical";

  static bool try_acquire(tag_type& tag, round_t round) {
    const std::lock_guard<std::mutex> lock(tag.mutex);
    if (tag.last_round >= round) return false;
    tag.last_round = round;
    return true;
  }
  static void reset(tag_type& tag) {
    const std::lock_guard<std::mutex> lock(tag.mutex);
    tag.last_round = kInitialRound;
  }
};

static_assert(WritePolicy<CasLtPolicy>);
static_assert(WritePolicy<CasLtRetryPolicy>);
static_assert(WritePolicy<CasLtNoSkipPolicy>);
static_assert(WritePolicy<GatekeeperPolicy>);
static_assert(WritePolicy<GatekeeperSkipPolicy>);
static_assert(WritePolicy<NaivePolicy>);
static_assert(WritePolicy<CriticalPolicy>);

/// True when the policy admits exactly one winner per (tag, round); only
/// such policies are safe for arbitrary CW and multi-word payloads.
template <WritePolicy P>
inline constexpr bool kSingleWinner = !std::is_same_v<P, NaivePolicy>;

}  // namespace crcw
