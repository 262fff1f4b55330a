// InstrumentedPolicy — a policy adapter that counts what each method
// actually executes, making the §6 asymptotic argument *measurable*:
//
//   attempts     calls to try_acquire (contenders arriving at the CW site)
//   atomics      atomic RMW instructions actually issued (the quantity the
//                gatekeeper scheme cannot bound and CAS-LT caps at one
//                successful CAS per round plus failed races)
//   wins         writes admitted
//
// Wrap a policy whose acquire takes an RMW callback (CasLtPolicy,
// GatekeeperPolicy, GatekeeperSkipPolicy):
// WriteArbiter<InstrumentedPolicy<CasLtPolicy>>. Counters
// are INSTANCE-owned: each such arbiter constructs its own
// obs::ContentionSite (named after the base policy) and registers it with
// the current obs::MetricsRegistry — two instrumented arbiters in one
// process count independently, and a harness reads results through
// `arbiter.contention()` or a registry snapshot. Intended for tests and
// profiling runs, not for production kernels (the counters themselves cost
// RMWs — per-thread-sharded ones, but RMWs nonetheless).
#pragma once

#include <string_view>
#include <type_traits>

#include "core/policies.hpp"
#include "obs/metrics.hpp"

namespace crcw {

template <typename Base>
struct InstrumentedPolicy {
  /// The base tag itself: counting runs through Base's own acquire, so the
  /// counters count the RMWs of the code the figures time.
  using tag_type = typename Base::tag_type;
  static constexpr bool kNeedsRoundReset = Base::kNeedsRoundReset;
  /// Marks the policy for WriteArbiter's InstrumentedWritePolicy detection:
  /// the arbiter owns a ContentionSite and calls the 3-argument overload.
  static constexpr bool kInstrumented = true;
  /// Sites inherit the base policy's name, so registry snapshots and the
  /// BENCH_*.json "policy" field line up.
  static constexpr std::string_view kName = Base::kName;

  /// The counted path — what WriteArbiter::acquire_at routes through: one
  /// attempt, one atomic per RMW the base acquire issues (none on its
  /// skip), one win if it admitted the write.
  static bool try_acquire(tag_type& tag, round_t round, obs::ContentionSite& site) noexcept {
    site.count_attempt();
    const bool won = Base::try_acquire(tag, round, [&site] { site.count_atomic(); });
    if (won) site.count_win();
    return won;
  }

  /// Uncounted fallback satisfying the WritePolicy concept, for raw-tag
  /// users (ConWriteCell etc.) that carry no site.
  static bool try_acquire(tag_type& tag, round_t round) noexcept {
    return Base::try_acquire(tag, round);
  }

  static void reset(tag_type& tag) noexcept { Base::reset(tag); }
};

/// Each paper method has one acquire: an instrumented tag that differed
/// from the base tag would be a counting replica free to drift from it.
template <typename Base>
inline constexpr bool kCountsThroughBaseTag =
    WritePolicy<InstrumentedPolicy<Base>> &&
    std::is_same_v<typename InstrumentedPolicy<Base>::tag_type, typename Base::tag_type>;

static_assert(kCountsThroughBaseTag<CasLtPolicy>);
static_assert(kCountsThroughBaseTag<GatekeeperPolicy>);
static_assert(kCountsThroughBaseTag<GatekeeperSkipPolicy>);

}  // namespace crcw
