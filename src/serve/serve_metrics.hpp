// ServeMetrics — the obs/ face of the serving layer.
//
// Two kinds of signal, matching the ISSUE's obs integration ask:
//   * latency Histograms (always on — recording is one relaxed increment):
//     enqueue→admit (queueing delay the admission policy controls),
//     admit→commit (round execution time), and the client-visible sum
//     enqueue→commit whose p99 the bench reports;
//   * an optional `serve` ContentionSite (BatchConfig::counters) mapping
//     the engine onto the shared counter vocabulary:
//       attempts   ops admitted into rounds
//       wins       write ops that won their (key, round) arbitration
//       refills    batches closed by the scheduler
//       rounds     CRCW rounds executed (one flush_round per round)
//     `atomics` is not counted at serve granularity — the table's own
//     telemetry (HashConfig::telemetry) counts the real CASes; a profile
//     pass merges both through one ScopedRegistry.
//
// The round engine also feeds a routing surface: relaxed local/foreign op
// counters (did a drained op land in a lane of its key's own shard?) and
// an ops-per-(shard, round) histogram, so shard-local batch placement is
// measurable without per-op cost — one bulk update per drain, one record
// per shard per round, all from under the pump lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"

namespace crcw::serve {

class ServeMetrics {
 public:
  explicit ServeMetrics(bool counters) {
    if (counters) site_ = std::make_unique<obs::ContentionSite>("serve");
  }

  // -- latency (hot path of the pump; any thread) ---------------------------
  void record_admit(std::uint64_t enqueue_ns, std::uint64_t admit_ns) noexcept {
    enqueue_to_admit_.record(admit_ns - enqueue_ns);
  }
  void record_commit(std::uint64_t enqueue_ns, std::uint64_t admit_ns,
                     std::uint64_t commit_ns) noexcept {
    admit_to_commit_.record(commit_ns - admit_ns);
    enqueue_to_commit_.record(commit_ns - enqueue_ns);
  }

  // -- counters (no-ops when the site is off) -------------------------------
  void ops_admitted(std::uint64_t k) noexcept {
    if (site_ && k > 0) site_->add_attempts(k);
  }
  void write_wins(std::uint64_t k) noexcept {
    if (site_ && k > 0) site_->add_wins(k);
  }
  void batch_closed() noexcept {
    if (site_) site_->add_refills(1);
  }
  void flush_round() noexcept {
    if (site_) site_->flush_round();
  }

  // -- routing (bulk updates from under the pump lock) ----------------------
  void routed(std::uint64_t local, std::uint64_t foreign) noexcept {
    if (local != 0) route_local_.fetch_add(local, std::memory_order_relaxed);
    if (foreign != 0) route_foreign_.fetch_add(foreign, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t route_local() const noexcept {
    return route_local_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t route_foreign() const noexcept {
    return route_foreign_.load(std::memory_order_relaxed);
  }
  /// Fraction of routed ops that drained shard-local (1.0 before any
  /// drain; with one shard every drained op is local).
  [[nodiscard]] double routing_hit_rate() const noexcept {
    const std::uint64_t l = route_local();
    const std::uint64_t f = route_foreign();
    return l + f == 0 ? 1.0 : static_cast<double>(l) / static_cast<double>(l + f);
  }
  /// One sample per (shard, round) that executed ops: how many it ran —
  /// the shard-balance histogram (a skewed key space shows up as a wide
  /// spread here while the hit rate stays at 1.0).
  void record_shard_round_ops(std::uint64_t ops) noexcept { ops_per_shard_round_.record(ops); }
  [[nodiscard]] const obs::Histogram& ops_per_shard_round() const noexcept {
    return ops_per_shard_round_;
  }

  // -- reporting ------------------------------------------------------------
  [[nodiscard]] const obs::Histogram& enqueue_to_admit() const noexcept {
    return enqueue_to_admit_;
  }
  [[nodiscard]] const obs::Histogram& admit_to_commit() const noexcept {
    return admit_to_commit_;
  }
  [[nodiscard]] const obs::Histogram& enqueue_to_commit() const noexcept {
    return enqueue_to_commit_;
  }

  /// Upper bound (bucket edge) of the p99 enqueue→commit latency in ns —
  /// the SLO number bench/ext_serve.cpp reports; 0 when no op completed.
  [[nodiscard]] std::uint64_t p99_enqueue_to_commit_ns() const noexcept {
    return enqueue_to_commit_.quantile_upper_bound(0.99);
  }
  [[nodiscard]] std::uint64_t p99_enqueue_to_admit_ns() const noexcept {
    return enqueue_to_admit_.quantile_upper_bound(0.99);
  }
  [[nodiscard]] std::uint64_t p99_admit_to_commit_ns() const noexcept {
    return admit_to_commit_.quantile_upper_bound(0.99);
  }

  [[nodiscard]] bool counters_enabled() const noexcept { return site_ != nullptr; }
  [[nodiscard]] obs::ContentionSite* site() noexcept { return site_.get(); }

  /// Clears the latency histograms (e.g. between bench repetitions). Not
  /// safe concurrently with a running pump.
  void reset_latency() noexcept {
    enqueue_to_admit_.reset();
    admit_to_commit_.reset();
    enqueue_to_commit_.reset();
  }

 private:
  obs::Histogram enqueue_to_admit_;
  obs::Histogram admit_to_commit_;
  obs::Histogram enqueue_to_commit_;
  obs::Histogram ops_per_shard_round_;
  std::atomic<std::uint64_t> route_local_{0};
  std::atomic<std::uint64_t> route_foreign_{0};
  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw::serve
