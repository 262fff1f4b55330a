// ServeMetrics — the obs/ face of the serving layer.
//
// Two kinds of signal:
//   * latency Histograms (always on): enqueue→admit (queueing delay the
//     admission policy controls) and the client-visible enqueue→commit
//     whose p99 the bench reports. The round engine tallies a round's
//     samples into plain bucket arrays and folds them in once per round
//     (add_latencies), so no op pays an RMW on a shared bucket; totals
//     are complete once the round's epilog has run;
//   * an optional `serve` ContentionSite (BatchConfig::counters), the
//     engine's only site, mapping it onto the shared counter vocabulary —
//     each event counted once, however many shards ran it:
//       attempts   ops admitted into rounds
//       wins       write ops that won their (key, round) arbitration
//       refills    batches closed by the scheduler
//       rounds     CRCW rounds executed (one flush_round per round)
//     `atomics` is not counted at serve granularity — the table's own
//     telemetry (HashConfig::telemetry) counts the real CASes; a profile
//     pass merges both through one ScopedRegistry. Per-shard op counts
//     are RoundEngine::shard_ops.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"

namespace crcw::serve {

class ServeMetrics {
 public:
  explicit ServeMetrics(bool counters) {
    if (counters) site_ = std::make_unique<obs::ContentionSite>("serve");
  }

  // -- latency (pump-serial: one fold per round) ---------------------------
  void add_latencies(const obs::Histogram::Counts& admit,
                     const obs::Histogram::Counts& commit) noexcept {
    enqueue_to_admit_.add(admit);
    enqueue_to_commit_.add(commit);
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

  /// Always 1.0: RoundEngine::try_enqueue puts every op in a lane of its
  /// key's own shard, so every op drains from its own shard's lanes. Kept
  /// because perfbench's ladder reports it as `shards.hit_rate`.
  [[nodiscard]] double routing_hit_rate() const noexcept { return 1.0; }

  // -- reporting ------------------------------------------------------------
  [[nodiscard]] const obs::Histogram& enqueue_to_admit() const noexcept {
    return enqueue_to_admit_;
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

  [[nodiscard]] bool counters_enabled() const noexcept { return site_ != nullptr; }
  [[nodiscard]] obs::ContentionSite* site() noexcept { return site_.get(); }

 private:
  obs::Histogram enqueue_to_admit_;
  obs::Histogram enqueue_to_commit_;
  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw::serve
