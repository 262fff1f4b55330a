// ServeMetrics — the obs/ face of the serving layer.
//
// Two kinds of signal:
//   * latency Histograms (always on — recording is one relaxed increment):
//     enqueue→admit (queueing delay the admission policy controls) and
//     the client-visible enqueue→commit whose p99 the bench reports;
//   * an optional `serve` ContentionSite (BatchConfig::counters) mapping
//     the engine onto the shared counter vocabulary:
//       attempts   ops admitted into rounds
//       wins       write ops that won their (key, round) arbitration
//       refills    batches closed by the scheduler
//       rounds     CRCW rounds executed (one flush_round per round)
//     `atomics` is not counted at serve granularity — the table's own
//     telemetry (HashConfig::telemetry) counts the real CASes; a profile
//     pass merges both through one ScopedRegistry.
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

  // -- latency (hot path of the pump; any thread) ---------------------------
  void record_admit(std::uint64_t enqueue_ns, std::uint64_t admit_ns) noexcept {
    enqueue_to_admit_.record(admit_ns - enqueue_ns);
  }
  void record_commit(std::uint64_t enqueue_ns, std::uint64_t commit_ns) noexcept {
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
