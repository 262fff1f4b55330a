// Shared plumbing of the benchmark: clocks, memory readings, the
// log-linear latency histogram, key streams and the thread budget.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/op.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Reads one "<field>: <n> kB" line of /proc/self/status, in KiB (0 if absent).
[[nodiscard]] inline std::uint64_t proc_status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) return std::stoull(line.substr(field.size() + 1));
  }
  return 0;
}

[[nodiscard]] inline double peak_rss_mib() { return proc_status_kib("VmHWM") / 1024.0; }
[[nodiscard]] inline std::uint64_t current_rss_bytes() {
  return proc_status_kib("VmRSS") * 1024;
}

/// Median of a sample set (the mean of the middle pair for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Log-linear histogram (the HdrHistogram shape): values below 128 are
/// exact; above, each power-of-two octave splits into 64 linear
/// sub-buckets, so a bucket is at most 1/64 of its lower edge wide. A
/// quantile is interpolated by rank inside its bucket, so it is within
/// 1/64 (≈1.6%) of the true sample quantile. Not thread-safe: each thread
/// records into its own and merges at the end.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 6;                   // 64 sub-buckets per octave
  static constexpr std::uint64_t kLinear = 2u << kSubBits;  // exact below 128
  static constexpr std::size_t kBuckets = kLinear + (64 - kSubBits - 1) * (1u << kSubBits);
  /// Bound on |reported − true| / true for any quantile the histogram reports.
  static constexpr double kMaxRelativeError = 1.0 / (1u << kSubBits);

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v, std::uint64_t count = 1) noexcept {
    counts_[index(v)] += count;
    total_ += count;
  }

  void merge(const LatencyHistogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// The p-quantile (p in [0,1]): the sample of rank floor(p·count), placed
  /// inside its bucket by its rank among the bucket's samples; 0 when empty.
  [[nodiscard]] double quantile(double p) const noexcept {
    if (total_ == 0) return 0.0;
    const double clamped = std::clamp(p, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(clamped * static_cast<double>(total_));
    if (rank >= total_) rank = total_ - 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] > rank) {
        if (i < kLinear) return static_cast<double>(i);
        const double within = (static_cast<double>(rank - seen) + 0.5) /
                              static_cast<double>(counts_[i]);
        return lower(i) + within * width(i);
      }
      seen += counts_[i];
    }
    return lower(kBuckets - 1);
  }

  [[nodiscard]] static std::size_t index(std::uint64_t v) noexcept {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const auto shift = static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
    const std::uint64_t sub = v >> shift;  // in [64, 128)
    return static_cast<std::size_t>(kLinear + (shift - 1) * (1u << kSubBits) +
                                    (sub - (1u << kSubBits)));
  }

  /// Smallest value bucket i holds, and how many consecutive values it holds.
  [[nodiscard]] static double lower(std::size_t i) noexcept {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t k = i - kLinear;
    const std::uint64_t sub = (k & ((1u << kSubBits) - 1)) + (1u << kSubBits);
    return static_cast<double>(sub << shift_of(i));
  }
  [[nodiscard]] static double width(std::size_t i) noexcept {
    return i < kLinear ? 1.0 : static_cast<double>(std::uint64_t{1} << shift_of(i));
  }

 private:
  [[nodiscard]] static unsigned shift_of(std::size_t i) noexcept {
    return static_cast<unsigned>((i - kLinear) >> kSubBits) + 1;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// A client's pre-generated op stream; the measured loop cycles through it.
struct OpStream {
  std::vector<crcw::serve::Op> ops;
  [[nodiscard]] const crcw::serve::Op& at(std::uint64_t i) const noexcept {
    return ops[i % ops.size()];
  }
};

/// Threads a workload runs beside the idle coordinator: load generators,
/// the dedicated pump (0 when clients help-pump), the extra OpenMP workers
/// of the round executor (its master is the pump), and wire handlers.
struct ThreadBudget {
  int generators = 0;
  int pump = 0;
  int exec_width = 0;
  int handlers = 0;
  int nproc = 0;

  [[nodiscard]] int total() const noexcept {
    // The executor's master thread is whichever thread pumps: the pump
    // thread, or else every generator, as each help-pumps and so leads an
    // OpenMP team of its own.
    const int masters = pump > 0 ? pump : generators;
    return generators + pump + masters * (exec_width > 1 ? exec_width - 1 : 0) + handlers;
  }
  void enforce() const {
    if (total() > nproc) {
      throw std::runtime_error("thread budget " + std::to_string(total()) + " exceeds nproc " +
                               std::to_string(nproc));
    }
  }
};

/// Cache-line-padded counter, one per client thread.
struct alignas(64) PaddedCounter {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace perfbench
