// Microbenchmark M2: multi-word payload concurrent writes (§4's motivating
// requirement — "structure and class copies").
//
// The cost of an arbitrary CW of a W-word struct under contention, per
// method: CAS-LT slot (one tag CAS + winner-only copy), critical section
// (lock + copy for every loser too, before it learns it lost), and the
// unsafe unprotected copy as the floor (every thread copies; result may be
// torn — measured only to show what the safety costs).
#include <omp.h>

#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "core/slot.hpp"
#include "util/timer.hpp"

namespace {

using crcw::ConWriteSlot;
using crcw::CriticalPolicy;
using crcw::round_t;
using crcw::Stamped;

constexpr int kRounds = 256;

/// Rows compare methods at equal payload width: the n field carries the
/// word count, so the caslt row at the same (threads, n) is the baseline.
crcw::bench::RowSpec spec(const char* method, std::size_t words, int threads) {
  std::string suffix = "-";
  suffix += std::to_string(words);
  suffix += 'w';
  const std::string policy = method + suffix;
  return {.series = "micro_slot/" + policy,
          .policy = policy,
          .baseline = "caslt" + suffix,
          .threads = threads,
          .n = words,
          .m = kRounds};
}

template <std::size_t Words>
void slot_caslt(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  crcw::bench::RowRecorder rec(state, spec("caslt", Words, threads));
  ConWriteSlot<Stamped<Words>> slot;
  for (auto _ : state) {
    slot.reset_tag();
    crcw::util::Timer timer;
#pragma omp parallel num_threads(threads)
    {
      const auto stamp = static_cast<std::uint64_t>(omp_get_thread_num() + 1);
      for (round_t r = 1; r <= kRounds; ++r) {
        (void)slot.try_write(r, Stamped<Words>(stamp * 1000 + r));
#pragma omp barrier
      }
    }
    rec.record(timer.seconds());
  }
  state.counters["payload_bytes"] = static_cast<double>(Words * 8);
}

template <std::size_t Words>
void slot_critical(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  crcw::bench::RowRecorder rec(state, spec("critical", Words, threads));
  ConWriteSlot<Stamped<Words>, CriticalPolicy> slot;
  for (auto _ : state) {
    slot.reset_tag();
    crcw::util::Timer timer;
#pragma omp parallel num_threads(threads)
    {
      const auto stamp = static_cast<std::uint64_t>(omp_get_thread_num() + 1);
      for (round_t r = 1; r <= kRounds; ++r) {
        (void)slot.try_write(r, Stamped<Words>(stamp * 1000 + r));
#pragma omp barrier
      }
    }
    rec.record(timer.seconds());
  }
  state.counters["payload_bytes"] = static_cast<double>(Words * 8);
}

template <std::size_t Words>
void slot_unprotected(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  crcw::bench::RowRecorder rec(state, spec("unprotected", Words, threads));
  ConWriteSlot<Stamped<Words>> slot;
  std::uint64_t torn = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
#pragma omp parallel num_threads(threads)
    {
      const auto stamp = static_cast<std::uint64_t>(omp_get_thread_num() + 1);
      for (round_t r = 1; r <= kRounds; ++r) {
        slot.write_unprotected(Stamped<Words>(stamp * 1000 + r));
#pragma omp barrier
      }
    }
    rec.record(timer.seconds());
    if (!slot.read_unprotected().consistent()) ++torn;
  }
  state.counters["payload_bytes"] = static_cast<double>(Words * 8);
  state.counters["torn_final_states"] = static_cast<double>(torn);
}

void args(benchmark::internal::Benchmark* b) {
  for (const int t : crcw::bench::sweep_points<int>({1, 2, 4, 8}, 2)) b->Arg(t);
  b->UseManualTime()->Unit(benchmark::kMicrosecond);
}

void slot_caslt_2w(benchmark::State& s) { slot_caslt<2>(s); }
void slot_caslt_8w(benchmark::State& s) { slot_caslt<8>(s); }
void slot_caslt_64w(benchmark::State& s) { slot_caslt<64>(s); }
void slot_critical_8w(benchmark::State& s) { slot_critical<8>(s); }
void slot_critical_64w(benchmark::State& s) { slot_critical<64>(s); }
void slot_unprotected_8w(benchmark::State& s) { slot_unprotected<8>(s); }

BENCHMARK(slot_caslt_2w)->Apply(args);
BENCHMARK(slot_caslt_8w)->Apply(args);
BENCHMARK(slot_caslt_64w)->Apply(args);
BENCHMARK(slot_critical_8w)->Apply(args);
BENCHMARK(slot_critical_64w)->Apply(args);
BENCHMARK(slot_unprotected_8w)->Apply(args);

}  // namespace
