// Self-tests of the benchmark's own machinery: the log-linear histogram's
// error bound, and the round-history checker catching planted violations.
//
//   python3 perfbench/run.py selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "common.hpp"
#include "history.hpp"

namespace perfbench {
namespace {

using crcw::serve::OpKind;

TEST(LatencyHistogram, EveryValueLandsInABucketWithinTheErrorBound) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kLinear; ++v) {
    EXPECT_EQ(LatencyHistogram::lower(LatencyHistogram::index(v)), static_cast<double>(v));
    EXPECT_EQ(LatencyHistogram::width(LatencyHistogram::index(v)), 1.0);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 64);
    if (v == 0) continue;
    const std::size_t idx = LatencyHistogram::index(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    const double lo = LatencyHistogram::lower(idx);
    const double w = LatencyHistogram::width(idx);
    ASSERT_LE(lo, static_cast<double>(v)) << "value " << v;
    ASSERT_LT(static_cast<double>(v), lo + w) << "value " << v;
    if (lo >= 128) {
      ASSERT_LE(w / lo, LatencyHistogram::kMaxRelativeError) << "value " << v;
    }
  }
  EXPECT_LT(LatencyHistogram::index(~std::uint64_t{0}), LatencyHistogram::kBuckets);
}

TEST(LatencyHistogram, QuantilesStayWithinTheErrorBound) {
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(10.0, 2.0);  // ns-scale latencies, heavy tail
  std::vector<std::uint64_t> values;
  LatencyHistogram h;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::uint64_t>(dist(rng)) + 1;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size()));
    rank = std::min(rank, values.size() - 1);
    const double exact = static_cast<double>(values[rank]);
    EXPECT_LE(std::abs(h.quantile(p) - exact) / exact, LatencyHistogram::kMaxRelativeError)
        << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeAndWeightedRecordAddCounts) {
  LatencyHistogram a, b;
  a.record(1000, 3);
  b.record(5000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_NEAR(a.quantile(0.5), 1000, 1000 * LatencyHistogram::kMaxRelativeError);
  EXPECT_NEAR(a.quantile(1.0), 5000, 5000 * LatencyHistogram::kMaxRelativeError);
  EXPECT_EQ(LatencyHistogram().quantile(0.5), 0.0);
}

HistoryEntry write(std::uint32_t key, std::uint32_t round, std::uint32_t value,
                   std::uint32_t observed, bool won, OpKind kind = OpKind::kUpsert) {
  return HistoryEntry{key, round, value, observed, kind, won};
}
HistoryEntry lookup(std::uint32_t key, std::uint32_t round,
                    std::optional<std::uint32_t> seen) {
  return HistoryEntry{key, round, 0, seen.value_or(0), OpKind::kLookup, seen.has_value()};
}

CheckReport check(const std::vector<HistoryEntry>& entries,
                  std::optional<std::uint64_t> final_value, bool check_final = true) {
  HistoryLog log(entries.size());
  for (const HistoryEntry& e : entries) log.add(e);
  return check_history(
      {&log}, [](std::uint64_t) -> std::optional<std::uint64_t> { return 100; },
      [&](std::uint64_t) { return final_value; }, check_final);
}

TEST(HistoryChecker, AcceptsAConsistentHistory) {
  const CheckReport rep = check({lookup(5, 2, 100), write(5, 3, 7, 7, true),
                                 write(5, 3, 9, 7, false), lookup(5, 3, 100), lookup(5, 4, 7),
                                 write(5, 5, 0, 0, true, OpKind::kErase),
                                 lookup(5, 6, std::nullopt), write(5, 7, 8, 8, true)},
                                8);
  EXPECT_TRUE(rep.ok()) << rep.first_violation;
  EXPECT_EQ(rep.entries, 8u);
  EXPECT_EQ(rep.keys, 1u);
}

TEST(HistoryChecker, CatchesAPlantedDoubleWinner) {
  const CheckReport rep = check({write(5, 3, 7, 7, true), write(5, 3, 9, 9, true)}, 9);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.first_violation.find("two winning writes"), std::string::npos)
      << rep.first_violation;
}

TEST(HistoryChecker, CatchesADoubleWinnerEvenInATruncatedLog) {
  HistoryLog log(2);
  log.add(write(5, 3, 7, 7, true));
  log.add(write(5, 3, 9, 9, true));
  log.add(write(5, 4, 1, 1, true));  // dropped: the log is full
  const CheckReport rep = check_history(
      {&log}, [](std::uint64_t) -> std::optional<std::uint64_t> { return 100; },
      [](std::uint64_t) -> std::optional<std::uint64_t> { return 1; }, true);
  EXPECT_TRUE(rep.truncated);
  EXPECT_FALSE(rep.ok());
}

TEST(HistoryChecker, CatchesALoserThatObservedTheWrongValue) {
  EXPECT_FALSE(check({write(5, 3, 7, 7, true), write(5, 3, 9, 9, false)}, 7).ok());
}

TEST(HistoryChecker, CatchesALookupThatSawItsOwnRound) {
  // Lookups read only rounds < their own; seeing round 3's write in round 3 is a violation.
  EXPECT_FALSE(check({write(5, 3, 7, 7, true), lookup(5, 3, 7)}, 7).ok());
}

TEST(HistoryChecker, CatchesAStaleLookup) {
  EXPECT_FALSE(check({write(5, 3, 7, 7, true), lookup(5, 9, 100)}, 7).ok());
}

TEST(HistoryChecker, CatchesAWrongFinalValueAndALiveKeyAfterErase) {
  EXPECT_FALSE(check({write(5, 3, 7, 7, true)}, 8).ok());
  EXPECT_FALSE(check({write(5, 3, 0, 0, true, OpKind::kErase)}, 100).ok());
  EXPECT_TRUE(check({write(5, 3, 0, 0, true, OpKind::kErase)}, std::nullopt).ok());
}

TEST(KeySample, HashesOnlyFromItsFloorAndAlwaysKeepsNamedKeys) {
  const KeySample all{.salt = 1, .shift = 0, .hashed_from = 0, .always = {}};
  EXPECT_TRUE(all.contains(0));
  EXPECT_TRUE(all.contains(12345));
  const KeySample hot{.salt = 1, .shift = 6, .hashed_from = 16, .always = {8}};
  EXPECT_TRUE(hot.contains(8));
  for (std::uint64_t k = 0; k < 16; ++k) {
    if (k != 8) {
      EXPECT_FALSE(hot.contains(k)) << k;
    }
  }
  int sampled = 0;
  for (std::uint64_t k = 16; k < 16 + 64 * 1000; ++k) sampled += hot.contains(k) ? 1 : 0;
  EXPECT_NEAR(sampled, 1000, 150);  // 1 in 64
}

TEST(RywTracker, LookupsMustRunAfterTheClientsLastWriteOnTheShard) {
  RywTracker ryw(2);
  ryw.wrote(1, 10);
  const auto snap = ryw.snapshot();
  EXPECT_FALSE(RywTracker::fresh(snap, 1, 10));
  EXPECT_TRUE(RywTracker::fresh(snap, 1, 11));
  EXPECT_TRUE(RywTracker::fresh(snap, 0, 1));
}

TEST(ThreadBudget, RefusesMoreThreadsThanCores) {
  ThreadBudget b{.generators = 2, .pump = 1, .exec_width = 2, .handlers = 0, .nproc = 4};
  EXPECT_EQ(b.total(), 4);
  EXPECT_NO_THROW(b.enforce());
  b.generators = 3;
  EXPECT_THROW(b.enforce(), std::runtime_error);
}

TEST(ThreadBudget, CountsATeamPerHelpPumpingGenerator) {
  const ThreadBudget b{.generators = 2, .pump = 0, .exec_width = 2, .handlers = 0, .nproc = 4};
  EXPECT_EQ(b.total(), 4);
}

}  // namespace
}  // namespace perfbench
