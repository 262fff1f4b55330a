// dedup: the hash-table workload, all methods against the sort baseline,
// with the resize-storm path forced.
#include "algorithms/dedup.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "util/rng.hpp"

namespace crcw::algo {
namespace {

[[nodiscard]] std::vector<std::uint64_t> random_keys(std::size_t n,
                                                     std::uint64_t distinct,
                                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.bounded(distinct);
  return keys;
}

TEST(Dedup, EmptyInput) {
  for (const auto& method : dedup_methods()) {
    const DedupResult r = run_dedup(method, {});
    EXPECT_EQ(r.distinct, 0u) << method;
  }
}

TEST(Dedup, AllMethodsAgreeWithSortBaseline) {
  const auto keys = random_keys(20000, 3000, 11);
  const DedupResult expected = dedup_sort(keys);
  EXPECT_GT(expected.distinct, 2900u);  // 20k draws cover nearly all 3k values
  for (const auto& method : dedup_methods()) {
    const DedupResult r = run_dedup(method, keys);
    EXPECT_EQ(r.distinct, expected.distinct) << method;
  }
}

TEST(Dedup, AllDistinctAndAllEqualExtremes) {
  std::vector<std::uint64_t> distinct(5000);
  for (std::uint64_t i = 0; i < distinct.size(); ++i) distinct[i] = i * 2654435761u;
  std::vector<std::uint64_t> equal(5000, 42);
  for (const auto& method : dedup_methods()) {
    EXPECT_EQ(run_dedup(method, distinct).distinct, 5000u) << method;
    EXPECT_EQ(run_dedup(method, equal).distinct, 1u) << method;
  }
}

TEST(Dedup, ResizeStormIsExercised) {
  // Start tiny relative to the distinct count: correctness must survive
  // many cooperative grows, and the grows counter must prove they ran.
  const auto keys = random_keys(50000, 20000, 23);
  DedupOptions opts;
  opts.threads = 4;  // pin the stride so the round count is machine-independent
  opts.initial_capacity = 64;
  opts.round_chunk = 512;
  const DedupResult r = dedup_caslt(keys, opts);
  EXPECT_EQ(r.distinct, dedup_sort(keys).distinct);
  EXPECT_GE(r.grows, 5u);  // 64 → ≥20000 capacity is ≥ 8 doublings
  EXPECT_GE(r.rounds, 2u);
}

TEST(Dedup, SingleThreadMatchesMultiThread) {
  const auto keys = random_keys(10000, 1234, 31);
  DedupOptions serial;
  serial.threads = 1;
  for (const auto& method : dedup_methods()) {
    EXPECT_EQ(run_dedup(method, keys, serial).distinct,
              run_dedup(method, keys).distinct)
        << method;
  }
}

TEST(Dedup, UnknownMethodThrows) {
  EXPECT_THROW((void)run_dedup("nope", {}), std::invalid_argument);
}

TEST(Dedup, ProfileReportsTableWork) {
  const auto keys = random_keys(5000, 800, 41);
  for (const auto& method : dedup_methods()) {
    const auto totals = profile_dedup(method, keys);
    if (method == "sort") {
      EXPECT_FALSE(totals.has_value());
      continue;
    }
    ASSERT_TRUE(totals.has_value()) << method;
    EXPECT_EQ(totals->wins, 800u) << method;  // one win per distinct key
    // Every insert verifies at least its home bucket.
    EXPECT_GE(totals->attempts, keys.size()) << method;
    EXPECT_GE(totals->atomics, totals->wins) << method;
  }
}

}  // namespace
}  // namespace crcw::algo
