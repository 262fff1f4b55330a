// The contention-telemetry primitives: histogram bucketing, sharded
// ContentionSite counting and round flushing, registry aggregation and
// the thread-local ScopedRegistry override. (Policy-level counting paths
// are covered in test_instrumented.cpp.)
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

namespace obs = crcw::obs;

namespace {

TEST(Histogram, BucketIndexIsBitWidth) {
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper(11), 2047u);
  EXPECT_EQ(obs::Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST(Histogram, RecordCountQuantile) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0u);
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.bucket(obs::Histogram::bucket_index(1)), 90u);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 1u);
  // p99 lands in the bucket holding 1000: [512, 1023].
  EXPECT_EQ(h.quantile_upper_bound(0.99), 1023u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, AddFoldsPlainCountsLikeRecord) {
  // The bulk add a per-round tally folds in through: bucket for bucket the
  // same histogram as one record() per sample, and an all-zero fold is a
  // no-op.
  constexpr std::uint64_t kValues[] = {0, 1, 1, 3, 1000, 1000, 1u << 20, ~std::uint64_t{0}};
  obs::Histogram recorded;
  obs::Histogram folded;
  obs::Histogram::Counts counts{};
  for (const std::uint64_t v : kValues) {
    recorded.record(v);
    ++counts[obs::Histogram::bucket_index(v)];
  }
  folded.record(5);
  folded.add(counts);
  folded.add(obs::Histogram::Counts{});
  EXPECT_EQ(folded.count(), std::size(kValues) + 1);
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t extra = i == obs::Histogram::bucket_index(5) ? 1 : 0;
    EXPECT_EQ(folded.bucket(i), recorded.bucket(i) + extra) << "bucket " << i;
  }
  EXPECT_EQ(folded.bucket(obs::Histogram::bucket_index(1000)), 2u);
  EXPECT_EQ(folded.bucket(64), 1u);
}

TEST(ContentionSite, CountsAndTotals) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite site("s");
  for (int i = 0; i < 10; ++i) site.count_attempt();
  for (int i = 0; i < 4; ++i) site.count_atomic();
  site.count_win();
  const obs::ContentionTotals t = site.totals();
  EXPECT_EQ(t.attempts, 10u);
  EXPECT_EQ(t.atomics, 4u);
  EXPECT_EQ(t.wins, 1u);
  EXPECT_EQ(t.failures(), 3u);
  EXPECT_EQ(t.rounds, 0u);
}

TEST(ContentionSite, RecordWalkSamplesProbeLengthsOneIn64) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite site("walks");
  // 128 single-probe walks from one thread: the attempt counter is exact,
  // but the histogram triggers only when the pre-add value is a multiple
  // of the stride — here at attempts 0 and 64.
  for (int i = 0; i < 128; ++i) site.record_walk(1, 0, 0);
  const obs::ContentionTotals t = site.totals();
  EXPECT_EQ(t.attempts, 128u);
  EXPECT_EQ(t.group_loads, 0u);
  EXPECT_EQ(site.probe_lengths().count(), 2u);
  EXPECT_EQ(t.probe_p50, 1u);
  EXPECT_EQ(t.probe_p99, 1u);

  // The first op after construction always samples (prior == 0), so tiny
  // serial workloads still land in the histogram; group/fp tallies flush
  // exactly, sampled or not.
  obs::ContentionSite fresh("fresh");
  fresh.record_walk(5, 2, 1);
  EXPECT_EQ(fresh.probe_lengths().count(), 1u);
  const obs::ContentionTotals f = fresh.totals();
  EXPECT_EQ(f.attempts, 5u);
  EXPECT_EQ(f.group_loads, 2u);
  EXPECT_EQ(f.fingerprint_fps, 1u);
  EXPECT_EQ(f.probe_p50, 7u);  // 5 lands in the [4, 7] power-of-two bucket
}

TEST(ContentionSite, CountingFromParallelRegionLosesNothing) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite site("par");
  constexpr int kPerThread = 10'000;
  constexpr int kThreads = 4;
#pragma omp parallel num_threads(kThreads)
  {
    for (int i = 0; i < kPerThread; ++i) site.count_attempt();
  }
  EXPECT_EQ(site.totals().attempts,
            static_cast<std::uint64_t>(kPerThread) * kThreads);
}

TEST(ContentionSite, FlushRoundCountsRoundsOnly) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite site("f");
  // Round 1: 8 attempts, 2 atomics. Round 2: 1 attempt, 1 atomic.
  for (int i = 0; i < 8; ++i) site.count_attempt();
  site.count_atomic();
  site.count_atomic();
  site.flush_round();
  site.count_attempt();
  site.count_atomic();
  site.flush_round();

  const obs::ContentionTotals t = site.totals();
  EXPECT_EQ(t.rounds, 2u);
  EXPECT_EQ(t.attempts, 9u);
  EXPECT_EQ(t.atomics, 3u);
}

TEST(ContentionSite, ResetClearsEverything) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite site("r");
  site.count_attempt();
  site.flush_round();
  site.reset();
  EXPECT_EQ(site.totals(), obs::ContentionTotals{});
  // A fresh round after reset counts from zero.
  site.count_attempt();
  site.flush_round();
  EXPECT_EQ(site.totals().attempts, 1u);
  EXPECT_EQ(site.totals().rounds, 1u);
}

TEST(MetricsRegistry, AggregatesLiveAndDeadSites) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  obs::ContentionSite keep("keep");
  keep.count_win();
  {
    obs::ContentionSite die("die");
    die.count_attempt();
    die.count_attempt();
    EXPECT_EQ(registry.live_sites(), 2u);
  }
  EXPECT_EQ(registry.live_sites(), 1u);
  const obs::ContentionTotals t = registry.totals();
  EXPECT_EQ(t.attempts, 2u);  // retained from the dead site
  EXPECT_EQ(t.wins, 1u);      // live site
}

TEST(MetricsRegistry, SnapshotMergesByName) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  { obs::ContentionSite a("caslt"); a.count_attempt(); }
  obs::ContentionSite b("caslt");
  b.count_attempt();
  obs::ContentionSite c("gatekeeper");
  c.count_atomic();

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "caslt");
  EXPECT_EQ(snap[0].second.attempts, 2u);  // dead + live, same name
  EXPECT_EQ(snap[1].first, "gatekeeper");
  EXPECT_EQ(snap[1].second.atomics, 1u);
}

TEST(MetricsRegistry, ResetDropsRetainedAndZeroesLive) {
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  { obs::ContentionSite dead("d"); dead.count_attempt(); }
  obs::ContentionSite live("l");
  live.count_attempt();
  registry.reset();
  EXPECT_EQ(registry.totals(), obs::ContentionTotals{});
  EXPECT_EQ(registry.live_sites(), 1u);
}

TEST(ScopedRegistry, RedirectsAndNests) {
  obs::MetricsRegistry outer;
  const obs::ScopedRegistry outer_scope(outer);
  EXPECT_EQ(&obs::current_registry(), &outer);
  {
    obs::MetricsRegistry inner;
    const obs::ScopedRegistry inner_scope(inner);
    EXPECT_EQ(&obs::current_registry(), &inner);
    obs::ContentionSite site("in");
    site.count_win();
    EXPECT_EQ(inner.totals().wins, 1u);
    EXPECT_EQ(outer.totals().wins, 0u);
  }
  EXPECT_EQ(&obs::current_registry(), &outer);
}

TEST(ScopedRegistry, SiteStaysWithItsBirthRegistry) {
  obs::MetricsRegistry outer;
  const obs::ScopedRegistry outer_scope(outer);
  obs::ContentionSite site("born-outer");
  {
    obs::MetricsRegistry inner;
    const obs::ScopedRegistry inner_scope(inner);
    // Counting while a different registry is current still lands in the
    // registry the site attached to at construction.
    site.count_attempt();
    EXPECT_EQ(inner.totals().attempts, 0u);
  }
  EXPECT_EQ(outer.totals().attempts, 1u);
}

}  // namespace
