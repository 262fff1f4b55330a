// Control-byte sidecar probing (ctest label ds): the H2 fingerprint slice,
// the filter-with-verify walk, tombstone bytes across erase/revive/reclaim,
// and the group-vs-scalar equivalence that lets HashConfig::group_probe be
// a pure A/B lever. The sidecar is only ever a FILTER — these tests pin
// that discipline by cross-checking every group-path answer against the
// scalar walk and the authoritative bucket words.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace crcw::ds {
namespace {

using Map = ConcurrentHashMap<std::uint64_t, std::uint64_t>;
using Set = ConcurrentHashSet<>;

HashConfig probing(bool group, bool telemetry = false) {
  HashConfig cfg;
  cfg.group_probe = group;
  cfg.telemetry = telemetry;
  cfg.site_name = "probe-test";
  return cfg;
}

// -- fingerprint slice -------------------------------------------------------

TEST(HashProbe, H2SliceIndependentOfBucketAndShardBits) {
  util::Xoshiro256 rng(7);
  for (int iter = 0; iter < 256; ++iter) {
    const std::uint64_t mixed = rng.next();
    const std::uint8_t fp = ctrl_h2(mixed);
    EXPECT_NE(fp, kCtrlEmpty);
    EXPECT_NE(fp, kCtrlTombstone);
    EXPECT_EQ(fp & 0x80u, 0x80u);  // full bytes never collide with controls
    // Bits [0, 39) feed bucket homes (mix64 & mask) and the serve shard
    // router (mix64 >> 32 over <= 2^7 shards). Flipping any of them must
    // leave the fingerprint alone...
    for (unsigned bit = 0; bit < kH2Shift; ++bit) {
      EXPECT_EQ(ctrl_h2(mixed ^ (std::uint64_t{1} << bit)), fp) << "bit " << bit;
    }
    // ...while every bit of the [39, 46) slice lands in the fingerprint.
    for (unsigned bit = kH2Shift; bit < kH2Shift + 7; ++bit) {
      EXPECT_NE(ctrl_h2(mixed ^ (std::uint64_t{1} << bit)), fp) << "bit " << bit;
    }
    // Bits above the slice are ignored too.
    EXPECT_EQ(ctrl_h2(mixed ^ (std::uint64_t{1} << (kH2Shift + 7))), fp);
  }
}

TEST(HashProbe, FingerprintsSpreadWithinOneProbeChain) {
  // Keys whose homes collide under a small mask still fan out across H2
  // values — the whole point of slicing H2 from independent mix64 bits.
  constexpr std::uint64_t kMask = 63;
  std::set<std::uint8_t> fps;
  std::uint64_t found = 0;
  for (std::uint64_t k = 0; found < 64; ++k) {
    const std::uint64_t mixed = mix64(k);
    if ((mixed & kMask) != 0) continue;  // same home bucket only
    fps.insert(ctrl_h2(mixed));
    ++found;
  }
  // 64 same-home keys over 128 fingerprint values: expect rich diversity
  // (a correlated slice would collapse to a handful).
  EXPECT_GE(fps.size(), 16u);
}

TEST(HashProbe, GroupWalkCoversEveryLaneFromEveryHome) {
  constexpr std::uint64_t kBuckets = 64;
  for (std::uint64_t home = 0; home < kBuckets; ++home) {
    std::set<std::uint64_t> visited;
    std::uint64_t steps = 0;
    GroupWalk walk(home, kBuckets);
    for (std::uint32_t lanes = walk.first(); !walk.done(); lanes = walk.next()) {
      ++steps;
      for (unsigned lane = 0; lane < util::kGroupWidth; ++lane) {
        if ((lanes >> lane) & 1u) visited.insert(walk.base() + lane);
      }
    }
    EXPECT_EQ(steps, kBuckets / util::kGroupWidth + 1) << "home " << home;
    EXPECT_EQ(visited.size(), kBuckets) << "home " << home;  // full coverage
  }
}

// -- H2 collisions: verify, then continue ------------------------------------

/// Two distinct keys with the same home bucket AND the same fingerprint
/// under `mask` — the walk must verify the first key's bucket, classify it
/// a false positive, and probe on.
std::pair<std::uint64_t, std::uint64_t> h2_colliding_pair(std::uint64_t mask) {
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::uint64_t> seen;
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t mixed = mix64(k);
    const auto bin = std::make_pair(mixed & mask, ctrl_h2(mixed));
    const auto [it, fresh] = seen.emplace(bin, k);
    if (!fresh) return {it->second, k};
  }
}

TEST(HashProbe, H2CollisionVerifiesThenContinues) {
  HashConfig cfg = probing(/*group=*/true, /*telemetry=*/true);
  cfg.max_load = 0.5;
  Set set(32, cfg);  // 64 buckets
  const auto [k1, k2] = h2_colliding_pair(set.bucket_count() - 1);
  ASSERT_EQ(ctrl_h2(mix64(k1)), ctrl_h2(mix64(k2)));

  EXPECT_EQ(set.insert(k1), SetInsert::kInserted);
  // k2's walk hits k1's fingerprint-matched bucket first, verifies the
  // claim word, finds a stranger, and moves on — a counted false positive.
  EXPECT_EQ(set.insert(k2), SetInsert::kInserted);
  EXPECT_TRUE(set.contains(k1));
  EXPECT_TRUE(set.contains(k2));
  EXPECT_NE(set.debug_bucket_of(k1), set.debug_bucket_of(k2));
  EXPECT_GE(set.telemetry().site()->totals().fingerprint_fps, 1u);

  // Same walk, same verdicts, when re-offered (kFound via verified hits).
  EXPECT_EQ(set.insert(k1), SetInsert::kFound);
  EXPECT_EQ(set.insert(k2), SetInsert::kFound);
  EXPECT_EQ(set.erase(k2), true);
  EXPECT_TRUE(set.contains(k1));
  EXPECT_FALSE(set.contains(k2));
}

// -- tombstone bytes across erase / revive / reclaim -------------------------

TEST(HashProbe, SetCtrlByteTracksLifecycle) {
  Set set(64, probing(true));
  const std::uint64_t key = 1234;
  const std::uint8_t fp = ctrl_h2(mix64(key));

  ASSERT_EQ(set.insert(key), SetInsert::kInserted);
  const std::uint64_t b = set.debug_bucket_of(key);
  ASSERT_NE(b, ~std::uint64_t{0});
  EXPECT_EQ(set.debug_ctrl(b), fp);

  EXPECT_TRUE(set.erase(key));
  EXPECT_EQ(set.debug_ctrl(b), kCtrlTombstone);
  EXPECT_FALSE(set.contains(key));
  EXPECT_FALSE(set.erase(key));  // already dead: no second winner

  // Revive republishes the fingerprint byte.
  EXPECT_EQ(set.insert(key), SetInsert::kInserted);
  EXPECT_EQ(set.debug_ctrl(b), fp);
  EXPECT_TRUE(set.contains(key));

  // Erase + reclaim: the rebuilt array drops the bucket and its byte.
  EXPECT_TRUE(set.erase(key));
  set.reclaim_parallel(1);
  EXPECT_EQ(set.debug_bucket_of(key), ~std::uint64_t{0});
  EXPECT_EQ(set.size(), 0u);
  for (std::uint64_t i = 0; i < set.bucket_count(); ++i) {
    EXPECT_EQ(set.debug_ctrl(i), kCtrlEmpty);
  }
}

TEST(HashProbe, MapCtrlByteTracksRoundArbitratedLifecycle) {
  Map map(64, probing(true));
  const std::uint64_t key = 99;
  const std::uint8_t fp = ctrl_h2(mix64(key));

  ASSERT_EQ(map.upsert(1, key, 7), MapUpsert::kWon);
  const std::uint64_t b = map.debug_bucket_of(key);
  ASSERT_NE(b, ~std::uint64_t{0});
  EXPECT_EQ(map.debug_ctrl(b), fp);

  ASSERT_EQ(map.erase(2, key), MapUpsert::kWon);
  EXPECT_EQ(map.debug_ctrl(b), kCtrlTombstone);
  EXPECT_EQ(map.find(key), nullptr);

  // Round-arbitrated revive: the round winner republishes the byte.
  ASSERT_EQ(map.upsert(3, key, 8), MapUpsert::kWon);
  EXPECT_EQ(map.debug_ctrl(b), fp);
  ASSERT_NE(map.find(key), nullptr);
  EXPECT_EQ(*map.find(key), 8u);

  // Erase-of-absent claims and immediately tombstones a bucket — its byte
  // must say so, or every later walk would re-verify a dead stranger.
  const std::uint64_t absent = 4242;
  ASSERT_EQ(map.erase(4, absent), MapUpsert::kWon);
  const std::uint64_t ab = map.debug_bucket_of(absent);
  ASSERT_NE(ab, ~std::uint64_t{0});
  EXPECT_EQ(map.debug_ctrl(ab), kCtrlTombstone);

  // Reclaim drops both tombstones (the revived key is live and survives).
  ASSERT_EQ(map.erase(5, key), MapUpsert::kWon);
  map.reclaim_parallel(1);
  EXPECT_EQ(map.debug_bucket_of(key), ~std::uint64_t{0});
  EXPECT_EQ(map.debug_bucket_of(absent), ~std::uint64_t{0});
  EXPECT_EQ(map.size(), 0u);
}

TEST(HashProbe, GrowMigrationRebuildsTheSidecar) {
  HashConfig cfg = probing(true);
  Set set(32, cfg);  // 64 buckets at max_load 0.5
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 60; ++k) {
    keys.push_back(k * 2654435761u);
    ASSERT_EQ(set.insert(keys.back()), SetInsert::kInserted);
  }
  ASSERT_TRUE(set.needs_grow());
  const std::uint64_t before = set.bucket_count();
  set.grow_parallel(2);
  EXPECT_GT(set.bucket_count(), before);
  // Every migrated bucket's byte is its key's fingerprint in the NEW
  // array — the first post-swap walk must find a fully populated sidecar.
  for (const std::uint64_t k : keys) {
    EXPECT_TRUE(set.contains(k));
    const std::uint64_t b = set.debug_bucket_of(k);
    ASSERT_NE(b, ~std::uint64_t{0});
    EXPECT_EQ(set.debug_ctrl(b), ctrl_h2(mix64(k)));
  }
}

// -- group/scalar equivalence ------------------------------------------------

TEST(HashProbe, SetGroupAndScalarWalksAgreeOnRandomChurn) {
  Set grouped(256, probing(true));
  Set scalar(256, probing(false));
  util::Xoshiro256 rng(42);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.bounded(512);  // dense: collisions + revives
    switch (rng.bounded(3)) {
      case 0:
        ASSERT_EQ(grouped.insert(key), scalar.insert(key)) << "op " << op;
        break;
      case 1:
        ASSERT_EQ(grouped.erase(key), scalar.erase(key)) << "op " << op;
        break;
      default:
        ASSERT_EQ(grouped.contains(key), scalar.contains(key)) << "op " << op;
    }
    ASSERT_EQ(grouped.size(), scalar.size()) << "op " << op;
  }
  // Final sweep: identical membership, bucket for bucket of key space.
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(grouped.contains(k), scalar.contains(k)) << "key " << k;
  }
}

TEST(HashProbe, MapGroupAndScalarWalksAgreeAcrossRounds) {
  Map grouped(128, probing(true));
  Map scalar(128, probing(false));
  util::Xoshiro256 rng(1337);
  for (round_t r = 1; r <= 300; ++r) {
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t key = rng.bounded(96);
      if (rng.bounded(4) == 0) {
        ASSERT_EQ(grouped.erase(r, key), scalar.erase(r, key));
      } else {
        const std::uint64_t v = r * 1000 + static_cast<std::uint64_t>(i);
        ASSERT_EQ(grouped.upsert(r, key, v), scalar.upsert(r, key, v));
      }
    }
    if (r % 64 == 0) {
      grouped.reclaim_parallel(1);
      scalar.reclaim_parallel(1);
    }
    for (std::uint64_t k = 0; k < 96; ++k) {
      const std::uint64_t* a = grouped.find(k);
      const std::uint64_t* b = scalar.find(k);
      ASSERT_EQ(a == nullptr, b == nullptr) << "round " << r << " key " << k;
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    }
  }
}

TEST(HashProbe, FullTableReportsKFullInBothModes) {
  HashConfig cfg = probing(true);
  cfg.max_load = 1.0;
  for (const bool group : {true, false}) {
    cfg.group_probe = group;
    Set set(16, cfg);
    ASSERT_EQ(set.bucket_count(), 16u);
    std::uint64_t inserted = 0;
    for (std::uint64_t k = 1; inserted < 16; ++k) {
      if (set.insert(k) == SetInsert::kInserted) ++inserted;
    }
    // The 17th distinct key exhausts the walk — including the wrap-revisit
    // of the partial first group, so the verdict covers every lane.
    EXPECT_EQ(set.insert(1u << 20), SetInsert::kFull) << "group=" << group;
  }
}

// -- telemetry batching ------------------------------------------------------

TEST(HashProbe, WalkTelemetryBatchesAndFeedsHistogram) {
  Set grouped(256, probing(true, /*telemetry=*/true));
  for (std::uint64_t k = 1; k <= 128; ++k) (void)grouped.insert(k);
  const obs::ContentionTotals t = grouped.telemetry().site()->totals();
  EXPECT_GE(t.attempts, 128u);  // every op verified >= 1 bucket
  // Inserts that claim their empty home lane resolve on the fast path
  // without a group snapshot; only displaced keys walk groups. At 50%
  // fill some collisions are certain, so the counter moves but stays
  // well under one load per op.
  EXPECT_GE(t.group_loads, 1u);
  EXPECT_LT(t.group_loads, 128u);
  EXPECT_GE(t.probe_p50, 1u);
  EXPECT_GE(t.probe_p99, t.probe_p50);

  // Scalar walks load no groups but still batch probes per op.
  Set scalar(256, probing(false, /*telemetry=*/true));
  for (std::uint64_t k = 1; k <= 128; ++k) (void)scalar.insert(k);
  const obs::ContentionTotals s = scalar.telemetry().site()->totals();
  EXPECT_GE(s.attempts, 128u);
  EXPECT_EQ(s.group_loads, 0u);
  EXPECT_EQ(s.fingerprint_fps, 0u);
  EXPECT_GE(s.probe_p50, 1u);
}

TEST(HashProbe, SubGroupTablesAlwaysWalkScalar) {
  // 8 buckets < one 16-lane group: the group lever must quietly fall back.
  HashConfig cfg = probing(true, /*telemetry=*/true);
  Set set(4, cfg);
  ASSERT_LT(set.bucket_count(), util::kGroupWidth);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ASSERT_EQ(set.insert(k), SetInsert::kInserted);
    EXPECT_TRUE(set.contains(k));
  }
  EXPECT_TRUE(set.erase(2));
  EXPECT_FALSE(set.contains(2));
  EXPECT_EQ(set.telemetry().site()->totals().group_loads, 0u);
}

}  // namespace
}  // namespace crcw::ds
