// Parallel prefix sums and stream compaction.
#include "algorithms/scan.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/gatekeeper.hpp"
#include "util/rng.hpp"

namespace crcw::algo {
namespace {

std::vector<std::uint64_t> serial_exclusive(std::span<const std::uint64_t> in) {
  std::vector<std::uint64_t> out(in.size());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = acc;
    acc += in[i];
  }
  return out;
}

TEST(ExclusiveScan, Empty) { EXPECT_TRUE(exclusive_scan({}).empty()); }

TEST(ExclusiveScan, Basics) {
  const std::vector<std::uint64_t> in = {3, 1, 4, 1, 5};
  EXPECT_EQ(exclusive_scan(in), (std::vector<std::uint64_t>{0, 3, 4, 8, 9}));
}

TEST(InclusiveScan, Basics) {
  const std::vector<std::uint64_t> in = {3, 1, 4, 1, 5};
  EXPECT_EQ(inclusive_scan(in), (std::vector<std::uint64_t>{3, 4, 8, 9, 14}));
}

class ScanRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ScanRandomTest, MatchesSerialReference) {
  const auto& [n, threads] = GetParam();
  util::Xoshiro256 rng(n + static_cast<std::uint64_t>(threads));
  std::vector<std::uint64_t> in(n);
  for (auto& x : in) x = rng.bounded(1000);
  EXPECT_EQ(exclusive_scan(in, {.threads = threads}), serial_exclusive(in));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScanRandomTest,
                         ::testing::Combine(::testing::Values(std::uint64_t{1},
                                                              std::uint64_t{2},
                                                              std::uint64_t{7},
                                                              std::uint64_t{100},
                                                              std::uint64_t{4096},
                                                              std::uint64_t{100000}),
                                            ::testing::Values(1, 3, 8)),
                         [](const auto& pinfo) {
                           std::string name = "n";
                           name += std::to_string(std::get<0>(pinfo.param));
                           name += "_t";
                           name += std::to_string(std::get<1>(pinfo.param));
                           return name;
                         });

TEST(ExclusiveScanOp, MaxScan) {
  const std::vector<std::uint64_t> in = {2, 9, 1, 7, 11, 3};
  const auto out = exclusive_scan_op(
      in, 0, [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); },
      {.threads = 4});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 2, 9, 9, 9, 11}));
}

TEST(PackIndices, Basics) {
  const std::vector<std::uint8_t> flags = {0, 1, 1, 0, 1, 0};
  EXPECT_EQ(pack_indices(flags), (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_TRUE(pack_indices({}).empty());
  const std::vector<std::uint8_t> none(10, 0);
  EXPECT_TRUE(pack_indices(none).empty());
  const std::vector<std::uint8_t> all(10, 1);
  EXPECT_EQ(pack_indices(all).size(), 10u);
}

TEST(PackIndices, OrderedAndCompleteOnRandomFlags) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> flags(2000);
    std::uint64_t expected = 0;
    for (auto& f : flags) {
      f = rng.bounded(3) == 0 ? 1 : 0;
      expected += f;
    }
    const auto packed = pack_indices(flags, {.threads = 4});
    ASSERT_EQ(packed.size(), expected);
    for (std::size_t i = 0; i < packed.size(); ++i) {
      ASSERT_TRUE(flags[packed[i]] != 0);
      if (i > 0) {
        ASSERT_LT(packed[i - 1], packed[i]) << "indices must stay ordered";
      }
    }
  }
}

/// The §3 connection: the XMT prefix-sum CW method selects, as winner of a
/// concurrent write, the requester whose exclusive-scan offset is 0 — and
/// the Gatekeeper of Figure 2 computes exactly that, one atomic at a time.
TEST(Scan, GatekeeperIsAnOnlinePrefixSum) {
  const std::vector<std::uint64_t> requests = {1, 1, 0, 1, 1};
  const auto offsets = exclusive_scan(requests);

  Gatekeeper gate;
  std::vector<bool> gate_winner;
  for (const std::uint64_t r : requests) {
    gate_winner.push_back(r != 0 && gate.try_acquire());
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const bool scan_winner = requests[i] != 0 && offsets[i] == 0;
    EXPECT_EQ(gate_winner[i], scan_winner) << i;
  }
}

}  // namespace
}  // namespace crcw::algo
