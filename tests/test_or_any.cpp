// Parallel OR / ANY — the O(1) CRCW separator primitive.
#include "algorithms/or_any.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace crcw::algo {
namespace {

using OrFn = std::function<bool(std::span<const std::uint8_t>, const OrOptions&)>;

struct OrCase {
  std::string name;
  OrFn fn;
};

class OrMethodTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<OrCase> methods() {
    return {{"naive", parallel_or_naive},
            {"gatekeeper", parallel_or_gatekeeper},
            {"caslt", parallel_or_caslt}};
  }
};

TEST_P(OrMethodTest, EmptyIsFalse) {
  const OrOptions opts{.threads = GetParam()};
  for (const auto& m : methods()) {
    EXPECT_FALSE(m.fn({}, opts)) << m.name;
  }
}

TEST_P(OrMethodTest, AllZeros) {
  const OrOptions opts{.threads = GetParam()};
  const std::vector<std::uint8_t> bits(1000, 0);
  for (const auto& m : methods()) EXPECT_FALSE(m.fn(bits, opts)) << m.name;
}

TEST_P(OrMethodTest, SingleBitAnywhere) {
  const OrOptions opts{.threads = GetParam()};
  for (const std::size_t pos : {0u, 1u, 499u, 998u, 999u}) {
    std::vector<std::uint8_t> bits(1000, 0);
    bits[pos] = 1;
    for (const auto& m : methods()) EXPECT_TRUE(m.fn(bits, opts)) << m.name << "@" << pos;
  }
}

TEST_P(OrMethodTest, AllOnesMaximumContention) {
  const OrOptions opts{.threads = GetParam()};
  const std::vector<std::uint8_t> bits(5000, 1);
  for (const auto& m : methods()) EXPECT_TRUE(m.fn(bits, opts)) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Threads, OrMethodTest, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           std::string name = "t";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(AnyOf, PredicateForm) {
  EXPECT_TRUE(any_of_caslt(100, [](std::uint64_t i) { return i == 57; }));
  EXPECT_FALSE(any_of_caslt(100, [](std::uint64_t i) { return i > 1000; }));
  EXPECT_FALSE(any_of_caslt(0, [](std::uint64_t) { return true; }));
}

TEST(AnyOf, UsedAsTerminationProbe) {
  // The kernel-style use: "is any vertex still active?"
  std::vector<std::uint8_t> active(256, 0);
  active[200] = 1;
  EXPECT_TRUE(any_of_caslt(active.size(), [&](std::uint64_t i) { return active[i] != 0; }));
  active[200] = 0;
  EXPECT_FALSE(any_of_caslt(active.size(), [&](std::uint64_t i) { return active[i] != 0; }));
}

}  // namespace
}  // namespace crcw::algo
