// sim::Memory — logged accesses and deferred commits.
#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace crcw::sim {
namespace {

TEST(SimMemory, PokePeek) {
  Memory mem(10);
  EXPECT_EQ(mem.size(), 10u);
  mem.poke(3, 42);
  EXPECT_EQ(mem.peek(3), 42);
  EXPECT_EQ(mem.peek(0), 0);
}

TEST(SimMemory, FillValue) {
  Memory mem(4, -1);
  for (addr_t a = 0; a < 4; ++a) EXPECT_EQ(mem.peek(a), -1);
}

TEST(SimMemory, ResizeGrowsOnly) {
  Memory mem(4);
  mem.poke(2, 9);
  mem.resize(8, -5);
  EXPECT_EQ(mem.size(), 8u);
  EXPECT_EQ(mem.peek(2), 9);
  EXPECT_EQ(mem.peek(7), -5);
  mem.resize(2);  // shrinking is a no-op
  EXPECT_EQ(mem.size(), 8u);
}

TEST(SimMemory, ReadsAreLoggedAndReturnPreStepValues) {
  Memory mem(4);
  mem.poke(1, 11);
  EXPECT_EQ(mem.read(0, 1), 11);
  EXPECT_EQ(mem.read(2, 1), 11);
  ASSERT_EQ(mem.read_log().size(), 2u);
  EXPECT_EQ(mem.read_log()[0].proc, 0u);
  EXPECT_EQ(mem.read_log()[1].proc, 2u);
  EXPECT_EQ(mem.read_log()[0].addr, 1u);
}

TEST(SimMemory, WritesAreBufferedUntilCommit) {
  Memory mem(4);
  mem.write(0, 2, 7);
  EXPECT_EQ(mem.peek(2), 0) << "write must be invisible before commit";
  EXPECT_EQ(mem.read(1, 2), 0) << "same-step read sees pre-step value";
  mem.commit({{2, 0, 7, 1}});
  EXPECT_EQ(mem.peek(2), 7);
  EXPECT_TRUE(mem.write_log().empty()) << "commit clears the logs";
  EXPECT_TRUE(mem.read_log().empty());
}

TEST(SimMemory, OutOfRangeAccessesThrow) {
  Memory mem(4);
  EXPECT_THROW((void)mem.peek(4), std::out_of_range);
  EXPECT_THROW(mem.poke(10, 1), std::out_of_range);
  EXPECT_THROW(mem.read(0, 4), std::out_of_range);
  EXPECT_THROW(mem.write(0, 4, 1), std::out_of_range);
}

TEST(SimMemory, ClearLogsDiscardsPendingWrites) {
  Memory mem(4);
  mem.write(0, 1, 5);
  mem.clear_logs();
  EXPECT_TRUE(mem.write_log().empty());
  mem.commit({});
  EXPECT_EQ(mem.peek(1), 0);
}

TEST(SimMemory, ContentsSnapshot) {
  Memory mem(3);
  mem.poke(0, 1);
  mem.poke(2, 3);
  const auto& c = mem.contents();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[1], 0);
  EXPECT_EQ(c[2], 3);
}

}  // namespace
}  // namespace crcw::sim
