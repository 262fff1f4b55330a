// CLI parser used by examples and figure harnesses.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace crcw::util {
namespace {

Cli parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ProgramName) {
  const Cli cli = parse({});
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, KeyValueSpaceForm) {
  const Cli cli = parse({"--size", "100"});
  EXPECT_TRUE(cli.has("size"));
  EXPECT_EQ(cli.get_uint("size", 0), 100u);
}

TEST(Cli, KeyValueEqualsForm) {
  const Cli cli = parse({"--size=2048"});
  EXPECT_EQ(cli.get_uint("size", 0), 2048u);
}

TEST(Cli, BareFlag) {
  const Cli cli = parse({"--verbose"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, FlagFollowedByOption) {
  const Cli cli = parse({"--quick", "--size", "5"});
  EXPECT_TRUE(cli.get_bool("quick", false));
  EXPECT_EQ(cli.get_uint("size", 0), 5u);
}

TEST(Cli, Positional) {
  const Cli cli = parse({"input.txt", "--size", "5", "output.txt"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "output.txt");
}

TEST(Cli, Fallbacks) {
  const Cli cli = parse({});
  EXPECT_EQ(cli.get_uint("missing", 7), 7u);
  EXPECT_EQ(cli.get_int("missing", -7), -7);
  EXPECT_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(cli.get_string("missing", "x"), "x");
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(Cli, NegativeIntValue) {
  const Cli cli = parse({"--offset", "-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
}

TEST(Cli, DoubleValue) {
  const Cli cli = parse({"--ratio=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.25);
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(parse({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x", true));
}

TEST(Cli, UintList) {
  const Cli cli = parse({"--sizes", "1,2,30"});
  const auto xs = cli.get_uint_list("sizes", {});
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0], 1u);
  EXPECT_EQ(xs[2], 30u);
}

TEST(Cli, UintListFallback) {
  const Cli cli = parse({});
  const auto xs = cli.get_uint_list("sizes", {4, 5});
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[1], 5u);
}

TEST(Cli, MalformedValuesThrow) {
  EXPECT_THROW((void)parse({"--n=abc"}).get_uint("n", 0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=1.5"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=xyz"}).get_double("n", 0), std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=maybe"}).get_bool("n", false), std::invalid_argument);
  EXPECT_THROW(parse({"--n=1,,2"}).get_uint_list("n", {}), std::invalid_argument);
}

}  // namespace
}  // namespace crcw::util
