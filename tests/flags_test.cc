#include "util/flags.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsForm) {
  const auto flags = Parse({"--protocol=OUE", "--beta=0.1"});
  EXPECT_EQ(flags.GetString("protocol", "GRR"), "OUE");
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0).value(), 0.1);
}

TEST(FlagParserTest, SpaceForm) {
  const auto flags = Parse({"--protocol", "OLH", "--trials", "7"});
  EXPECT_EQ(flags.GetString("protocol", ""), "OLH");
  EXPECT_EQ(flags.GetInt("trials", 0).value(), 7);
}

TEST(FlagParserTest, BooleanForms) {
  const auto flags = Parse({"--verbose", "--fast=true", "--slow=0"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_FALSE(flags.GetBool("slow", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const auto flags = Parse({});
  EXPECT_EQ(flags.GetString("x", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(flags.GetDouble("y", 2.5).value(), 2.5);
  EXPECT_EQ(flags.GetInt("z", -3).value(), -3);
  EXPECT_FALSE(flags.Has("x"));
}

TEST(FlagParserTest, MalformedNumbersAreErrors) {
  const auto flags = Parse({"--beta=abc", "--trials=1.5x"});
  EXPECT_FALSE(flags.GetDouble("beta", 0.0).ok());
  EXPECT_FALSE(flags.GetInt("trials", 0).ok());
}

// A number the type cannot hold is an error, not a saturated or
// non-finite value that runs on: strtoll clamps to INT64_MAX and
// strtod returns inf or NaN.
TEST(FlagParserTest, UnrepresentableNumbersAreErrors) {
  const auto flags =
      Parse({"--seed=99999999999999999999", "--low=-99999999999999999999",
             "--eta=inf", "--big=1e999", "--neg=-inf", "--nan=nan"});
  for (const char* name : {"seed", "low"}) {
    const auto v = flags.GetInt(name, 0);
    ASSERT_FALSE(v.ok()) << name;
    EXPECT_NE(v.status().ToString().find("expects an integer"),
              std::string::npos);
  }
  EXPECT_FALSE(flags.GetNonNegativeInt("seed", 0).ok());
  for (const char* name : {"eta", "big", "neg", "nan"}) {
    const auto v = flags.GetDouble(name, 0.0);
    ASSERT_FALSE(v.ok()) << name;
    EXPECT_NE(v.status().ToString().find("expects a number"),
              std::string::npos);
  }
}

TEST(FlagParserTest, RangeLimitsStillParse) {
  const auto flags = Parse({"--max=9223372036854775807",
                            "--min=-9223372036854775808", "--tiny=1e-300",
                            "--huge=1.7e308"});
  EXPECT_EQ(flags.GetInt("max", 0).value(), INT64_MAX);
  EXPECT_EQ(flags.GetInt("min", 0).value(), INT64_MIN);
  EXPECT_DOUBLE_EQ(flags.GetDouble("tiny", 0.0).value(), 1e-300);
  EXPECT_DOUBLE_EQ(flags.GetDouble("huge", 0.0).value(), 1.7e308);
}

TEST(FlagParserTest, NonNegativeIntRejectsNegatives) {
  const auto flags = Parse({"--trials=-1", "--seed=0"});
  const auto trials = flags.GetNonNegativeInt("trials", 5);
  ASSERT_FALSE(trials.ok());
  EXPECT_EQ(trials.status().ToString(),
            "INVALID_ARGUMENT: --trials must be >= 0");
  EXPECT_EQ(flags.GetNonNegativeInt("seed", 1).value(), 0);
  EXPECT_EQ(flags.GetNonNegativeInt("absent", 3).value(), 3);
}

TEST(FlagParserTest, PositionalArguments) {
  const auto flags = Parse({"input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagParserTest, UnusedFlagsDetected) {
  const auto flags = Parse({"--used=1", "--typo=2"});
  (void)flags.GetInt("used", 0);
  const auto unused = flags.unused_flags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, LastValueWins) {
  const auto flags = Parse({"--x=1", "--x=2"});
  EXPECT_EQ(flags.GetInt("x", 0).value(), 2);
}

}  // namespace
}  // namespace ldpr
