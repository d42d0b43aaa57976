// Tests for the `ldpr` subcommand CLI (src/cli/), driven through
// cli::Main exactly as tools/ldpr.cc calls it.  Every rejected case
// fails at flag validation, before any experiment runs.

#include "cli/cli.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ldpr {
namespace cli {
namespace {

int RunMain(std::vector<std::string> args) {
  args.insert(args.begin(), "ldpr");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Main(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, ListSucceeds) { EXPECT_EQ(RunMain({"list"}), 0); }

TEST(CliTest, FlagsTheSubcommandDoesNotReadAreRejected) {
  EXPECT_EQ(RunMain({"run", "--stream"}), 1);
  for (const char* flag : {"--stream", "--attack=AA", "--trials=7",
                           "--top_k=3", "--threads=2"}) {
    EXPECT_EQ(RunMain({"stream", flag}), 1) << flag;
  }
}

TEST(CliTest, NegativeCountsAreRejected) {
  for (const char* flag :
       {"--trials=-1", "--targets=-1", "--seed=-1", "--threads=-1"}) {
    EXPECT_EQ(RunMain({"run", "--attack=AA", flag}), 1) << flag;
  }
  for (const char* flag :
       {"--window=-5", "--stride=-5", "--targets=-1", "--seed=-1"}) {
    EXPECT_EQ(RunMain({"stream", flag}), 1) << flag;
  }
  EXPECT_EQ(RunMain({"shard-worker", "--seed=-1"}), 1);
}

}  // namespace
}  // namespace cli
}  // namespace ldpr
