// Tests for the `ldpr` subcommand CLI (src/cli/), driven through
// cli::Main exactly as tools/ldpr.cc calls it.  Every rejected case
// fails at flag validation, before any experiment runs; `ldpr diff`
// runs on tiny hand-written result trees.

#include "cli/cli.h"

#include <filesystem>
#include <fstream>
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

// The shard commands run the same input checks as `ldpr run`, so a
// spec the trial cannot honour is an error message and exit 1, not a
// CHECK abort inside the planner.
TEST(CliTest, ShardCommandsRejectBadTrialInputs) {
  const struct {
    std::vector<std::string> flags;
    const char* error;
  } kCases[] = {
      {{"--beta=1.5"}, "beta must be in [0, 1)"},
      {{"--beta=-0.2"}, "beta must be in [0, 1)"},
      {{"--beta=1"}, "beta must be in [0, 1)"},
      {{"--epsilon=0"}, "epsilon must be > 0"},
      {{"--targets=40", "--d=32"}, "targets must be in [1, domain size]"},
  };
  for (const auto& c : kCases) {
    for (const char* command : {"shard-worker", "shard-merge"}) {
      std::vector<std::string> args = {command, "--attack=MGA", "--n=2000"};
      if (std::string(command) == "shard-merge") {
        args.push_back("--inprocess");
      }
      args.insert(args.end(), c.flags.begin(), c.flags.end());
      testing::internal::CaptureStderr();
      const int rc = RunMain(args);
      const std::string err = testing::internal::GetCapturedStderr();
      EXPECT_EQ(rc, 1) << command << " " << c.flags[0];
      EXPECT_NE(err.find(std::string("INVALID_ARGUMENT: ") + c.error),
                std::string::npos)
          << command << " " << c.flags[0] << ": " << err;
    }
  }
}

TEST(CliTest, DiffIsListed) {
  for (const char* command : {"help", "list"}) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(RunMain({command}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("\n  diff "), std::string::npos) << command;
  }
}

// Writes a one-scenario result tree whose single metric is `value`.
std::string WriteTree(const std::string& name, const std::string& value) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "ldpr_cli_test" / name;
  std::filesystem::create_directories(root / "s1");
  std::ofstream(root / "manifest.json")
      << "{\"schema_version\":2,\"kind\":\"ldpr_result_tree\","
         "\"scenarios\":[{\"id\":\"s1\"}]}\n";
  std::ofstream(root / "s1" / "manifest.json")
      << "{\"schema_version\":2,\"scenario\":\"s1\",\"seed\":7,"
         "\"scale\":0.01,\"trials\":2,\"timing_columns\":[]}\n";
  std::ofstream(root / "s1" / "results.jsonl")
      << "{\"scenario\":\"s1\",\"table\":\"T\",\"row\":\"GRR\","
         "\"values\":{\"M\":" << value << "}}\n";
  return root.string();
}

TEST(CliTest, DiffExitCodes) {
  const std::string a = WriteTree("a", "0.5");
  const std::string b = WriteTree("b", "0.5");
  const std::string c = WriteTree("c", "0.6");
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunMain({"diff", a, b}), 0);
  EXPECT_EQ(RunMain({"diff", a, c}), 1);
  EXPECT_EQ(RunMain({"diff", "--tolerance=0.2", a, c}), 0);
  // Usage and load errors.
  EXPECT_EQ(RunMain({"diff", a}), 2);
  EXPECT_EQ(RunMain({"diff", a, a + "/no_such_dir"}), 2);
  EXPECT_EQ(RunMain({"diff", "--exact", a, b}), 2);
  EXPECT_EQ(RunMain({"diff", "--tolerance=-1", a, b}), 2);
  EXPECT_EQ(RunMain({"diff", "--tolerance=abc", a, b}), 2);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[value-drift] s1 | T | GRR | M"), std::string::npos)
      << out;
  EXPECT_NE(err.find("unknown flag --exact"), std::string::npos) << err;
  std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                              "ldpr_cli_test");
}

}  // namespace
}  // namespace cli
}  // namespace ldpr
