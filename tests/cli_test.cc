// Tests for the `ldpr` subcommand CLI (src/cli/), driven through
// cli::Main exactly as tools/ldpr.cc calls it.  Every rejected case
// fails at flag validation, before any experiment runs; `ldpr diff`
// runs on tiny hand-written result trees and on small `run`/`stream`
// trees.

#include "cli/cli.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "runner/result_diff.h"
#include "scenarios.h"
#include "sim/experiment.h"

namespace ldpr {
namespace cli {
namespace {

int RunMain(std::vector<std::string> args) {
  args.insert(args.begin(), "ldpr");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Main(static_cast<int>(argv.size()), argv.data());
}

// Runs `args` with stdout captured; returns (exit code, stderr).
std::pair<int, std::string> RunQuiet(const std::vector<std::string>& args) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = RunMain(args);
  testing::internal::GetCapturedStdout();
  return {rc, testing::internal::GetCapturedStderr()};
}

std::filesystem::path TestDir() {
  return std::filesystem::temp_directory_path() / "ldpr_cli_test";
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
       {"--trials=-1", "--targets=-1", "--seed=-1", "--threads=-1",
        "--threads=100000"}) {
    EXPECT_EQ(RunMain({"run", "--attack=AA", flag}), 1) << flag;
  }
  for (const char* flag :
       {"--window=-5", "--stride=-5", "--targets=-1", "--seed=-1"}) {
    EXPECT_EQ(RunMain({"stream", flag}), 1) << flag;
  }
}

// A trial the inputs cannot honour is an error message and exit 1,
// not a CHECK abort inside the pipeline.
TEST(CliTest, RunRejectsBadTrialInputs) {
  const struct {
    std::vector<std::string> flags;
    const char* error;
  } kCases[] = {
      {{"--beta=1.5"}, "beta must be in [0, 1)"},
      {{"--beta=-0.2"}, "beta must be in [0, 1)"},
      {{"--beta=1"}, "beta must be in [0, 1)"},
      {{"--epsilon=0"}, "--epsilon must be in (0, 8]"},
      {{"--targets=40", "--d=32"}, "targets must be in [1, domain size - 1]"},
      {{"--targets=32", "--d=32"},
       "targets must be in [1, domain size - 1] for MGA attacks: "
       "LDPRecover* needs an item outside the targets"},
  };
  for (const auto& c : kCases) {
    std::vector<std::string> args = {"run", "--dataset=zipf", "--attack=MGA",
                                     "--n=2000"};
    args.insert(args.end(), c.flags.begin(), c.flags.end());
    const auto [rc, err] = RunQuiet(args);
    EXPECT_EQ(rc, 1) << c.flags[0];
    EXPECT_NE(err.find(std::string("INVALID_ARGUMENT: ") + c.error),
              std::string::npos)
        << c.flags[0] << ": " << err;
  }
}

// --epsilon is checked once, in the shared trial-flag parser: a value
// outside (0, kMaxEpsilon] used to abort `stream` on a CHECK, hang GRR
// (e^eps overflowing to inf/inf) or exhaust memory in MGA's search
// over OLH's e^eps + 1 hash buckets.
TEST(CliTest, EpsilonOutsideItsRangeIsAFlagError) {
  char cap[32], above[32];
  std::snprintf(cap, sizeof(cap), "--epsilon=%.17g", kMaxEpsilon);
  std::snprintf(above, sizeof(above), "--epsilon=%.17g",
                std::nextafter(kMaxEpsilon, HUGE_VAL));
  for (const char* command : {"run", "stream"}) {
    for (const char* flag : {"--epsilon=0", "--epsilon=-1", "--epsilon=nan",
                             "--epsilon=inf", static_cast<const char*>(above)}) {
      const auto [rc, err] = RunQuiet({command, "--dataset=zipf", flag});
      EXPECT_EQ(rc, 1) << command << " " << flag;
      EXPECT_NE(err.find("INVALID_ARGUMENT: --epsilon must be in (0, 8]"),
                std::string::npos)
          << command << " " << flag << ": " << err;
    }
  }
  // Every protocol runs a cheap trial at the cap itself.
  for (const char* protocol : {"GRR", "OUE", "OLH", "SUE", "BLH"}) {
    const std::string p = std::string("--protocol=") + protocol;
    EXPECT_EQ(RunQuiet({"run", p, "--attack=MGA", "--dataset=zipf", "--d=16",
                        "--n=2000", "--trials=1", cap})
                  .first,
              0)
        << protocol;
    EXPECT_EQ(RunQuiet({"stream", p, "--dataset=zipf", "--d=16", "--n=2000",
                        cap})
                  .first,
              0)
        << protocol;
  }
}

// A count past int64_t used to abort `run` (bad_alloc for --n,
// length_error for --trials), and an --eta of inf printed NaN rows
// with exit 0; each is now a flag error before any trial runs.
TEST(CliTest, UnrepresentableNumbersAreFlagErrors) {
  const struct {
    const char* flag;
    const char* error;
  } kCases[] = {
      {"--n=99999999999999999999", "flag --n expects an integer"},
      {"--trials=99999999999999999999", "flag --trials expects an integer"},
      {"--seed=99999999999999999999", "flag --seed expects an integer"},
      {"--eta=inf", "flag --eta expects a number"},
      {"--eta=1e999", "flag --eta expects a number"},
      {"--beta=nan", "flag --beta expects a number"},
  };
  for (const auto& c : kCases) {
    const auto [rc, err] =
        RunQuiet({"run", "--protocol=OUE", "--attack=MGA", "--dataset=zipf",
                  "--d=16", "--n=2000", "--trials=1", c.flag});
    EXPECT_EQ(rc, 1) << c.flag;
    EXPECT_NE(err.find(c.error), std::string::npos) << c.flag << ": " << err;
  }
  EXPECT_EQ(RunMain({"stream", "--dataset=zipf", "--n=99999999999999999999"}),
            1);
}

// A representable but huge count used to abort `run` (bad_alloc for
// --n, length_error for --d and --trials); past its documented cap
// each is now a flag error before any trial runs.  So is a shape
// whose counts are each within their caps but whose crafted reports
// (beta*n/(1-beta) of them, d bytes each for OUE) are not, and a
// --csv population past the --d cap.
TEST(CliTest, CountsPastTheirCapsAreFlagErrors) {
  const std::string above_d = "--d=" + std::to_string(kMaxDomainSize + 1);
  const std::string above_n = "--n=" + std::to_string(kMaxUsers + 1);
  const std::string above_trials =
      "--trials=" + std::to_string(kMaxTrials + 1);
  const struct {
    std::vector<std::string> args;
    const char* error;
  } kCases[] = {
      {{"run", "--n=9223372036854775807"}, "--n must be in [1, 100000000]"},
      {{"run", "--d=9223372036854775807"}, "--d must be in [2, 100000]"},
      {{"run", "--trials=1000000000000000000"},
       "trials must be in [1, 10000]"},
      {{"run", above_n}, "--n must be in [1, 100000000]"},
      {{"run", above_d}, "--d must be in [2, 100000]"},
      {{"run", above_trials}, "trials must be in [1, 10000]"},
      {{"run", "--trials=0"}, "trials must be in [1, 10000]"},
      {{"run", "--protocol=OUE", "--d=100000", "--n=100000000"},
       "the attack's 5.26e+06 crafted reports would take 490 GiB"},
      {{"run", "--beta=0.999999", "--n=100000000"},
       "the attack's 1e+14 crafted reports"},
      {{"stream", "--n=9223372036854775807"}, "--n must be in [1, 100000000]"},
      {{"stream", above_d}, "--d must be in [2, 100000]"},
      {{"stream", "--protocol=OUE", "--beta=0.25", "--d=100000"},
       "the stream's 100000 reports of 100000 bits would draw 1e+10 bits"},
  };
  for (const auto& c : kCases) {
    std::vector<std::string> args = c.args;
    args.insert(args.begin() + 1, "--dataset=zipf");
    if (args[0] == "run") args.insert(args.begin() + 1, "--attack=AA");
    const auto [rc, err] = RunQuiet(args);
    EXPECT_EQ(rc, 1) << args.back();
    EXPECT_NE(err.find(std::string("INVALID_ARGUMENT: ") + c.error),
              std::string::npos)
        << args.back() << ": " << err;
  }
  // A --csv population answers to the caps of the --d/--n it stands
  // in for.
  std::filesystem::create_directories(TestDir());
  const std::string csv = (TestDir() / "above_d.csv").string();
  {
    std::ofstream out(csv);
    out << "item\n";
    for (int64_t i = 0; i <= kMaxDomainSize; ++i) out << "label" << i << "\n";
  }
  for (const char* command : {"run", "stream"}) {
    const auto [rc, err] =
        RunQuiet({command, "--protocol=OUE", "--csv=" + csv});
    EXPECT_EQ(rc, 1) << command;
    EXPECT_NE(err.find("INVALID_ARGUMENT: --csv distinct items must be in "
                       "[2, 100000]"),
              std::string::npos)
        << command << ": " << err;
  }
  std::filesystem::remove(csv);
}

// Named datasets resolve through the runner's one generator table, so
// every command rejects --d/--n on a fixed-shape dataset instead of
// silently running its native shape.
TEST(CliTest, FixedShapeDatasetsRejectShapeFlags) {
  const std::vector<std::vector<std::string>> kCases = {
      {"run", "--dataset=ipums", "--d=50"},
      {"stream", "--dataset=ipums", "--d=50"},
      {"stream", "--dataset=fire", "--d=50", "--n=10"},
  };
  for (const auto& args : kCases) {
    const auto [rc, err] = RunQuiet(args);
    EXPECT_EQ(rc, 1) << args[0] << " " << args[1];
    EXPECT_NE(err.find("has a fixed shape and accepts no d/n overrides"),
              std::string::npos)
        << args[0] << " " << args[1] << ": " << err;
  }
}

TEST(CliTest, TrialFlagErrors) {
  const struct {
    std::vector<std::string> args;
    const char* error;
  } kCases[] = {
      {{"run", "--dataset=zipf", "--zipf_s=1.1"}, "unknown flag --zipf_s"},
      {{"stream", "--dataset=zipf", "--zipf_s=1.1"}, "unknown flag --zipf_s"},
      {{"run", "--dataset=zipf", "--d=1"}, "--d must be in [2, 100000]"},
      {{"stream", "--dataset=zipf", "--n=0"}, "--n must be in [1, 100000000]"},
      {{"run", "--csv=items.csv", "--d=50"}, "--csv fixes the population"},
      {{"run", "--scale=2"}, "--scale must be in (0, 1]"},
  };
  for (const auto& c : kCases) {
    const auto [rc, err] = RunQuiet(c.args);
    EXPECT_EQ(rc, 1) << c.args[1];
    EXPECT_NE(err.find(c.error), std::string::npos) << c.args[1] << ": " << err;
  }
}

// The stream example README.md and docs/benchmarks.md document, at a
// small --n.
TEST(CliTest, DocumentedStreamCommandRuns) {
  EXPECT_EQ(RunQuiet({"stream", "--protocol=OUE", "--dataset=zipf",
                      "--wave=wave", "--beta=0.25", "--n=5000"})
                .first,
            0);
}

// `run --out` and `stream --out` write result trees `ldpr diff` reads;
// the trees of one spec agree exactly at any thread count.
TEST(CliTest, RunAndStreamOutAreDiffableTrees) {
  const std::string root = (TestDir() / "out").string();
  const std::vector<std::string> run = {
      "run",     "--protocol=OUE", "--attack=MGA", "--dataset=zipf",
      "--d=16", "--n=5000",       "--trials=2"};
  const std::vector<std::string> stream = {
      "stream", "--protocol=OUE", "--dataset=zipf", "--d=16",
      "--n=5000", "--wave=wave",  "--beta=0.2"};
  for (const auto& [args, id] :
       {std::pair(run, "cli"), std::pair(stream, "cli-stream")}) {
    for (const char* threads : {"1", "4"}) {
      std::vector<std::string> with_out = args;
      with_out.push_back("--out=" + root + "/" + args[0] + threads);
      if (args[0] == "run")
        with_out.push_back(std::string("--threads=") + threads);
      EXPECT_EQ(RunQuiet(with_out).first, 0) << args[0];
      const auto tree = LoadResultTree(root + "/" + args[0] + threads);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      ASSERT_EQ(tree->scenarios.size(), 1u);
      EXPECT_EQ(tree->scenarios[0].id, id);
      EXPECT_FALSE(tree->scenarios[0].rows.empty());
    }
    EXPECT_EQ(RunQuiet({"diff", root + "/" + args[0] + "1",
                        root + "/" + args[0] + "4"})
                  .first,
              0)
        << args[0];
  }
  std::filesystem::remove_all(root);
}

TEST(CliTest, UsageAndListNameEveryCommand) {
  for (const char* command : {"help", "list"}) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(RunMain({command}), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    for (const char* listed : {"run", "stream", "bench", "diff", "list"}) {
      EXPECT_NE(out.find(std::string("\n  ") + listed + " "),
                std::string::npos)
          << command << " " << listed;
    }
    // No shard subcommand; the shard_fault_* scenario ids may follow.
    const std::string commands = out.substr(0, out.find("\nscenarios"));
    EXPECT_EQ(commands.find("shard"), std::string::npos)
        << command << ": " << out;
  }
}

// `ldpr` registers the bench scenarios before Main, as
// tools/ldpr.cc does; `list` then names every one.
TEST(CliTest, ListNamesEveryRegisteredScenario) {
  bench::RegisterAllScenarios();
  testing::internal::CaptureStdout();
  EXPECT_EQ(RunMain({"list"}), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  const auto scenarios = ScenarioRegistry::Global().scenarios();
  ASSERT_FALSE(scenarios.empty());
  for (const Scenario* scenario : scenarios) {
    EXPECT_NE(out.find("\n  " + scenario->spec.id + " "), std::string::npos)
        << scenario->spec.id << ": " << out;
  }
}

// `ldpr bench` refuses a run it cannot honour with exit 1: bad flags
// before any scenario starts, a repeated id under --out when its
// second run would truncate the first one's files.
TEST(CliTest, BenchFlagErrors) {
  bench::RegisterAllScenarios();
  const std::string twice = "--out=" + (TestDir() / "twice").string();
  const struct {
    std::vector<std::string> args;
    const char* error;
  } kCases[] = {
      {{"--scenario=fig3,no_such"}, "unknown scenario 'no_such'"},
      {{"--scale=0.01"}, "--scenario needs ID[,ID...] or all"},
      {{"--scenario=fig3", "--list"}, "unknown flag --list"},
      {{"--scenario=fig3", "--trials=0"}, "--trials must be in [1, 10000]"},
      {{"--scenario=fig3", "--trials=10001"},
       "--trials must be in [1, 10000]"},
      {{"--scenario=fig3", "--scale=1.5"}, "--scale must be in (0, 1]"},
      {{"--scenario=fig3", "--threads=100000"},
       "--threads must be in [0, 1024]"},
      {{"--scenario=table1,table1", "--scale=0.01", "--trials=1", twice},
       "scenario 'table1' already written"},
  };
  for (const auto& c : kCases) {
    std::vector<std::string> args = {"bench"};
    args.insert(args.end(), c.args.begin(), c.args.end());
    const auto [rc, err] = RunQuiet(args);
    EXPECT_EQ(rc, 1) << c.args.back();
    EXPECT_NE(err.find(c.error), std::string::npos)
        << c.args.back() << ": " << err;
  }
  std::filesystem::remove_all(TestDir());
}

// A list of several ids runs each to the console (no --out).
TEST(CliTest, BenchRunsSeveralScenariosToTheConsole) {
  bench::RegisterAllScenarios();
  EXPECT_EQ(RunQuiet({"bench", "--scenario=fig3,table1,scaling_n",
                      "--scale=0.01", "--trials=1"})
                .first,
            0);
}

TEST(CliTest, UnknownCommandsAreRejected) {
  for (const char* command : {"shard-worker", "shard-merge", "runn"}) {
    const auto [rc, err] = RunQuiet({command});
    EXPECT_EQ(rc, 1) << command;
    EXPECT_NE(err.find(std::string("unknown command: ") + command),
              std::string::npos)
        << err;
  }
}

// Writes a one-scenario result tree whose single metric is `value`.
std::string WriteTree(const std::string& name, const std::string& value) {
  const std::filesystem::path root = TestDir() / name;
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
  std::filesystem::remove_all(TestDir());
}

}  // namespace
}  // namespace cli
}  // namespace ldpr
