// Locks on the shard_fault_* scenarios: run-to-run byte determinism
// (the same-process half of the ctest determinism gate) and the
// contracted fault observables — duplicate delivery drifts the merged
// counts by exactly zero, every torn/bit-flipped line is rejected,
// and shard loss strictly degrades nothing at loss fraction 0.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/result_sink.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"

namespace ldpr {
namespace bench {
namespace {

class ShardScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllScenarios(); }
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs one scenario into a JSONL file and returns the file's bytes.
std::string RunToJsonl(const Scenario& scenario, const std::string& path) {
  JsonlSink sink(path);
  ScenarioRunOptions options;
  options.seed = 424242;
  options.trials = 2;
  options.scale = 0.01;
  const auto report = RunScenario(scenario, options, sink);
  EXPECT_TRUE(report.ok()) << scenario.spec.id << ": "
                           << report.status().ToString();
  EXPECT_TRUE(sink.Finish().ok());
  return ReadFileOrDie(path);
}

TEST_F(ShardScenarioTest, DoubleRunIsByteIdentical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ldpr_shard_det").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  for (const char* id : {"shard_fault_loss", "shard_fault_mixed"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(id);
    ASSERT_NE(scenario, nullptr) << id;
    const std::string first = RunToJsonl(*scenario, dir + "/a.jsonl");
    const std::string second = RunToJsonl(*scenario, dir + "/b.jsonl");
    EXPECT_FALSE(first.empty()) << id;
    EXPECT_EQ(first, second) << id << " is not run-to-run deterministic";
  }
  std::filesystem::remove_all(dir);
}

class RecordingSink : public ResultSink {
 public:
  struct Row {
    std::string label;
    std::vector<double> values;
  };

  void BeginTable(const std::string& /*title*/,
                  const std::vector<std::string>& columns) override {
    columns_ = columns;
  }
  void AddRow(const std::string& label,
              const std::vector<double>& values) override {
    rows_.push_back({label, values});
  }
  Status Finish() override { return Status::Ok(); }

  double Value(const Row& row, const std::string& column) const {
    const auto it = std::find(columns_.begin(), columns_.end(), column);
    EXPECT_NE(it, columns_.end()) << column;
    return row.values[static_cast<size_t>(it - columns_.begin())];
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

void RunToSink(const char* id, RecordingSink& sink) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(id);
  ASSERT_NE(scenario, nullptr) << id;
  ScenarioRunOptions options;
  options.seed = 7;
  options.trials = 2;
  options.scale = 0.01;
  const auto report = RunScenario(*scenario, options, sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(ShardScenarioTest, MixedFaultObservablesHoldExactly) {
  RecordingSink sink;
  RunToSink("shard_fault_mixed", sink);
  ASSERT_EQ(sink.rows().size(), 5u);  // one row per extended protocol
  for (const RecordingSink::Row& row : sink.rows()) {
    // Duplicate delivery merges idempotently: zero count drift.
    EXPECT_EQ(sink.Value(row, "DupDrift"), 0.0) << row.label;
    // The wire layer catches every torn line and every flipped bit.
    EXPECT_EQ(sink.Value(row, "TornRej"), 1.0) << row.label;
    EXPECT_EQ(sink.Value(row, "FlipRej"), 1.0) << row.label;
    // A quarter of the fleet straggling loses a nonzero chunk
    // fraction, but never the majority of the data.
    const double loss = sink.Value(row, "StragLoss");
    EXPECT_GT(loss, 0.0) << row.label;
    EXPECT_LT(loss, 0.5) << row.label;
    // The combined-fault estimate still comes back finite.
    EXPECT_TRUE(std::isfinite(sink.Value(row, "FaultMSE"))) << row.label;
  }
}

TEST_F(ShardScenarioTest, LossSweepDegradesWithLostShards) {
  RecordingSink sink;
  RunToSink("shard_fault_loss", sink);
  ASSERT_EQ(sink.rows().size(), 5u);
  for (const RecordingSink::Row& row : sink.rows()) {
    // Zero loss is the healthy pipeline: finite estimates all around.
    EXPECT_TRUE(std::isfinite(sink.Value(row, "GenL0"))) << row.label;
    EXPECT_TRUE(std::isfinite(sink.Value(row, "MgaL0"))) << row.label;
    EXPECT_TRUE(std::isfinite(sink.Value(row, "RecL0"))) << row.label;
    // Losing half the shards hurts the genuine estimate.
    EXPECT_GT(sink.Value(row, "GenL50"), sink.Value(row, "GenL0"))
        << row.label;
  }
}

}  // namespace
}  // namespace bench
}  // namespace ldpr
