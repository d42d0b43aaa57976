// runner/result_diff (the library behind `ldpr diff`): tree
// loading, the (scenario, table, row) join, exact vs tolerance
// gating, timing-column exemption, the structural error paths, and
// the golden drift table.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/result_diff.h"

namespace ldpr {
namespace {

class LdprDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() / "ldpr_diff_test")
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static void WriteFile(const std::string& path, const std::string& body) {
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary);
    out << body;
    ASSERT_TRUE(out.good()) << path;
  }

  // The tree manifest of `tree`, listing `ids`.
  void WriteTreeManifest(const std::string& tree,
                         const std::vector<std::string>& ids) {
    std::string entries;
    for (const std::string& id : ids) {
      if (!entries.empty()) entries += ",";
      entries += "{\"id\":\"" + id + "\"}";
    }
    WriteFile(root_ + "/" + tree + "/manifest.json",
              "{\"schema_version\":2,\"kind\":\"ldpr_result_tree\","
              "\"scenarios\":[" + entries + "]}\n");
  }

  // One scenario dir with a v2 manifest and the given JSONL rows,
  // added to its tree's manifest.
  void WriteScenario(const std::string& tree, const std::string& id,
                     const std::vector<std::string>& rows,
                     const std::string& timing_columns = "[]",
                     const std::string& knobs =
                         "\"seed\":7,\"scale\":0.01,\"trials\":2") {
    std::vector<std::string>& ids = tree_ids_[tree];
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    WriteTreeManifest(tree, ids);
    const std::string dir = root_ + "/" + tree + "/" + id;
    WriteFile(dir + "/manifest.json",
              "{\"schema_version\":2,\"scenario\":\"" + id + "\"," + knobs +
                  ",\"timing_columns\":" + timing_columns + "}\n");
    std::string jsonl;
    for (const std::string& row : rows) jsonl += row + "\n";
    WriteFile(dir + "/results.jsonl", jsonl);
  }

  static std::string Row(const std::string& id, const std::string& table,
                         const std::string& row, const std::string& values) {
    return "{\"scenario\":\"" + id + "\",\"table\":\"" + table +
           "\",\"row\":\"" + row + "\",\"values\":{" + values + "}}";
  }

  ResultTree Load(const std::string& tree) {
    auto loaded = LoadResultTree(root_ + "/" + tree);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? std::move(*loaded) : ResultTree{};
  }

  std::string root_;
  std::map<std::string, std::vector<std::string>> tree_ids_;
};

TEST_F(LdprDiffTest, RelativeDriftBasics) {
  EXPECT_DOUBLE_EQ(RelativeDrift(1.0, 1.0, 1e-12), 0);
  EXPECT_DOUBLE_EQ(RelativeDrift(1.0, 2.0, 1e-12), 0.5);
  EXPECT_DOUBLE_EQ(RelativeDrift(-1.0, 1.0, 1e-12), 2.0);
  // Both below the floor: noise, not drift.
  EXPECT_DOUBLE_EQ(RelativeDrift(1e-15, -1e-15, 1e-12), 0);
  // NaN on both sides is agreement; on one side is worst-case drift.
  EXPECT_DOUBLE_EQ(RelativeDrift(std::nan(""), std::nan(""), 1e-12), 0);
  EXPECT_TRUE(std::isnan(RelativeDrift(std::nan(""), 1.0, 1e-12)));
}

TEST_F(LdprDiffTest, IdenticalTreesAgreeInExactMode) {
  for (const char* tree : {"a", "b"}) {
    WriteScenario(tree, "s1",
                  {Row("s1", "T (zipf): MSE", "GRR", "\"M\":0.125,\"R\":0.5"),
                   Row("s1", "T (zipf): MSE", "OUE", "\"M\":0.25,\"R\":1.5")});
  }
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].rows, 2u);
  EXPECT_EQ(report.scenarios[0].values, 4u);
  EXPECT_EQ(report.scenarios[0].max_drift, 0);
}

TEST_F(LdprDiffTest, PerturbedValueFailsExactAndNamesTheCell) {
  WriteScenario("a", "s1",
                {Row("s1", "T (zipf): MSE", "GRR", "\"M\":0.125,\"R\":0.5")});
  WriteScenario("b", "s1",
                {Row("s1", "T (zipf): MSE", "GRR", "\"M\":0.125,\"R\":0.6")});
  DiffOptions exact;
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), exact);
  ASSERT_EQ(report.violations.size(), 1u);
  const DiffViolation& v = report.violations[0];
  EXPECT_EQ(v.kind, "value-drift");
  EXPECT_EQ(v.scenario, "s1");
  EXPECT_EQ(v.table, "T (zipf): MSE");
  EXPECT_EQ(v.row, "GRR");
  EXPECT_EQ(v.column, "R");
  EXPECT_DOUBLE_EQ(v.a, 0.5);
  EXPECT_DOUBLE_EQ(v.b, 0.6);
  EXPECT_NEAR(v.drift, 1.0 / 6.0, 1e-12);

  // The same drift passes a loose tolerance and fails a tight one.
  DiffOptions loose;
  loose.exact = false;
  loose.tolerance = 0.2;
  EXPECT_TRUE(DiffResultTrees(Load("a"), Load("b"), loose).ok());
  DiffOptions tight;
  tight.exact = false;
  tight.tolerance = 0.1;
  EXPECT_FALSE(DiffResultTrees(Load("a"), Load("b"), tight).ok());
}

TEST_F(LdprDiffTest, TimingColumnsReportButNeverGate) {
  WriteScenario(
      "a", "s1",
      {Row("s1", "T", "GRR", "\"M\":0.125,\"secs/trial\":0.002")},
      "[\"secs/trial\"]");
  WriteScenario(
      "b", "s1",
      {Row("s1", "T", "GRR", "\"M\":0.125,\"secs/trial\":0.5")},
      "[\"secs/trial\"]");
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.scenarios.size(), 1u);
  // Timing drift lands in the summary, not in values/violations.
  EXPECT_EQ(report.scenarios[0].values, 1u);
  EXPECT_GT(report.scenarios[0].max_timing_drift, 0.9);
  // The union rule: one side declaring the column suffices.
  WriteScenario("c", "s1",
                {Row("s1", "T", "GRR", "\"M\":0.125,\"secs/trial\":0.5")});
  EXPECT_TRUE(DiffResultTrees(Load("a"), Load("c"), {}).ok());
}

TEST_F(LdprDiffTest, MissingAndExtraRowsAreViolations) {
  WriteScenario("a", "s1",
                {Row("s1", "T", "GRR", "\"M\":1"),
                 Row("s1", "T", "OUE", "\"M\":2")});
  WriteScenario("b", "s1",
                {Row("s1", "T", "GRR", "\"M\":1"),
                 Row("s1", "T", "OLH", "\"M\":3")});
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].kind, "missing-row");
  EXPECT_EQ(report.violations[0].row, "OUE");
  EXPECT_EQ(report.violations[1].kind, "extra-row");
  EXPECT_EQ(report.violations[1].row, "OLH");
}

TEST_F(LdprDiffTest, ColumnSchemaMismatchIsAViolation) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1,\"Old\":2")});
  WriteScenario("b", "s1", {Row("s1", "T", "GRR", "\"M\":1,\"New\":2")});
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].kind, "schema-mismatch");
  EXPECT_EQ(report.violations[0].column, "Old");
  EXPECT_EQ(report.violations[1].kind, "schema-mismatch");
  EXPECT_EQ(report.violations[1].column, "New");
}

TEST_F(LdprDiffTest, MissingAndExtraScenariosAreViolations) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  WriteScenario("a", "s2", {Row("s2", "T", "GRR", "\"M\":1")});
  WriteScenario("b", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  WriteScenario("b", "s3", {Row("s3", "T", "GRR", "\"M\":1")});
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].kind, "missing-scenario");
  EXPECT_EQ(report.violations[0].scenario, "s2");
  EXPECT_EQ(report.violations[1].kind, "extra-scenario");
  EXPECT_EQ(report.violations[1].scenario, "s3");
}

TEST_F(LdprDiffTest, RunKnobMismatchIsAViolationInBothModes) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  WriteScenario("b", "s1", {Row("s1", "T", "GRR", "\"M\":1")}, "[]",
                "\"seed\":8,\"scale\":0.01,\"trials\":2");
  for (const bool exact : {true, false}) {
    DiffOptions options;
    options.exact = exact;
    const DiffReport report = DiffResultTrees(Load("a"), Load("b"), options);
    ASSERT_EQ(report.violations.size(), 1u) << exact;
    EXPECT_EQ(report.violations[0].kind, "manifest-mismatch");
    EXPECT_NE(report.violations[0].detail.find("seed"), std::string::npos);
  }
}

TEST_F(LdprDiffTest, GoldenDriftTable) {
  WriteScenario("a", "s1",
                {Row("s1", "T", "GRR", "\"M\":1,\"R\":4"),
                 Row("s1", "T", "OUE", "\"M\":2,\"R\":8")});
  WriteScenario("b", "s1",
                {Row("s1", "T", "GRR", "\"M\":1,\"R\":5"),
                 Row("s1", "T", "OUE", "\"M\":2,\"R\":8")});
  const DiffReport report = DiffResultTrees(Load("a"), Load("b"), {});
  const std::string expected =
      "scenario        rows  values  max-drift   viol  worst cell\n"
      "------------------------------------------------------------------"
      "------------\n"
      "s1                 2       4        0.2      1  T | GRR | R\n"
      "\n"
      "violations:\n"
      "  [value-drift] s1 | T | GRR | R: 4 vs 5 (drift 0.2)\n";
  EXPECT_EQ(FormatDriftTable(report), expected);
}

TEST_F(LdprDiffTest, TopLevelManifestSelectsScenarios) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  WriteScenario("a", "s2", {Row("s2", "T", "GRR", "\"M\":1")});
  // The tree manifest lists only s2: s1 must not load.
  WriteTreeManifest("a", {"s2"});
  const ResultTree tree = Load("a");
  ASSERT_EQ(tree.scenarios.size(), 1u);
  EXPECT_EQ(tree.scenarios[0].id, "s2");
}

TEST_F(LdprDiffTest, LoadErrorPaths) {
  EXPECT_FALSE(LoadResultTree(root_ + "/nonexistent").ok());

  // A directory with no manifests anywhere is not a result tree.
  std::filesystem::create_directories(root_ + "/empty/sub");
  EXPECT_FALSE(LoadResultTree(root_ + "/empty").ok());

  // Malformed manifest JSON.
  WriteTreeManifest("badman", {"s1"});
  WriteFile(root_ + "/badman/s1/manifest.json", "{nope\n");
  WriteFile(root_ + "/badman/s1/results.jsonl", "");
  EXPECT_FALSE(LoadResultTree(root_ + "/badman").ok());

  // Malformed row JSON.
  WriteScenario("badrow", "s1", {"{broken"});
  EXPECT_FALSE(LoadResultTree(root_ + "/badrow").ok());

  // Duplicate (table, row) key.
  WriteScenario("dup", "s1",
                {Row("s1", "T", "GRR", "\"M\":1"),
                 Row("s1", "T", "GRR", "\"M\":2")});
  const auto dup = LoadResultTree(root_ + "/dup");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate row key"),
            std::string::npos);

  // A row claiming a different scenario than its manifest.
  WriteScenario("wrongid", "s1", {Row("other", "T", "GRR", "\"M\":1")});
  EXPECT_FALSE(LoadResultTree(root_ + "/wrongid").ok());

  // Non-numeric metric value.
  WriteScenario("badval", "s1", {Row("s1", "T", "GRR", "\"M\":\"oops\"")});
  EXPECT_FALSE(LoadResultTree(root_ + "/badval").ok());
}

TEST_F(LdprDiffTest, ScenarioManifestNamingAnotherIdIsALoadError) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  // The tree lists s1, but s1/ holds scenario s2's manifest.
  WriteFile(root_ + "/a/s1/manifest.json",
            "{\"schema_version\":2,\"scenario\":\"s2\",\"seed\":7}\n");
  const auto loaded = LoadResultTree(root_ + "/a");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("names scenario 's2'"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(LdprDiffTest, DuplicateTreeManifestIdIsALoadError) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  WriteTreeManifest("a", {"s1", "s1"});
  const auto loaded = LoadResultTree(root_ + "/a");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("'s1' listed twice"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(LdprDiffTest, ScenarioDirsWithoutATreeManifestAreALoadError) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  std::filesystem::remove(root_ + "/a/manifest.json");
  const auto loaded = LoadResultTree(root_ + "/a");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(root_ + "/a/manifest.json"),
            std::string::npos)
      << loaded.status().ToString();
  // A single scenario directory is not a tree either.
  EXPECT_FALSE(LoadResultTree(root_ + "/a/s1").ok());
}

TEST_F(LdprDiffTest, ExactModeIgnoresTheNoiseFloor) {
  // Sub-floor differences are still determinism breaks in exact
  // mode; only tolerance mode treats near-zero noise as drift-free.
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":1e-15")});
  WriteScenario("b", "s1", {Row("s1", "T", "GRR", "\"M\":-1e-15")});
  DiffOptions exact;
  EXPECT_FALSE(DiffResultTrees(Load("a"), Load("b"), exact).ok());
  DiffOptions tolerant;
  tolerant.exact = false;
  tolerant.tolerance = 0.01;
  EXPECT_TRUE(DiffResultTrees(Load("a"), Load("b"), tolerant).ok());
}

TEST_F(LdprDiffTest, NullMetricLoadsAsNaNAndMatchesNull) {
  WriteScenario("a", "s1", {Row("s1", "T", "GRR", "\"M\":null")});
  WriteScenario("b", "s1", {Row("s1", "T", "GRR", "\"M\":null")});
  WriteScenario("c", "s1", {Row("s1", "T", "GRR", "\"M\":1")});
  EXPECT_TRUE(DiffResultTrees(Load("a"), Load("b"), {}).ok());
  // NaN vs a number is a violation even under a loose tolerance.
  DiffOptions loose;
  loose.exact = false;
  loose.tolerance = 100;
  EXPECT_FALSE(DiffResultTrees(Load("a"), Load("c"), loose).ok());
}

}  // namespace
}  // namespace ldpr
