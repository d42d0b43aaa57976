// Registry round-trip for the scenario layer: every id `ldpr list`
// reports resolves back through the registry, every grid spec
// lowers to a valid ExperimentConfig grid whose shape matches the
// declared columns, and a real (tiny) scenario run written through
// the result-tree writer produces the JSONL/manifest pair the --out
// contract promises and reads back through LoadResultTree.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/multi_attacker.h"
#include "runner/manifest.h"
#include "runner/result_diff.h"
#include "runner/result_sink.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "util/random.h"

namespace ldpr {
namespace bench {
namespace {

class ScenarioRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllScenarios(); }
};

const char* const kExpectedIds[] = {
    "table1", "fig3",  "fig4",     "fig5",          "fig6",
    "fig7",   "fig8",  "fig9",     "fig10",         "ablation",
    "ext_protocols",   "scaling_n", "scaling_d",
    "streaming_equiv", "streaming_wave", "streaming_ramp",
    "streaming_drift", "shard_fault_loss", "shard_fault_mixed"};

TEST_F(ScenarioRegistryTest, EveryListedIdResolves) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  std::set<std::string> listed;
  for (const Scenario* scenario : registry.scenarios()) {
    EXPECT_EQ(registry.Find(scenario->spec.id), scenario);
    EXPECT_TRUE(listed.insert(scenario->spec.id).second)
        << "duplicate id " << scenario->spec.id;
  }
  for (const char* id : kExpectedIds) {
    EXPECT_NE(registry.Find(id), nullptr) << id;
  }
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
  EXPECT_EQ(registry.size(), std::size(kExpectedIds));
}

TEST_F(ScenarioRegistryTest, RegistrationIsIdempotent) {
  const size_t before = ScenarioRegistry::Global().size();
  RegisterAllScenarios();
  EXPECT_EQ(ScenarioRegistry::Global().size(), before);
}

TEST_F(ScenarioRegistryTest, SpecsValidateAndGridSpecsLower) {
  for (const Scenario* scenario : ScenarioRegistry::Global().scenarios()) {
    const ScenarioSpec& spec = scenario->spec;
    EXPECT_TRUE(ValidateScenarioSpec(spec).ok()) << spec.id;
    EXPECT_FALSE(spec.title.empty()) << spec.id;
    EXPECT_FALSE(spec.columns.empty()) << spec.id;
    for (const std::string& name : spec.datasets) {
      EXPECT_TRUE(ResolveBenchDataset(name, 0.01).ok())
          << spec.id << " dataset " << name;
    }
    for (const std::string& timing : spec.timing_columns) {
      EXPECT_NE(std::find(spec.columns.begin(), spec.columns.end(), timing),
                spec.columns.end())
          << spec.id << " timing column " << timing;
    }
    if (spec.custom) {
      EXPECT_NE(scenario->run, nullptr) << spec.id;
      // Custom scenarios own their loop; lowering must refuse them.
      EXPECT_FALSE(LowerScenario(spec, 2, 7).ok()) << spec.id;
      continue;
    }
    ASSERT_NE(scenario->format_row, nullptr) << spec.id;

    const auto lowered = LowerScenario(spec, /*trials=*/2, /*seed=*/7);
    ASSERT_TRUE(lowered.ok()) << spec.id << ": "
                              << lowered.status().ToString();
    EXPECT_FALSE(lowered->tables.empty()) << spec.id;
    size_t configs_seen = 0;
    for (const LoweredTable& table : lowered->tables) {
      EXPECT_FALSE(table.title.empty()) << spec.id;
      EXPECT_LT(table.dataset_index, spec.datasets.size()) << spec.id;
      EXPECT_FALSE(table.rows.empty()) << spec.id;
      for (const LoweredRow& row : table.rows) {
        EXPECT_FALSE(row.label.empty()) << spec.id;
        ASSERT_FALSE(row.configs.empty()) << spec.id;
        configs_seen += row.configs.size();
        for (const ExperimentConfig& config : row.configs) {
          EXPECT_GT(config.epsilon, 0.0) << spec.id;
          EXPECT_GE(config.pipeline.beta, 0.0) << spec.id;
          EXPECT_LT(config.pipeline.beta, 1.0) << spec.id;
          EXPECT_GT(config.eta, 0.0) << spec.id;
          EXPECT_EQ(config.trials, 2u) << spec.id;
          EXPECT_EQ(config.seed, 7u) << spec.id;
        }
        // The row formatter must produce exactly the declared
        // columns from this row's result vector.
        const std::vector<ExperimentResult> dummy(row.configs.size());
        EXPECT_EQ(scenario->format_row(dummy).size(), spec.columns.size())
            << spec.id;
      }
    }
    EXPECT_EQ(configs_seen, lowered->config_count) << spec.id;
  }
}

TEST_F(ScenarioRegistryTest, LoweringMatchesPaperGridShapes) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  // fig3: one 7-row table per dataset.
  const auto fig3 = LowerScenario(registry.Find("fig3")->spec, 1, 1);
  ASSERT_TRUE(fig3.ok());
  ASSERT_EQ(fig3->tables.size(), 2u);
  EXPECT_EQ(fig3->tables[0].rows.size(), 7u);
  EXPECT_EQ(fig3->tables[0].title, "Figure 3 (IPUMS): MSE");
  EXPECT_EQ(fig3->tables[0].rows[0].label, "Manip-GRR");
  // fig5: 3 protocols x 3 sweeps, 5 rows each, IPUMS only.
  const auto fig5 = LowerScenario(registry.Find("fig5")->spec, 1, 1);
  ASSERT_TRUE(fig5.ok());
  ASSERT_EQ(fig5->tables.size(), 9u);
  EXPECT_EQ(fig5->tables[0].title, "Fig 5/6 (IPUMS, AA-GRR): MSE vs beta");
  EXPECT_EQ(fig5->tables[0].rows.size(), 5u);
  EXPECT_EQ(fig5->tables[0].rows[0].label, "beta=0.001");
  // fig8: two configs per row (MGA vs MGA-IPA column pair).
  const auto fig8 = LowerScenario(registry.Find("fig8")->spec, 1, 1);
  ASSERT_TRUE(fig8.ok());
  ASSERT_EQ(fig8->tables.size(), 3u);
  ASSERT_EQ(fig8->tables[0].rows[0].configs.size(), 2u);
  EXPECT_EQ(fig8->tables[0].rows[0].configs[0].pipeline.attack,
            AttackKind::kMga);
  EXPECT_EQ(fig8->tables[0].rows[0].configs[1].pipeline.attack,
            AttackKind::kMgaIpa);
  // fig10: the pipeline config builds MUL-AA with five attackers.
  const auto fig10 = LowerScenario(registry.Find("fig10")->spec, 1, 1);
  ASSERT_TRUE(fig10.ok());
  EXPECT_EQ(fig10->tables[0].title,
            "Figure 10 (IPUMS, MUL-AA-GRR, 5 attackers): MSE");
  Rng rng(1);
  const std::unique_ptr<Attack> fig10_attack =
      MakeAttack(fig10->tables[0].rows[0].configs[0].pipeline, 102, rng);
  const auto* multi = dynamic_cast<const MultiAttacker*>(fig10_attack.get());
  ASSERT_NE(multi, nullptr);
  EXPECT_EQ(multi->attacker_count(), 5u);
}

TEST_F(ScenarioRegistryTest, ScalingScenariosLowerAlongDatasetAxes) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();

  // scaling_n: 2 datasets x 5 protocols, one table each, rows whose
  // n_override follows the declared user-count axis; each row carries
  // a genuine + MGA config pair.
  const Scenario* scaling_n = registry.Find("scaling_n");
  ASSERT_NE(scaling_n, nullptr);
  const std::vector<double>& n_axis = scaling_n->spec.sweeps[0].values;
  const auto lowered_n = LowerScenario(scaling_n->spec, 2, 7);
  ASSERT_TRUE(lowered_n.ok()) << lowered_n.status().ToString();
  ASSERT_EQ(lowered_n->tables.size(), 10u);
  for (const LoweredTable& table : lowered_n->tables) {
    ASSERT_EQ(table.rows.size(), n_axis.size());
    for (size_t i = 0; i < table.rows.size(); ++i) {
      const LoweredRow& row = table.rows[i];
      EXPECT_EQ(row.n_override, static_cast<uint64_t>(n_axis[i]));
      EXPECT_EQ(row.d_override, 0u);
      EXPECT_EQ(row.label,
                "n=" + std::to_string(static_cast<uint64_t>(n_axis[i])));
      ASSERT_EQ(row.configs.size(), 2u);
      EXPECT_EQ(row.configs[0].pipeline.attack, AttackKind::kNone);
      EXPECT_EQ(row.configs[1].pipeline.attack, AttackKind::kMga);
    }
  }
  EXPECT_EQ(lowered_n->tables[0].title,
            "Scaling (zipf, GRR): genuine vs MGA accuracy + throughput "
            "vs n");

  // scaling_d: the domain-size axis lands in d_override.
  const Scenario* scaling_d = registry.Find("scaling_d");
  ASSERT_NE(scaling_d, nullptr);
  const std::vector<double>& d_axis = scaling_d->spec.sweeps[0].values;
  const auto lowered_d = LowerScenario(scaling_d->spec, 2, 7);
  ASSERT_TRUE(lowered_d.ok()) << lowered_d.status().ToString();
  ASSERT_EQ(lowered_d->tables.size(), 5u);
  for (const LoweredTable& table : lowered_d->tables) {
    ASSERT_EQ(table.rows.size(), d_axis.size());
    for (size_t i = 0; i < table.rows.size(); ++i) {
      EXPECT_EQ(table.rows[i].d_override,
                static_cast<size_t>(d_axis[i]));
      EXPECT_EQ(table.rows[i].n_override, 0u);
    }
  }

  // The dataset axes resolve against the registered synthetic
  // generators: overrides re-shape zipf/uniform (pre-scale n, exact
  // d), and the fixed-shape paper stand-ins reject them.
  const auto resized =
      ResolveBenchDataset("zipf", 0.01, /*d_override=*/64,
                          /*n_override=*/200000);
  ASSERT_TRUE(resized.ok());
  EXPECT_EQ(resized->domain_size(), 64u);
  EXPECT_EQ(resized->num_users(), 2000u);
  EXPECT_FALSE(ResolveBenchDataset("ipums", 0.01, 64, 0).ok());
  EXPECT_FALSE(ResolveBenchDataset("fire", 0.01, 0, 1000).ok());
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(ScenarioRegistryTest, TinyRunProducesJsonlAndManifest) {
  const Scenario* table1 = ScenarioRegistry::Global().Find("table1");
  ASSERT_NE(table1, nullptr);

  const std::string root =
      (std::filesystem::temp_directory_path() / "ldpr_registry_test")
          .string();
  std::filesystem::remove_all(root);

  // The --out path of `ldpr bench`: the tree writer's sinks, then the
  // scenario's manifest, then the tree manifest.
  ResultTreeWriter tree(root);
  std::vector<std::unique_ptr<ResultSink>> sinks;
  ASSERT_TRUE(tree.OpenScenario("table1", sinks).ok());
  MultiSink sink(std::move(sinks));

  ScenarioRunOptions options;
  options.seed = 99;
  options.trials = 1;
  options.scale = 0.002;
  const auto report = RunScenario(*table1, options, sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(sink.Finish().ok());
  ASSERT_TRUE(tree.CloseScenario(table1->spec, *report).ok());
  ASSERT_TRUE(tree.Finish().ok());
  // Two datasets x one table x three protocol rows.
  EXPECT_EQ(report->tables, 2u);
  EXPECT_EQ(report->rows, 6u);

  // The tree holds the two manifests and the one JSONL file, nothing
  // else.
  std::set<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file())
      files.insert(std::filesystem::relative(entry.path(), root).string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"manifest.json",
                                          "table1/manifest.json",
                                          "table1/results.jsonl"}));

  const std::string dir = root + "/table1";
  const std::string jsonl = ReadFileOrDie(dir + "/results.jsonl");
  // One line per row; every line names its scenario, table and columns.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 6);
  EXPECT_NE(jsonl.find("{\"scenario\":\"table1\",\"table\":\"Table I "
                       "(IPUMS): LDPRecover on unpoisoned frequencies\","
                       "\"row\":\"GRR\",\"values\":{\"Before-Rec\":"),
            std::string::npos);
  EXPECT_NE(jsonl.find(",\"After-Rec\":"), std::string::npos);

  const std::string json = ReadFileOrDie(dir + "/manifest.json");
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"table1\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(json.find("\"scale\":0.002"), std::string::npos);
  EXPECT_NE(json.find("\"simd\":\""), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\":"), std::string::npos);
  EXPECT_NE(json.find("\"files\":[\"results.jsonl\"]"), std::string::npos);
  const std::string tree_json = ReadFileOrDie(root + "/manifest.json");
  EXPECT_NE(tree_json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(tree_json.find("\"kind\":\"ldpr_result_tree\""),
            std::string::npos);
  EXPECT_NE(tree_json.find("\"files\":[\"table1/results.jsonl\","
                           "\"table1/manifest.json\"]"),
            std::string::npos);

  // The tree reads back through the comparator's loader.
  const auto loaded = LoadResultTree(root);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->scenarios.size(), 1u);
  const ScenarioResults& results = loaded->scenarios[0];
  EXPECT_EQ(results.id, "table1");
  EXPECT_EQ(results.seed, 99u);
  EXPECT_EQ(results.scale, 0.002);
  EXPECT_EQ(results.trials, 1u);
  EXPECT_EQ(results.timing_columns, table1->spec.timing_columns);
  ASSERT_EQ(results.rows.size(), 6u);
  EXPECT_EQ(results.rows[0].table,
            "Table I (IPUMS): LDPRecover on unpoisoned frequencies");
  EXPECT_EQ(results.rows[0].row, "GRR");
  for (const ResultRow& row : results.rows) {
    ASSERT_EQ(row.values.size(), table1->spec.columns.size()) << row.row;
    for (size_t c = 0; c < row.values.size(); ++c)
      EXPECT_EQ(row.values[c].first, table1->spec.columns[c]) << row.row;
  }

  std::filesystem::remove_all(root);
}

// `ldpr bench --scenario table1,table1 --out DIR` used to truncate the
// first run's files and list table1 twice, a tree `ldpr diff` refuses.
TEST_F(ScenarioRegistryTest, TreeWriterRejectsAnIdItAlreadyOpened) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "ldpr_registry_twice")
          .string();
  std::filesystem::remove_all(root);

  ResultTreeWriter tree(root);
  std::vector<std::unique_ptr<ResultSink>> sinks;
  ASSERT_TRUE(tree.OpenScenario("s1", sinks).ok());
  MultiSink sink(std::move(sinks));
  sink.BeginTable("T", {"M"});
  sink.AddRow("row", {1.0});
  sink.EndTable();
  ASSERT_TRUE(sink.Finish().ok());
  const std::string jsonl = ReadFileOrDie(root + "/s1/results.jsonl");

  std::vector<std::unique_ptr<ResultSink>> again;
  const Status reopened = tree.OpenScenario("s1", again);
  EXPECT_EQ(reopened.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.ToString().find("scenario 's1' already written"),
            std::string::npos)
      << reopened.ToString();
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(ReadFileOrDie(root + "/s1/results.jsonl"), jsonl);
  // Another id still opens.
  EXPECT_TRUE(tree.OpenScenario("s2", again).ok());

  std::filesystem::remove_all(root);
}

// Counts what a run emits and checks every row against its table's
// width.
class CountingSink : public ResultSink {
 public:
  void BeginTable(const std::string& /*title*/,
                  const std::vector<std::string>& columns) override {
    width_ = columns.size();
    ++tables;
  }
  void AddRow(const std::string& /*label*/,
              const std::vector<double>& values) override {
    EXPECT_EQ(values.size(), width_);
    ++rows;
  }
  void AddSeparator() override { ++separators; }
  Status Finish() override { return Status::Ok(); }

  size_t tables = 0, rows = 0, separators = 0;

 private:
  size_t width_ = 0;
};

// Runs every registered scenario body once — the grid engine and all
// custom run functions — so the sanitizer builds (scenario_registry_test
// runs under TSan, ASan and UBSan with LDPR_THREADS=4) cover each of
// them.  Scale 1e-4 puts every dataset at its floor of one user per
// item, the smallest run any scenario accepts.
TEST_F(ScenarioRegistryTest, EveryScenarioRunsOnce) {
  for (const Scenario* scenario : ScenarioRegistry::Global().scenarios()) {
    const ScenarioSpec& spec = scenario->spec;
    CountingSink sink;
    ScenarioRunOptions options;
    options.trials = 1;
    options.scale = 1e-4;
    const auto report = RunScenario(*scenario, options, sink);
    ASSERT_TRUE(report.ok()) << spec.id << ": " << report.status().ToString();
    EXPECT_GT(sink.rows, 0u) << spec.id;
    EXPECT_EQ(report->rows, sink.rows) << spec.id;
    EXPECT_EQ(report->tables, sink.tables) << spec.id;
    EXPECT_GE(report->outer_workers, 1u) << spec.id;
    EXPECT_GE(report->shards, 1u) << spec.id;
    // The attack-grouped custom tables separate their attack groups.
    if (spec.id == "ablation" || spec.id == "ext_protocols") {
      EXPECT_EQ(sink.separators, spec.attacks.size() - 1) << spec.id;
    }
  }
}

TEST_F(ScenarioRegistryTest, OutOfRangeScaleFailsTheRun) {
  const Scenario* table1 = ScenarioRegistry::Global().Find("table1");
  ASSERT_NE(table1, nullptr);
  for (double scale : {5.0, 1.5, -0.5, std::nan("")}) {
    ScenarioRunOptions options;
    options.scale = scale;
    options.trials = 1;
    CountingSink sink;
    const auto report = RunScenario(*table1, options, sink);
    ASSERT_FALSE(report.ok()) << "scale=" << scale;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(report.status().message().find("scale"), std::string::npos)
        << report.status().ToString();
    EXPECT_EQ(sink.rows, 0u);
  }

  // An in-range scale runs as given.
  ScenarioRunOptions options;
  options.scale = 0.002;
  options.trials = 1;
  CountingSink sink;
  const auto report = RunScenario(*table1, options, sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->info.scale, 0.002);
  EXPECT_EQ(report->info.trials, 1u);
}

TEST_F(ScenarioRegistryTest, TrialsPastTheCapFailTheRun) {
  const Scenario* table1 = ScenarioRegistry::Global().Find("table1");
  ASSERT_NE(table1, nullptr);
  ScenarioRunOptions options;
  options.trials = kMaxTrials + 1;
  CountingSink sink;
  const auto report = RunScenario(*table1, options, sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().message(), "trials must be in [1, 10000]");
  EXPECT_EQ(sink.rows, 0u);
}

}  // namespace
}  // namespace bench
}  // namespace ldpr
