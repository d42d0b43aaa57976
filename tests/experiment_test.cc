#include "sim/experiment.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace ldpr {
namespace {

Dataset SmallDataset() { return MakeZipfDataset("z", 30, 30000, 1.0, 11); }

TEST(ExperimentTest, DeterministicInSeed) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 3;
  config.seed = 77;
  const Dataset ds = SmallDataset();
  const ExperimentResult a = RunExperiment(config, ds);
  const ExperimentResult b = RunExperiment(config, ds);
  EXPECT_DOUBLE_EQ(a.mse_before.mean(), b.mse_before.mean());
  EXPECT_DOUBLE_EQ(a.mse_recover.mean(), b.mse_recover.mean());
}

// Bit-equality of two results: every metric's count, mean and
// variance, plus the user count.
void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& context) {
  const auto expect_same = [&context](const RunningStat& x,
                                      const RunningStat& y) {
    EXPECT_EQ(x.count(), y.count()) << context;
    EXPECT_EQ(x.mean(), y.mean()) << context;
    EXPECT_EQ(x.variance(), y.variance()) << context;
  };
  expect_same(a.mse_before, b.mse_before);
  expect_same(a.mse_recover, b.mse_recover);
  expect_same(a.mse_recover_star, b.mse_recover_star);
  expect_same(a.mse_detection, b.mse_detection);
  expect_same(a.fg_before, b.fg_before);
  expect_same(a.fg_recover, b.fg_recover);
  expect_same(a.fg_recover_star, b.fg_recover_star);
  expect_same(a.fg_detection, b.fg_detection);
  expect_same(a.mse_malicious_recover, b.mse_malicious_recover);
  expect_same(a.mse_malicious_recover_star, b.mse_malicious_recover_star);
  EXPECT_EQ(a.users_per_trial, b.users_per_trial) << context;
}

// The parallel engine's core guarantee: every trial runs on its own
// counter-derived RNG stream and metrics merge in trial order, so the
// result is bit-identical at any thread count.
TEST(ExperimentTest, BitIdenticalAcrossThreadCounts) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 8;
  config.seed = 123;
  const Dataset ds = SmallDataset();

  config.threads = 1;
  const ExperimentResult serial = RunExperiment(config, ds);
  for (size_t threads : {2u, 8u}) {
    config.threads = threads;
    ExpectSameResult(serial, RunExperiment(config, ds),
                     "threads=" + std::to_string(threads));
  }
}

// The grid path (one flat fan-out over several configs) must match
// each config run on its own and run serially, even when the grid has
// fewer units than threads.  Every cell runs on the 200,000-user
// dataset, so each trial's genuine draw spans 4 user chunks and its
// malicious batch at least 2 report chunks, and the OLH cell's
// Detection re-draw spans 4 more: in the grid those nested shard
// loops are helped by the workers the other cells leave idle.
TEST(ExperimentTest, GridMatchesPerConfigRuns) {
  const Dataset large = MakeZipfDataset("z", 40, 200000, 1.0, 5);
  std::vector<ExperimentConfig> configs(3);
  configs[0].protocol = ProtocolKind::kOue;
  configs[0].pipeline.attack = AttackKind::kMga;
  configs[1].protocol = ProtocolKind::kOlh;
  configs[1].pipeline.attack = AttackKind::kAdaptive;
  configs[2].protocol = ProtocolKind::kGrr;
  configs[2].pipeline.attack = AttackKind::kNone;
  std::vector<ExperimentCell> cells;
  for (size_t c = 0; c < configs.size(); ++c) {
    configs[c].trials = 1;
    configs[c].seed = 31 + c;
    configs[c].threads = 8;
    cells.push_back({&configs[c], &large});
  }

  const std::vector<ExperimentResult> grid = RunExperiments(cells, 8);
  ASSERT_EQ(grid.size(), configs.size());
  EXPECT_GE(grid[1].mse_detection.count(), 1u);
  for (size_t c = 0; c < configs.size(); ++c) {
    const std::string label = "config " + std::to_string(c);
    const ExperimentResult alone = RunExperiment(configs[c], large);
    ExpectSameResult(grid[c], alone, label);
    ExperimentConfig serial = configs[c];
    serial.threads = 1;
    ExpectSameResult(grid[c], RunExperiment(serial, large),
                     label + " vs threads=1");
    EXPECT_EQ(grid[c].mse_before.count(), 1u);
    EXPECT_EQ(grid[c].trial_seconds.count(), 1u);
  }
}

// RunSingleTrial is the pure per-trial unit RunExperiment schedules:
// trial t of seed s must reproduce exactly from DeriveSeed(s, t).
TEST(ExperimentTest, SingleTrialMatchesExperimentStream) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 1;
  config.seed = 99;
  const Dataset ds = SmallDataset();
  const ExperimentResult r = RunExperiment(config, ds);
  const TrialMetrics t = RunSingleTrial(config, ds, DeriveSeed(config.seed, 0));
  ASSERT_TRUE(t.mse_before.has_value());
  ASSERT_TRUE(t.mse_recover.has_value());
  EXPECT_EQ(r.mse_before.mean(), *t.mse_before);
  EXPECT_EQ(r.mse_recover.mean(), *t.mse_recover);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 2;
  const Dataset ds = SmallDataset();
  config.seed = 1;
  const double a = RunExperiment(config, ds).mse_before.mean();
  config.seed = 2;
  const double b = RunExperiment(config, ds).mse_before.mean();
  EXPECT_NE(a, b);
}

TEST(ExperimentTest, CollectsAllMetricsForMga) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 3;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_before.count(), 3u);
  EXPECT_EQ(r.mse_recover.count(), 3u);
  EXPECT_EQ(r.mse_recover_star.count(), 3u);
  EXPECT_EQ(r.mse_detection.count(), 3u);
  EXPECT_EQ(r.fg_before.count(), 3u);
  EXPECT_EQ(r.fg_recover.count(), 3u);
  EXPECT_EQ(r.mse_malicious_recover.count(), 3u);
}

TEST(ExperimentTest, UntargetedAttackSkipsFgButRunsStar) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 2;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.fg_before.count(), 0u);      // no target set -> no FG
  EXPECT_EQ(r.mse_recover_star.count(), 2u);  // star uses top gainers
}

TEST(ExperimentTest, NoAttackControlRunsRecoveryOnly) {
  // Table I's configuration.
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kNone;
  config.trials = 2;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_before.count(), 2u);
  EXPECT_EQ(r.mse_recover.count(), 2u);
  EXPECT_EQ(r.mse_detection.count(), 0u);
  EXPECT_EQ(r.mse_recover_star.count(), 0u);
}

TEST(ExperimentTest, RecoveryImprovesMseUnderMga) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.pipeline.beta = 0.05;
  config.trials = 3;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_LT(r.mse_recover.mean(), r.mse_before.mean());
  EXPECT_LT(r.mse_recover_star.mean(), r.mse_before.mean());
}

TEST(ExperimentTest, StarReducesFgBelowPlainRecovery) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 4;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  // Both crush the attack's gain; star at least matches.
  EXPECT_LT(r.fg_recover.mean(), 0.5 * r.fg_before.mean());
  EXPECT_LE(r.fg_recover_star.mean(), r.fg_recover.mean() + 0.02);
}

TEST(ExperimentTest, DisableFlagsSkipMethods) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 2;
  config.run_detection = false;
  config.run_star = false;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_detection.count(), 0u);
  EXPECT_EQ(r.mse_recover_star.count(), 0u);
}

}  // namespace
}  // namespace ldpr
