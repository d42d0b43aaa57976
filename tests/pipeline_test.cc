#include "sim/pipeline.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
#include "util/math_util.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(MaliciousUserCountTest, MatchesBetaDefinition) {
  // beta = m / (n + m)  =>  m = beta n / (1 - beta).
  EXPECT_EQ(MaliciousUserCount(0.0, 1000), 0u);
  EXPECT_EQ(MaliciousUserCount(0.05, 389894), 20521u);
  // Round trip: m/(n+m) ~= beta.
  const size_t m = MaliciousUserCount(0.2, 10000);
  EXPECT_NEAR(static_cast<double>(m) / (10000.0 + m), 0.2, 1e-3);
}

TEST(MakeAttackTest, InstantiatesEveryKind) {
  PipelineConfig config;
  Rng rng(1);
  for (AttackKind kind :
       {AttackKind::kManip, AttackKind::kMga, AttackKind::kAdaptive,
        AttackKind::kMgaIpa, AttackKind::kMultiAdaptive}) {
    config.attack = kind;
    const auto attack = MakeAttack(config, 102, rng);
    ASSERT_NE(attack, nullptr) << AttackKindName(kind);
  }
  config.attack = AttackKind::kNone;
  EXPECT_EQ(MakeAttack(config, 102, rng), nullptr);
}

TEST(PipelineTest, NoAttackMeansPoisonedEqualsGenuine) {
  const Dataset ds = MakeZipfDataset("z", 20, 20000, 1.0, 5);
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 20, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kNone;
  Rng rng(2);
  const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
  EXPECT_EQ(t.m, 0u);
  EXPECT_TRUE(t.malicious_freqs.empty());
  for (size_t v = 0; v < 20; ++v)
    EXPECT_DOUBLE_EQ(t.poisoned_freqs[v], t.genuine_freqs[v]);
}

TEST(PipelineTest, MixtureIdentityHoldsExactly) {
  // Eq. (14) at the count level: the poisoned estimate is the exact
  // eta-weighted mixture of the genuine and malicious estimates.
  const Dataset ds = MakeZipfDataset("z", 30, 30000, 1.0, 5);
  const auto proto = MakeProtocol(ProtocolKind::kOue, 30, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kMga;
  config.beta = 0.1;
  Rng rng(3);
  const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
  ASSERT_GT(t.m, 0u);
  const double n = static_cast<double>(t.n);
  const double m = static_cast<double>(t.m);
  for (size_t v = 0; v < 30; ++v) {
    const double mixture = (n * t.genuine_freqs[v] + m * t.malicious_freqs[v]) /
                           (n + m);
    EXPECT_NEAR(t.poisoned_freqs[v], mixture, 1e-9);
  }
}

TEST(PipelineTest, TargetsReportedForTargetedAttacks) {
  const Dataset ds = MakeZipfDataset("z", 40, 10000, 1.0, 5);
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 40, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kMga;
  config.num_targets = 7;
  Rng rng(4);
  const TrialOutput t =
      RunPoisoningTrial(*proto, config, ds, rng, /*for_detection=*/true);
  EXPECT_EQ(t.attack_targets.size(), 7u);
  // The crafted reports streamed past in chunks: the trial keeps none
  // of them, and its filter on the targets saw every one.
  EXPECT_TRUE(t.malicious_reports.empty());
  ASSERT_TRUE(t.malicious_filter.has_value());
  EXPECT_EQ(t.malicious_filter->offered(), t.m);
  // A GRR report supports exactly one item.
  double supports = 0.0;
  for (double c : t.malicious_counts) supports += c;
  EXPECT_EQ(supports, static_cast<double>(t.m));
}

TEST(PipelineTest, UntargetedAttacksHaveNoTargets) {
  const Dataset ds = MakeZipfDataset("z", 40, 10000, 1.0, 5);
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 40, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kAdaptive;
  Rng rng(5);
  const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
  EXPECT_TRUE(t.attack_targets.empty());
  EXPECT_GT(t.m, 0u);
}

TEST(PipelineTest, GenuineEstimateTracksTruth) {
  const Dataset ds = MakeZipfDataset("z", 25, 50000, 1.0, 9);
  const auto proto = MakeProtocol(ProtocolKind::kOue, 25, 1.0);
  PipelineConfig config;
  config.attack = AttackKind::kNone;
  Rng rng(6);
  const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
  EXPECT_LT(Mse(t.true_freqs, t.genuine_freqs), 1e-3);
}

TEST(PipelineTest, PoisoningInflatesError) {
  const Dataset ds = MakeZipfDataset("z", 25, 50000, 1.0, 9);
  const auto proto = MakeProtocol(ProtocolKind::kOue, 25, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kMga;
  config.beta = 0.05;
  Rng rng(7);
  const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
  EXPECT_GT(Mse(t.true_freqs, t.poisoned_freqs),
            5.0 * Mse(t.true_freqs, t.genuine_freqs));
}

TEST(PipelineTest, ExactAndFastGenuineAgreeInExpectation) {
  const Dataset ds = MakeZipfDataset("z", 12, 4000, 1.0, 9);
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 12, 1.0);
  PipelineConfig fast_cfg, exact_cfg;
  fast_cfg.attack = exact_cfg.attack = AttackKind::kNone;
  exact_cfg.exact_genuine = true;

  Rng rng(8);
  RunningStat fast0, exact0;
  for (int trial = 0; trial < 15; ++trial) {
    fast0.Add(RunPoisoningTrial(*proto, fast_cfg, ds, rng).genuine_freqs[0]);
    exact0.Add(RunPoisoningTrial(*proto, exact_cfg, ds, rng).genuine_freqs[0]);
  }
  EXPECT_NEAR(fast0.mean(), exact0.mean(), 0.03);
}

}  // namespace
}  // namespace ldpr
