// Full-stack integration tests at reduced paper scale: synthetic
// IPUMS-like data, real protocol aggregation, real attacks, and the
// complete recovery pipeline, asserting the paper's headline
// qualitative results.

#include <memory>

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "recover/outlier.h"
#include "sim/experiment.h"
#include "util/math_util.h"

namespace ldpr {
namespace {

// Full-scale IPUMS stand-in: the closed-form aggregation samplers
// are O(d), so full paper scale (n = 389,894) is cheap for GRR/OUE.
Dataset FullIpums() { return MakeIpumsLike(); }

// A 10%-scale variant for paths that stream per user (OLH detection).
Dataset ScaledIpums() { return ScaleDataset(MakeIpumsLike(), 0.1); }

TEST(IntegrationTest, Figure3ShapeMgaOue) {
  // LDPRecover and LDPRecover* both beat the poisoned estimate under
  // MGA-OUE, with partial knowledge strictly helping.  (Detection is
  // close to an oracle in this one cell — the crafted all-targets OUE
  // signature is deterministic — but brittle elsewhere; see
  // Figure3ShapeDetectionFailsOnAdaptive.)
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 5;
  config.seed = 3;
  const ExperimentResult r = RunExperiment(config, FullIpums());
  EXPECT_LT(r.mse_recover.mean(), r.mse_before.mean());
  EXPECT_LT(r.mse_recover_star.mean(), r.mse_before.mean());
  EXPECT_LT(r.mse_recover_star.mean(), r.mse_recover.mean());
}

TEST(IntegrationTest, Figure3ShapeDetectionFailsOnAdaptive) {
  // The paper's applicability claim: Detection needs the attack's
  // signature; against the adaptive attack (inferred targets, no
  // crafted pattern) it falls behind LDPRecover, which needs nothing.
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 5;
  config.seed = 13;
  const ExperimentResult r = RunExperiment(config, FullIpums());
  EXPECT_LT(r.mse_recover.mean(), r.mse_detection.mean());
  EXPECT_LT(r.mse_recover_star.mean(), r.mse_detection.mean());
}

TEST(IntegrationTest, Figure4ShapeFrequencyGainCrushed) {
  // FG after recovery drops to near zero; LDPRecover* can go negative.
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 5;
  config.seed = 4;
  const ExperimentResult r = RunExperiment(config, FullIpums());
  EXPECT_GT(r.fg_before.mean(), 0.1);  // the attack works
  // Recovery substantially reduces the attacker's gain, and partial
  // knowledge reduces it further (the paper's ordering in Figure 4).
  EXPECT_LT(r.fg_recover.mean(), 0.6 * r.fg_before.mean());
  EXPECT_LT(r.fg_recover_star.mean(), r.fg_recover.mean());
}

TEST(IntegrationTest, Figure7ShapeStarEstimatesMaliciousBetter) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 5;
  config.seed = 5;
  const ExperimentResult r = RunExperiment(config, FullIpums());
  EXPECT_LT(r.mse_malicious_recover_star.mean(),
            r.mse_malicious_recover.mean());
}

TEST(IntegrationTest, AdaptiveAttackRecoveryAcrossProtocols) {
  for (ProtocolKind kind : kAllProtocolKinds) {
    ExperimentConfig config;
    config.protocol = kind;
    config.pipeline.attack = AttackKind::kAdaptive;
    config.trials = 3;
    config.seed = 6;
    config.run_detection = false;  // OLH detection streams per user
    const ExperimentResult r = RunExperiment(config, ScaledIpums());
    EXPECT_LT(r.mse_recover.mean(), r.mse_before.mean())
        << ProtocolKindName(kind);
  }
}

TEST(IntegrationTest, MultiAttackerRecoveryWorks) {
  // Figure 10's claim: LDPRecover handles five simultaneous adaptive
  // attackers as one mixture attacker.
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kMultiAdaptive;
  config.pipeline.beta = 0.1;
  config.trials = 3;
  config.seed = 7;
  config.run_detection = false;
  const ExperimentResult r = RunExperiment(config, FullIpums());
  EXPECT_LT(r.mse_recover.mean(), 0.5 * r.mse_before.mean());
}

TEST(IntegrationTest, OutlierDetectorSuppliesStarKnowledge) {
  // The Section V-D loop: build per-epoch histories with the LDP
  // protocol, poison the final epoch with MGA, detect the targets as
  // outliers, and feed them to LDPRecover* — targets must be found.
  const Dataset ds = ScaledIpums();
  const size_t d = ds.domain_size();
  const auto proto = MakeProtocol(ProtocolKind::kOue, d, 0.5);
  Rng rng(8);

  std::vector<std::vector<double>> history;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto counts = proto->SampleSupportCounts(ds.item_counts, rng);
    history.push_back(proto->EstimateFrequencies(counts, ds.num_users()));
  }

  PipelineConfig pconfig;
  pconfig.attack = AttackKind::kMga;
  pconfig.beta = 0.05;
  const TrialOutput t = RunPoisoningTrial(*proto, pconfig, ds, rng);

  const std::vector<ItemId> detected =
      DetectFrequencyOutliers(history, t.poisoned_freqs);
  // Every true target is detected (MGA's boost is enormous), with at
  // most a few false positives.
  for (ItemId target : t.attack_targets) {
    EXPECT_NE(std::find(detected.begin(), detected.end(), target),
              detected.end());
  }
  EXPECT_LE(detected.size(), t.attack_targets.size() + 5);

  RecoverOptions opts;
  opts.known_targets = detected;
  const LdpRecover star(*proto, opts);
  const auto recovered = star.Recover(t.poisoned_freqs);
  EXPECT_TRUE(IsProbabilityVector(recovered, 1e-8));
  EXPECT_LT(Mse(t.true_freqs, recovered),
            Mse(t.true_freqs, t.poisoned_freqs));
}

TEST(IntegrationTest, Table1ShapeUnpoisonedRecoveryCost) {
  // On unpoisoned data LDPRecover leaves GRR roughly unchanged-or-
  // better while OUE/OLH (whose raw estimates are already excellent)
  // regress toward the recovery floor — Table I's pattern.  This is a
  // full-scale effect: at paper n the raw OUE/OLH MSE sits below the
  // floor the recovery step introduces.
  const Dataset ds = FullIpums();
  for (ProtocolKind kind : kAllProtocolKinds) {
    ExperimentConfig config;
    config.protocol = kind;
    config.pipeline.attack = AttackKind::kNone;
    config.trials = 3;
    config.seed = 9;
    const ExperimentResult r = RunExperiment(config, ds);
    if (kind == ProtocolKind::kGrr) {
      EXPECT_LT(r.mse_recover.mean(), 2.0 * r.mse_before.mean());
    } else {
      // The recovery step erases some of OUE/OLH's precision.
      EXPECT_GT(r.mse_recover.mean(), r.mse_before.mean());
    }
  }
}

}  // namespace
}  // namespace ldpr
