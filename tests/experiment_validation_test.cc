// ValidateExperimentInputs: the status-based guard that keeps bad CLI
// knobs (empty datasets, trials outside [1, kMaxTrials], out-of-range
// epsilon/beta/eta, attacks too large to craft, degenerate target
// counts) from reaching LDPR_CHECK aborts in the aggregation and
// attack layers.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "sim/experiment.h"

namespace ldpr {
namespace {

ExperimentConfig OkConfig() {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.epsilon = 1.0;
  config.trials = 2;
  config.pipeline.attack = AttackKind::kMga;
  config.pipeline.beta = 0.05;
  config.pipeline.num_targets = 3;
  return config;
}

Dataset OkDataset() { return MakeZipfDataset("z", 16, 1000, 1.0, 1); }

TEST(ValidateExperimentInputsTest, AcceptsSaneInputs) {
  EXPECT_TRUE(ValidateExperimentInputs(OkConfig(), OkDataset()).ok());
}

TEST(ValidateExperimentInputsTest, RejectsEmptyDataset) {
  Dataset empty;
  empty.name = "empty";
  empty.item_counts = {0, 0, 0};
  const Status status = ValidateExperimentInputs(OkConfig(), empty);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("empty"), std::string::npos);
}

TEST(ValidateExperimentInputsTest, RejectsDegenerateDomain) {
  Dataset tiny;
  tiny.name = "tiny";
  tiny.item_counts = {5};
  EXPECT_EQ(ValidateExperimentInputs(OkConfig(), tiny).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateExperimentInputsTest, RejectsCountsPastTheCaps) {
  const Dataset ds = OkDataset();
  auto config = OkConfig();
  config.trials = kMaxTrials;
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
  config.trials = kMaxTrials + 1;
  EXPECT_EQ(ValidateExperimentInputs(config, ds).message(),
            "trials must be in [1, 10000]");

  // beta*n/(1-beta) = 5e7 crafted reports: 0.6 GB of 12-byte GRR
  // reports fit the cap, the same count of 16-bit OUE rows does not.
  config = OkConfig();
  config.pipeline.beta = 5e4 / (1 + 5e4);
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
  config.protocol = ProtocolKind::kOue;
  const Status status = ValidateExperimentInputs(config, ds);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("crafted reports"), std::string::npos)
      << status.ToString();
  // Without an attack nothing is crafted, and beta just below 1 must
  // not overflow the estimate.
  config.pipeline.attack = AttackKind::kNone;
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
  config.pipeline.attack = AttackKind::kAdaptive;
  config.pipeline.beta = std::nextafter(1.0, 0.0);
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());
}

TEST(ValidateExperimentInputsTest, RejectsBadScalarKnobs) {
  const Dataset ds = OkDataset();
  auto config = OkConfig();
  config.epsilon = 0.0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.trials = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.beta = 1.0;  // m = beta*n/(1-beta) would divide by 0
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.beta = -0.1;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.eta = -1.0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  // An infinite eta satisfies eta >= 0 but makes every result row NaN.
  for (const double eta : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    config = OkConfig();
    config.eta = eta;
    EXPECT_EQ(ValidateExperimentInputs(config, ds).code(),
              StatusCode::kInvalidArgument)
        << eta;
  }
}

TEST(ValidateExperimentInputsTest, RejectsBadAttackShapes) {
  const Dataset ds = OkDataset();
  auto config = OkConfig();
  config.pipeline.num_targets = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.num_targets = ds.domain_size() + 1;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  // LDPRecover* needs an item outside the targets, for MGA-IPA too.
  for (AttackKind attack : {AttackKind::kMga, AttackKind::kMgaIpa}) {
    config = OkConfig();
    config.pipeline.attack = attack;
    config.pipeline.num_targets = ds.domain_size();
    EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());
    config.pipeline.num_targets = ds.domain_size() - 1;
    EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
  }

  // A target count that would be invalid for MGA is fine for AA,
  // which ignores it.
  config = OkConfig();
  config.pipeline.attack = AttackKind::kAdaptive;
  config.pipeline.num_targets = 0;
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
}

}  // namespace
}  // namespace ldpr
