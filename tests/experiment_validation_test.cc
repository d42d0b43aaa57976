// ValidateExperimentInputs: the status-based guard that keeps bad CLI
// knobs (empty datasets, zero trials, out-of-range epsilon/beta/eta,
// degenerate target counts) from reaching LDPR_CHECK aborts in the
// aggregation and attack layers.

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

  config = OkConfig();
  config.pipeline.attack = AttackKind::kMultiAdaptive;
  config.pipeline.num_attackers = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  // A target count that would be invalid for MGA is fine for AA,
  // which ignores it.
  config = OkConfig();
  config.pipeline.attack = AttackKind::kAdaptive;
  config.pipeline.num_targets = 0;
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
}

}  // namespace
}  // namespace ldpr
