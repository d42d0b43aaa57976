// Tests for the SUE (basic-RAPPOR unary) and BLH (binary local
// hashing) protocol extensions, including their interaction with the
// attack and recovery stack.

#include <cmath>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/blh.h"
#include "ldp/factory.h"
#include "ldp/oue.h"
#include "ldp/sue.h"
#include "recover/detection.h"
#include "recover/ldprecover.h"
#include "sim/pipeline.h"
#include "util/math_util.h"
#include "util/metrics.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(SueTest, ProbabilitiesMatchRappor) {
  const Sue sue(20, 1.0);
  const double half = std::exp(0.5);
  EXPECT_NEAR(sue.p(), half / (half + 1.0), 1e-12);
  EXPECT_NEAR(sue.q(), 1.0 / (half + 1.0), 1e-12);
  // SUE is symmetric: p + q = 1, and the per-bit ratio is e^{eps/2}
  // in each direction, composing to eps-LDP over the two disclosed
  // directions.
  EXPECT_NEAR(sue.p() + sue.q(), 1.0, 1e-12);
}

TEST(SueTest, EstimationIsUnbiased) {
  const size_t d = 8;
  const Sue sue(d, 1.0);
  Rng rng(1);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[2] = 60000;
  item_counts[6] = 40000;
  const auto counts = sue.SampleSupportCounts(item_counts, rng);
  const auto freqs = sue.EstimateFrequencies(counts, 100000);
  EXPECT_NEAR(freqs[2], 0.6, 0.02);
  EXPECT_NEAR(freqs[6], 0.4, 0.02);
}

TEST(SueTest, HigherVarianceThanOue) {
  // OUE's whole point: strictly lower variance than SUE at equal eps.
  const Sue sue(50, 0.5);
  const Oue oue(50, 0.5);
  EXPECT_GT(sue.CountVariance(0.1, 1000), oue.CountVariance(0.1, 1000));
}

TEST(SueTest, ExactVarianceMatchesEmpirical) {
  const size_t d = 8;
  const Sue sue(d, 1.0);
  Rng rng(2);
  const size_t n = 4000;
  std::vector<uint64_t> item_counts(d, n / d);
  RunningStat est;
  for (int trial = 0; trial < 300; ++trial) {
    const auto counts = sue.SampleSupportCounts(item_counts, rng);
    est.Add(sue.EstimateFrequencies(counts, n)[0]);
  }
  const double theory = sue.FrequencyVariance(1.0 / d, n);
  EXPECT_NEAR(est.variance(), theory, 0.3 * theory);
}

TEST(BlhTest, FixesGToTwo) {
  const Blh blh(100, 0.5);
  EXPECT_EQ(blh.g(), 2u);
  EXPECT_DOUBLE_EQ(blh.q(), 0.5);
  const double e = std::exp(0.5);
  EXPECT_NEAR(blh.p(), e / (e + 1.0), 1e-12);
}

TEST(BlhTest, HigherVarianceThanOlh) {
  const Blh blh(100, 1.0);
  const Olh olh(100, 1.0);
  EXPECT_GT(blh.CountVariance(0.1, 1000), olh.CountVariance(0.1, 1000));
}

TEST(BlhTest, EstimationIsUnbiased) {
  const size_t d = 10;
  const Blh blh(d, 1.0);
  Rng rng(3);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[4] = 120000;
  item_counts[9] = 80000;
  const auto counts = blh.SampleSupportCounts(item_counts, rng);
  const auto freqs = blh.EstimateFrequencies(counts, 200000);
  EXPECT_NEAR(freqs[4], 0.6, 0.03);
  EXPECT_NEAR(freqs[9], 0.4, 0.03);
}

TEST(FactoryTest, ParsesAndBuildsExtensions) {
  EXPECT_EQ(ParseProtocolKind("sue").value(), ProtocolKind::kSue);
  EXPECT_EQ(ParseProtocolKind("blh").value(), ProtocolKind::kBlh);
  for (ProtocolKind kind : {ProtocolKind::kSue, ProtocolKind::kBlh}) {
    const auto proto = MakeProtocol(kind, 12, 0.5);
    ASSERT_NE(proto, nullptr);
    EXPECT_EQ(proto->kind(), kind);
  }
}

TEST(ExtensionAttackTest, MgaCraftsForSue) {
  const Sue sue(30, 0.5);
  const MgaAttack attack({3, 9, 21});
  Rng rng(4);
  for (const Report& r : CraftReports(attack, sue, 20, rng)) {
    EXPECT_TRUE(oracle::Supports(sue, r, 3));
    EXPECT_TRUE(oracle::Supports(sue, r, 9));
    EXPECT_TRUE(oracle::Supports(sue, r, 21));
  }
}

TEST(ExtensionAttackTest, MgaCraftsForBlh) {
  const Blh blh(30, 0.5);
  Rng rng(5);
  const auto targets = MgaAttack::SampleTargets(30, 6, rng);
  const MgaAttack attack(targets);
  for (const Report& r : CraftReports(attack, blh, 20, rng)) {
    size_t supported = 0;
    for (ItemId t : targets) supported += oracle::Supports(blh, r, t) ? 1 : 0;
    // With g = 2 the best bucket holds at least half the targets.
    EXPECT_GE(supported, 3u);
  }
}

TEST(ExtensionDetectionTest, ThresholdsApply) {
  const Sue sue(20, 0.5);
  const Blh blh(20, 0.5);
  EXPECT_EQ(DetectionFilter(sue, {1, 2, 3, 4}).threshold(), 4u);
  EXPECT_EQ(DetectionFilter(blh, {1, 2, 3, 4}).threshold(), 2u);
}

// End-to-end recovery works for the extension protocols too.
class ExtensionRecoveryTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ExtensionRecoveryTest, RecoversFromMga) {
  const Dataset ds = MakeZipfDataset("z", 24, 40000, 1.0, 31);
  const auto proto = MakeProtocol(GetParam(), 24, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kMga;
  config.beta = 0.05;
  Rng rng(6);
  RunningStat before, after;
  for (int trial = 0; trial < 5; ++trial) {
    const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
    const LdpRecover recover(*proto);
    before.Add(Mse(t.true_freqs, t.poisoned_freqs));
    const auto recovered = recover.Recover(t.poisoned_freqs);
    EXPECT_TRUE(IsProbabilityVector(recovered, 1e-8));
    after.Add(Mse(t.true_freqs, recovered));
  }
  EXPECT_LT(after.mean(), before.mean());
}

INSTANTIATE_TEST_SUITE_P(Extensions, ExtensionRecoveryTest,
                         ::testing::Values(ProtocolKind::kSue,
                                           ProtocolKind::kBlh),
                         [](const auto& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

}  // namespace
}  // namespace ldpr
