#include "ldp/harmony.h"

#include <cmath>

#include <gtest/gtest.h>

#include "recover/ldprecover.h"

namespace ldpr {
namespace {

TEST(HarmonyTest, UnderlyingProtocolIsBinaryGrr) {
  const Harmony h(1.0);
  EXPECT_EQ(h.protocol().domain_size(), 2u);
  EXPECT_EQ(h.protocol().kind(), ProtocolKind::kGrr);
}

TEST(HarmonyTest, DiscretizationMeanMatchesValue) {
  const Harmony h(1.0);
  Rng rng(1);
  const double value = 0.4;
  int plus = 0;
  const int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i)
    plus += (h.Discretize(value, rng) == Harmony::kPlusOne) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(plus) / kTrials, (1.0 + value) / 2.0, 0.01);
}

TEST(HarmonyTest, MeanFrequencyConversionsAreInverse) {
  for (double mean : {-1.0, -0.3, 0.0, 0.7, 1.0}) {
    const auto freqs = Harmony::FrequenciesFromMean(mean);
    EXPECT_NEAR(Harmony::MeanFromFrequencies(freqs), mean, 1e-12);
    EXPECT_NEAR(freqs[0] + freqs[1], 1.0, 1e-12);
  }
}

TEST(HarmonyTest, EstimateMeanIsUnbiased) {
  const Harmony h(1.0);
  Rng rng(2);
  const double true_mean = -0.25;
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  for (int i = 0; i < 60000; ++i) h.Perturb(true_mean, rng, builder);
  EXPECT_NEAR(h.EstimateMean(reports), true_mean, 0.03);
}

TEST(HarmonyTest, LdpRecoverRepairsPoisonedMean) {
  // Section VII-A: Harmony reduces to binary frequency estimation, so
  // LDPRecover applies.  Poison with fake users all voting +1.
  const Harmony h(1.0);
  const Grr& rr = h.protocol();
  Rng rng(3);
  const double true_mean = -0.5;
  const size_t n = 60000;
  const size_t m = 6000;  // 10% fake users

  ReportBatch genuine;
  ReportBatch::Builder genuine_out(genuine);
  for (size_t i = 0; i < n; ++i) h.Perturb(true_mean, rng, genuine_out);

  ReportBatch poisoned;
  ReportBatch::Builder poisoned_out(poisoned);
  for (size_t i = 0; i < n; ++i) h.Perturb(true_mean, rng, poisoned_out);
  for (size_t i = 0; i < m; ++i)
    rr.AppendCraftedReport(Harmony::kPlusOne, rng, poisoned_out);
  Aggregator all(rr);
  all.AddAll(poisoned);

  const double poisoned_mean =
      Harmony::MeanFromFrequencies(all.EstimateFrequencies());
  EXPECT_GT(poisoned_mean, true_mean + 0.1);  // attack visibly inflates

  RecoverOptions opts;
  opts.eta = 0.2;
  const LdpRecover recover(rr, opts);
  const double recovered_mean = Harmony::MeanFromFrequencies(
      recover.Recover(all.EstimateFrequencies()));
  // Recovery moves the mean back toward the truth.
  EXPECT_LT(std::abs(recovered_mean - true_mean),
            std::abs(poisoned_mean - true_mean));
}

TEST(HarmonyDeathTest, RejectsOutOfRangeValue) {
  const Harmony h(1.0);
  Rng rng(4);
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  EXPECT_DEATH(h.Perturb(1.5, rng, builder), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
