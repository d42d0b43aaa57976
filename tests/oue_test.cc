#include "ldp/oue.h"

#include <cmath>

#include <gtest/gtest.h>

#include "report_oracle.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(OueTest, ProbabilitiesMatchEq5) {
  const Oue oue(20, 1.0);
  EXPECT_DOUBLE_EQ(oue.p(), 0.5);
  EXPECT_NEAR(oue.q(), 1.0 / (std::exp(1.0) + 1.0), 1e-12);
}

TEST(OueTest, PerturbedVectorHasDomainLength) {
  const Oue oue(12, 0.5);
  Rng rng(1);
  EXPECT_EQ(GenuineReport(oue, 4, rng).bits.size(), 12u);
}

TEST(OueTest, OwnBitKeptWithHalf) {
  const Oue oue(10, 0.5);
  Rng rng(2);
  int ones = 0;
  const int kTrials = 40000;
  for (const Report& r : GenuineReports(oue, 7, kTrials, rng)) ones += r.bits[7];
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, 0.5, 0.01);
}

TEST(OueTest, OtherBitsFlipWithQ) {
  const Oue oue(10, 0.5);
  Rng rng(3);
  int ones = 0;
  const int kTrials = 40000;
  for (const Report& r : GenuineReports(oue, 7, kTrials, rng)) ones += r.bits[2];
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, oue.q(), 0.01);
}

TEST(OueTest, SupportsReadsBits) {
  const Oue oue(4, 1.0);
  Report r;
  r.bits = {1, 0, 1, 0};
  EXPECT_EQ(BatchSupportCounts(oue, {r}), (std::vector<double>{1, 0, 1, 0}));
}

TEST(OueTest, EstimationIsUnbiased) {
  const size_t d = 6;
  const Oue oue(d, 0.5);
  Rng rng(4);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[1] = 30000;
  item_counts[4] = 70000;
  const auto counts = oue.SampleSupportCounts(item_counts, rng);
  const auto freqs = oue.EstimateFrequencies(counts, 100000);
  EXPECT_NEAR(freqs[1], 0.3, 0.02);
  EXPECT_NEAR(freqs[4], 0.7, 0.02);
  EXPECT_NEAR(freqs[0], 0.0, 0.02);
}

TEST(OueTest, VarianceIndependentOfFrequencyAndMatchesEq7) {
  const Oue oue(50, 1.0);
  const double e = std::exp(1.0);
  const size_t n = 1234;
  const double expected = n * 4.0 * e / ((e - 1.0) * (e - 1.0));
  EXPECT_NEAR(oue.CountVariance(0.0, n), expected, 1e-9);
  EXPECT_NEAR(oue.CountVariance(0.9, n), expected, 1e-9);
}

TEST(OueTest, EmpiricalVarianceMatchesEq7) {
  const size_t d = 8;
  const Oue oue(d, 1.0);
  Rng rng(5);
  const size_t n = 4000;
  std::vector<uint64_t> item_counts(d, n / d);
  RunningStat est;
  for (int trial = 0; trial < 400; ++trial) {
    const auto counts = oue.SampleSupportCounts(item_counts, rng);
    est.Add(oue.EstimateFrequencies(counts, n)[0]);
  }
  const double theory = oue.FrequencyVariance(1.0 / d, n);
  EXPECT_NEAR(est.variance(), theory, 0.3 * theory);
}

TEST(OueTest, ExpectedOnesFormula) {
  const size_t d = 100;
  const Oue oue(d, 0.5);
  EXPECT_NEAR(oue.ExpectedOnes(), 0.5 + (d - 1) * oue.q(), 1e-12);

  // Empirically: mean 1-count of genuine reports.
  Rng rng(6);
  double total_ones = 0.0;
  const int kTrials = 3000;
  for (const Report& r : GenuineReports(oue, 0, kTrials, rng)) {
    for (uint8_t b : r.bits) total_ones += b;
  }
  EXPECT_NEAR(total_ones / kTrials, oue.ExpectedOnes(), 0.5);
}

TEST(OueTest, CraftedReportIsOneHot) {
  const Oue oue(9, 0.5);
  Rng rng(7);
  const std::vector<double> counts =
      BatchSupportCounts(oue, {CraftedReport(oue, 5, rng)});
  for (ItemId v = 0; v < 9; ++v) EXPECT_EQ(counts[v], v == 5 ? 1.0 : 0.0);
}

TEST(OueDeathTest, AccumulateChecksBitWidth) {
  const Oue oue(4, 1.0);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  builder.AddValue(0);  // no bit row
  std::vector<double> counts(4, 0.0);
  EXPECT_DEATH(oue.AccumulateSupportsBatch(batch, counts), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
