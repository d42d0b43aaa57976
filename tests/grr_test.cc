#include "ldp/grr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "report_oracle.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(GrrTest, ProbabilitiesMatchEq2) {
  const Grr grr(10, 1.0);
  const double e = std::exp(1.0);
  EXPECT_NEAR(grr.p(), e / (9.0 + e), 1e-12);
  EXPECT_NEAR(grr.q(), 1.0 / (9.0 + e), 1e-12);
  // The LDP constraint: p/q = e^eps.
  EXPECT_NEAR(grr.p() / grr.q(), e, 1e-12);
}

TEST(GrrTest, PerturbStaysInDomain) {
  const Grr grr(5, 0.5);
  Rng rng(1);
  for (const Report& r : GenuineReports(grr, 3, 500, rng))
    EXPECT_LT(r.value, 5u);
}

TEST(GrrTest, PerturbKeepsWithProbabilityP) {
  const Grr grr(4, 2.0);
  Rng rng(2);
  int kept = 0;
  const int kTrials = 50000;
  for (const Report& r : GenuineReports(grr, 1, kTrials, rng))
    kept += (r.value == 1) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, grr.p(), 0.01);
}

TEST(GrrTest, MisreportsAreUniformOverOthers) {
  const Grr grr(4, 0.5);
  Rng rng(3);
  std::vector<int> counts(4, 0);
  const int kTrials = 60000;
  for (const Report& r : GenuineReports(grr, 0, kTrials, rng)) ++counts[r.value];
  // Items 1..3 each get q fraction.
  for (int v = 1; v < 4; ++v)
    EXPECT_NEAR(static_cast<double>(counts[v]) / kTrials, grr.q(), 0.01);
}

TEST(GrrTest, SupportIsExactlyTheReportedItem) {
  const Grr grr(6, 1.0);
  Report r;
  r.value = 4;
  EXPECT_EQ(BatchSupportCounts(grr, {r}),
            (std::vector<double>{0, 0, 0, 0, 1, 0}));
}

TEST(GrrTest, AccumulateSupportsAddsOneCountPerReport) {
  const Grr grr(3, 1.0);
  Report r;
  r.value = 2;
  const std::vector<double> counts = BatchSupportCounts(grr, {r, r});
  EXPECT_DOUBLE_EQ(counts[2], 2.0);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
}

TEST(GrrTest, EstimationIsUnbiased) {
  const size_t d = 8;
  const Grr grr(d, 1.0);
  Rng rng(4);
  // 40% item 0, 60% item 5.
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[0] = 40000;
  item_counts[5] = 60000;
  const auto counts = grr.SampleSupportCounts(item_counts, rng);
  const auto freqs = grr.EstimateFrequencies(counts, 100000);
  EXPECT_NEAR(freqs[0], 0.4, 0.02);
  EXPECT_NEAR(freqs[5], 0.6, 0.02);
  for (ItemId v : {1u, 2u, 3u, 4u, 6u, 7u}) EXPECT_NEAR(freqs[v], 0.0, 0.02);
}

TEST(GrrTest, SampledCountsConserveUsers) {
  const Grr grr(5, 0.5);
  Rng rng(5);
  const std::vector<uint64_t> item_counts = {100, 0, 250, 3, 47};
  const auto counts = grr.SampleSupportCounts(item_counts, rng);
  double total = 0.0;
  for (double c : counts) total += c;
  // GRR reports support exactly one item each.
  EXPECT_DOUBLE_EQ(total, 400.0);
}

TEST(GrrTest, CountVarianceMatchesEq4) {
  const size_t d = 10;
  const double eps = 1.0;
  const Grr grr(d, eps);
  const double e = std::exp(eps);
  const size_t n = 1000;
  const double f = 0.3;
  const double expected = n * (d - 2.0 + e) / ((e - 1.0) * (e - 1.0)) +
                          n * f * (d - 2.0) / (e - 1.0);
  EXPECT_NEAR(grr.CountVariance(f, n), expected, 1e-9);
  EXPECT_NEAR(grr.FrequencyVariance(f, n), expected / (1.0 * n * n), 1e-12);
}

TEST(GrrTest, EmpiricalVarianceMatchesTheory) {
  const size_t d = 16;
  const Grr grr(d, 1.0);
  Rng rng(6);
  const size_t n = 5000;
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[3] = n / 2;
  item_counts[9] = n / 2;
  RunningStat est;
  for (int trial = 0; trial < 300; ++trial) {
    const auto counts = grr.SampleSupportCounts(item_counts, rng);
    est.Add(grr.EstimateFrequencies(counts, n)[3]);
  }
  EXPECT_NEAR(est.mean(), 0.5, 0.01);
  const double theory = grr.FrequencyVariance(0.5, n);
  EXPECT_NEAR(est.variance(), theory, 0.35 * theory);
}

TEST(GrrTest, CraftedReportIsDeterministicSupport) {
  const Grr grr(7, 0.5);
  Rng rng(7);
  for (ItemId v = 0; v < 7; ++v) {
    const Report r = CraftedReport(grr, v, rng);
    EXPECT_EQ(r.value, v);
    EXPECT_DOUBLE_EQ(BatchSupportCounts(grr, {r})[v], 1.0);
  }
}

TEST(GrrDeathTest, RejectsTinyDomain) {
  EXPECT_DEATH(Grr(1, 1.0), "LDPR_CHECK");
}

TEST(GrrDeathTest, RejectsNonPositiveEpsilon) {
  EXPECT_DEATH(Grr(4, 0.0), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
