#include "ldp/olh.h"

#include <cmath>

#include <gtest/gtest.h>

#include "report_oracle.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(OlhTest, DefaultGMatchesPaper) {
  // g = ceil(e^0.5 + 1) = ceil(2.6487) = 3.
  const Olh olh(100, 0.5);
  EXPECT_EQ(olh.g(), 3u);
  // g = ceil(e^1 + 1) = 4.
  EXPECT_EQ(Olh(100, 1.0).g(), 4u);
}

TEST(OlhTest, ExplicitGOverride) {
  const Olh olh(100, 0.5, /*g=*/8);
  EXPECT_EQ(olh.g(), 8u);
  EXPECT_DOUBLE_EQ(olh.q(), 1.0 / 8.0);
}

TEST(OlhTest, ProbabilitiesMatchEq9) {
  const Olh olh(100, 0.5);
  const double e = std::exp(0.5);
  const double g = olh.g();
  EXPECT_NEAR(olh.p(), e / (e + g - 1.0), 1e-12);
  EXPECT_NEAR(olh.q(), 1.0 / g, 1e-12);
  EXPECT_GT(olh.p(), olh.q());
}

TEST(OlhTest, ReportBucketInRange) {
  const Olh olh(50, 0.5);
  Rng rng(1);
  for (const Report& r : GenuineReports(olh, 17, 300, rng))
    EXPECT_LT(r.value, olh.g());
}

TEST(OlhTest, SupportsOwnItemWithP) {
  const Olh olh(50, 0.5);
  Rng rng(2);
  const int kTrials = 40000;
  const double hits =
      BatchSupportCounts(olh, GenuineReports(olh, 9, kTrials, rng))[9];
  EXPECT_NEAR(hits / kTrials, olh.p(), 0.01);
}

TEST(OlhTest, SupportsOtherItemWithQ) {
  const Olh olh(50, 0.5);
  Rng rng(3);
  const int kTrials = 40000;
  const double hits =
      BatchSupportCounts(olh, GenuineReports(olh, 9, kTrials, rng))[31];
  EXPECT_NEAR(hits / kTrials, olh.q(), 0.01);
}

TEST(OlhTest, AccumulateSupportsMatchesHashPredicate) {
  const Olh olh(30, 0.5);
  Rng rng(4);
  const Report r = GenuineReport(olh, 5, rng);
  const std::vector<double> counts = BatchSupportCounts(olh, {r});
  for (ItemId v = 0; v < 30; ++v)
    EXPECT_DOUBLE_EQ(counts[v], olh.Hash(r.seed, v) == r.value ? 1.0 : 0.0);
}

TEST(OlhTest, EstimationIsUnbiasedExactPath) {
  // Exact per-user simulation through the batched generation and
  // aggregation kernels.
  const size_t d = 12;
  const Olh olh(d, 1.0);
  Rng rng(5);
  const size_t n = 30000;
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[2] = n / 3;
  item_counts[8] = 2 * n / 3;
  const std::vector<double> counts = olh.ExactSupportCounts(item_counts, rng);
  const auto freqs = olh.EstimateFrequencies(counts, n);
  EXPECT_NEAR(freqs[2], 1.0 / 3.0, 0.03);
  EXPECT_NEAR(freqs[8], 2.0 / 3.0, 0.03);
}

TEST(OlhTest, EstimationIsUnbiasedFastPath) {
  const size_t d = 12;
  const Olh olh(d, 1.0);
  Rng rng(6);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[2] = 40000;
  item_counts[8] = 80000;
  const auto counts = olh.SampleSupportCounts(item_counts, rng);
  const auto freqs = olh.EstimateFrequencies(counts, 120000);
  EXPECT_NEAR(freqs[2], 1.0 / 3.0, 0.02);
  EXPECT_NEAR(freqs[8], 2.0 / 3.0, 0.02);
}

TEST(OlhTest, CraftedReportAlwaysSupportsItem) {
  const Olh olh(64, 0.5);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const ItemId v = static_cast<ItemId>(rng.UniformU64(64));
    const Report r = CraftedReport(olh, v, rng);
    EXPECT_EQ(olh.Hash(r.seed, v), r.value);
    EXPECT_DOUBLE_EQ(BatchSupportCounts(olh, {r})[v], 1.0);
  }
}

TEST(OlhTest, CraftedReportSupportsOthersAtRateQ) {
  // A crafted OLH report looks like a genuine one for non-chosen
  // items: it supports them at rate ~1/g.
  const Olh olh(64, 0.5);
  Rng rng(8);
  const int kTrials = 20000;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  for (int i = 0; i < kTrials; ++i) olh.AppendCraftedReport(3, rng, builder);
  std::vector<double> counts(64, 0.0);
  olh.AccumulateSupportsBatch(crafted, counts);
  EXPECT_NEAR(counts[40] / kTrials, olh.q(), 0.015);
}

TEST(OlhTest, HashIsDeterministicPerSeed) {
  const Olh olh(100, 0.5);
  EXPECT_EQ(olh.Hash(123, 45), olh.Hash(123, 45));
}

TEST(OlhTest, CountVarianceCloseToEq10) {
  // With the default g, the generic q(1-q)/(p-q)^2 variance is within
  // a modest factor of Eq. (10)'s idealized 4e^eps/(e^eps-1)^2 (the
  // gap is the integrality of g).
  const double eps = 0.5;
  const Olh olh(100, eps);
  const double e = std::exp(eps);
  const double ideal = 1000.0 * 4.0 * e / ((e - 1.0) * (e - 1.0));
  const double actual = olh.CountVariance(0.1, 1000);
  EXPECT_GT(actual, 0.5 * ideal);
  EXPECT_LT(actual, 2.0 * ideal);
}

}  // namespace
}  // namespace ldpr
