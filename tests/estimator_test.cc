#include "recover/estimator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/oue.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(MaliciousMomentsTest, MatchesLemma1Formulas) {
  const Grr grr(10, 1.0);
  const double p = grr.p(), q = grr.q();
  const double s = 0.3;
  const size_t m = 500;
  const Moments mo = MaliciousFrequencyMoments(grr, s, m);
  EXPECT_NEAR(mo.mean, (s - q) / (p - q), 1e-12);
  EXPECT_NEAR(mo.variance, s * (1 - s) / ((p - q) * (p - q) * m), 1e-12);
}

TEST(MaliciousMomentsTest, DeterministicSupportHasZeroVariance) {
  const Grr grr(10, 1.0);
  const Moments mo = MaliciousFrequencyMoments(grr, 1.0, 100);
  EXPECT_DOUBLE_EQ(mo.variance, 0.0);
  // A report always supporting v contributes (1-q)/(p-q) > 1 to the
  // estimated frequency — the amplification MGA exploits.
  EXPECT_GT(mo.mean, 1.0);
}

TEST(MaliciousMomentsTest, EmpiricalAgreement) {
  // Crafted GRR reports hitting item 0 with prob s: the aggregated
  // f~_Y(0) matches Lemma 1.
  const size_t d = 10;
  const Grr grr(d, 1.0);
  Rng rng(1);
  const double s = 0.4;
  const size_t m = 2000;
  RunningStat stat;
  for (int trial = 0; trial < 300; ++trial) {
    ReportBatch crafted;
    ReportBatch::Builder builder(crafted);
    for (size_t i = 0; i < m; ++i) {
      builder.AddValue(static_cast<uint32_t>(
          rng.Bernoulli(s) ? 0 : 1 + rng.UniformU64(d - 1)));
    }
    std::vector<double> counts(d, 0.0);
    grr.AccumulateSupportsBatch(crafted, counts);
    stat.Add(grr.EstimateFrequencies(counts, m)[0]);
  }
  const Moments mo = MaliciousFrequencyMoments(grr, s, m);
  EXPECT_NEAR(stat.mean(), mo.mean, 0.01);
  EXPECT_NEAR(stat.variance(), mo.variance, 0.3 * mo.variance);
}

TEST(GenuineMomentsTest, MeanIsTrueFrequency) {
  const Oue oue(50, 0.5);
  const Moments mo = GenuineFrequencyMoments(oue, 0.123, 10000);
  EXPECT_DOUBLE_EQ(mo.mean, 0.123);
  EXPECT_GT(mo.variance, 0.0);
}

TEST(GenuineMomentsTest, MatchesLemma2Formula) {
  const Grr grr(20, 0.8);
  const double p = grr.p(), q = grr.q();
  const double f = 0.2;
  const size_t n = 5000;
  const Moments mo = GenuineFrequencyMoments(grr, f, n);
  const double expected =
      q * (1 - q) / (n * (p - q) * (p - q)) + f * (1 - p - q) / (n * (p - q));
  EXPECT_NEAR(mo.variance, expected, 1e-15);
}

TEST(GenuineMomentsTest, VarianceShrinksWithN) {
  const Grr grr(20, 0.5);
  EXPECT_GT(GenuineFrequencyMoments(grr, 0.1, 100).variance,
            GenuineFrequencyMoments(grr, 0.1, 10000).variance);
}

TEST(PoisonedMomentsTest, MatchesTheorem1Mixture) {
  const Moments gen{0.3, 4e-6};
  const Moments mal{2.0, 1e-4};
  const double eta = 0.25;
  const Moments mix = PoisonedFrequencyMoments(gen, mal, eta);
  EXPECT_NEAR(mix.mean, 0.3 / 1.25 + 0.25 * 2.0 / 1.25, 1e-12);
  EXPECT_NEAR(mix.variance,
              4e-6 / (1.25 * 1.25) + 0.25 * 0.25 * 1e-4 / (1.25 * 1.25),
              1e-15);
}

TEST(PoisonedMomentsTest, ZeroEtaIsGenuine) {
  const Moments gen{0.3, 4e-6};
  const Moments mal{2.0, 1e-4};
  const Moments mix = PoisonedFrequencyMoments(gen, mal, 0.0);
  EXPECT_DOUBLE_EQ(mix.mean, gen.mean);
  EXPECT_DOUBLE_EQ(mix.variance, gen.variance);
}

TEST(RecoverGenuineTest, InvertsTheMixtureExactly) {
  // Eq. (19) is the algebraic inverse of Eq. (14): with the exact
  // f~_Y, the recovered vector equals f~_X to rounding.
  const double eta = 0.2;
  const std::vector<double> genuine = {0.5, 0.3, 0.2};
  const std::vector<double> malicious = {1.2, -0.1, -0.1};
  std::vector<double> poisoned(3);
  for (size_t v = 0; v < 3; ++v)
    poisoned[v] = genuine[v] / (1 + eta) + eta * malicious[v] / (1 + eta);
  const auto recovered = RecoverGenuineFrequencies(poisoned, malicious, eta);
  for (size_t v = 0; v < 3; ++v) EXPECT_NEAR(recovered[v], genuine[v], 1e-12);
}

TEST(BerryEsseenTest, BoundShrinksAsSqrtCount) {
  const double b100 = BerryEsseenBound(0.1, 0.5, 100);
  const double b10000 = BerryEsseenBound(0.1, 0.5, 10000);
  EXPECT_NEAR(b100 / b10000, 10.0, 1e-9);
}

TEST(BerryEsseenTest, Theorem4BoundFiniteAndDecreasing) {
  const Grr grr(102, 0.5);
  const double b_small = MaliciousApproximationErrorBound(grr, 0.1, 100);
  const double b_large = MaliciousApproximationErrorBound(grr, 0.1, 10000);
  EXPECT_GT(b_small, 0.0);
  EXPECT_LT(b_large, b_small);
  EXPECT_NEAR(b_small / b_large, 10.0, 1e-6);
}

TEST(BerryEsseenTest, Theorem5BoundFinite) {
  const Oue oue(102, 0.5);
  const double b = GenuineApproximationErrorBound(oue, 0.05, 389894);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 0.01);  // paper-scale n makes the CLT gap tiny
}

TEST(BerryEsseenTest, DegenerateSupportIsExact) {
  const Grr grr(10, 0.5);
  EXPECT_DOUBLE_EQ(MaliciousApproximationErrorBound(grr, 0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(MaliciousApproximationErrorBound(grr, 1.0, 100), 0.0);
}

}  // namespace
}  // namespace ldpr
