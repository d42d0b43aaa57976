// epsilon-LDP verification (Definition 1): for every protocol, the
// worst-case likelihood ratio between two inputs over any output is
// at most e^eps.  Checked both analytically (closed-form worst cases)
// and empirically (report-histogram ratios for GRR).

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "ldp/blh.h"
#include "ldp/factory.h"
#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "ldp/sue.h"
#include "report_oracle.h"

namespace ldpr {
namespace {

TEST(PrivacyTest, GrrWorstCaseRatioIsExactlyExpEps) {
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    const Grr grr(102, eps);
    // Output = the true item vs output = any other item: p/q.
    EXPECT_NEAR(grr.p() / grr.q(), std::exp(eps), 1e-9) << eps;
  }
}

TEST(PrivacyTest, OueWorstCaseRatioIsExactlyExpEps) {
  // For unary encodings the likelihood of a report factorizes over
  // bits; switching the input from v1 to v2 changes only bits v1 and
  // v2.  The worst output has bit v1 = 1 and bit v2 = 0:
  // ratio = (p / q) * ((1 - q) / (1 - p)).
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    const Oue oue(102, eps);
    const double ratio = (oue.p() / oue.q()) *
                         ((1.0 - oue.q()) / (1.0 - oue.p()));
    EXPECT_NEAR(ratio, std::exp(eps), 1e-9) << eps;
  }
}

TEST(PrivacyTest, SueWorstCaseRatioIsExactlyExpEps) {
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    const Sue sue(102, eps);
    const double ratio = (sue.p() / sue.q()) *
                         ((1.0 - sue.q()) / (1.0 - sue.p()));
    EXPECT_NEAR(ratio, std::exp(eps), 1e-9) << eps;
  }
}

TEST(PrivacyTest, OlhWorstCaseRatioIsExactlyExpEps) {
  // Conditioned on the hash seed, OLH is GRR over g buckets: the
  // worst ratio is p_g / q_g = p * (g - 1) / (1 - p).
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    const Olh olh(102, eps);
    const double ratio = olh.p() * static_cast<double>(olh.g() - 1) /
                         (1.0 - olh.p());
    EXPECT_NEAR(ratio, std::exp(eps), 1e-9) << eps;
  }
}

TEST(PrivacyTest, BlhWorstCaseRatioIsExactlyExpEps) {
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    const Blh blh(102, eps);
    const double ratio = blh.p() / (1.0 - blh.p());
    EXPECT_NEAR(ratio, std::exp(eps), 1e-9) << eps;
  }
}

TEST(PrivacyTest, GrrEmpiricalHistogramRatioBounded) {
  // Empirical check: output histograms from two different inputs have
  // pointwise ratio <= e^eps (up to sampling noise).
  const double eps = 1.0;
  const size_t d = 6;
  const Grr grr(d, eps);
  Rng rng(1);
  const int kTrials = 200000;
  std::vector<double> h1(d, 0.0), h2(d, 0.0);
  for (int i = 0; i < kTrials; ++i) {
    h1[GenuineReport(grr, 0, rng).value] += 1.0;
    h2[GenuineReport(grr, 3, rng).value] += 1.0;
  }
  for (size_t b = 0; b < d; ++b) {
    const double ratio = h1[b] / h2[b];
    EXPECT_LT(ratio, std::exp(eps) * 1.1) << b;
    EXPECT_GT(ratio, std::exp(-eps) / 1.1) << b;
  }
}

TEST(PrivacyTest, SmallerEpsilonMeansMoreNoise) {
  // Monotonicity across the whole suite: tighter privacy -> higher
  // estimation variance.
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto tight = MakeProtocol(kind, 64, 0.2);
    const auto loose = MakeProtocol(kind, 64, 1.5);
    EXPECT_GT(tight->CountVariance(0.1, 1000),
              loose->CountVariance(0.1, 1000))
        << ProtocolKindName(kind);
  }
}

}  // namespace
}  // namespace ldpr
