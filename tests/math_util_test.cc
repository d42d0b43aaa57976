#include "util/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(NormalPdfTest, StandardValues) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(NormalPdf(1.0), 0.2419707245, 1e-9);
  EXPECT_NEAR(NormalPdf(-1.0), NormalPdf(1.0), 1e-15);  // symmetry
}

TEST(NormalPdfTest, ScaledAndShifted) {
  // N(2, 0.5^2) at its mean: 1/(0.5*sqrt(2pi)).
  EXPECT_NEAR(NormalPdf(2.0, 2.0, 0.5), 0.3989422804 / 0.5, 1e-9);
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.96), 0.0249979, 1e-6);
}

TEST(NormalCdfTest, MonotoneAndComplementary) {
  for (double x = -3.0; x < 3.0; x += 0.25) {
    EXPECT_LT(NormalCdf(x), NormalCdf(x + 0.25));
    EXPECT_NEAR(NormalCdf(x) + NormalCdf(-x), 1.0, 1e-12);
  }
}

TEST(NormalCdfTest, ShiftedMatchesStandardized) {
  EXPECT_NEAR(NormalCdf(3.0, 1.0, 2.0), NormalCdf(1.0), 1e-12);
}

TEST(VectorOpsTest, SumAddSubtractScale) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {0.5, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
  const auto sum = Add(a, b);
  EXPECT_DOUBLE_EQ(sum[0], 1.5);
  EXPECT_DOUBLE_EQ(sum[1], 1.0);
  EXPECT_DOUBLE_EQ(sum[2], 5.0);
  const auto diff = Subtract(a, b);
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  const auto scaled = Scale(a, -2.0);
  EXPECT_DOUBLE_EQ(scaled[2], -6.0);
}

TEST(VectorOpsTest, Normalize) {
  const auto n = Normalize({1.0, 3.0});
  EXPECT_DOUBLE_EQ(n[0], 0.25);
  EXPECT_DOUBLE_EQ(n[1], 0.75);
}

TEST(IsProbabilityVectorTest, AcceptsValid) {
  EXPECT_TRUE(IsProbabilityVector({0.25, 0.25, 0.5}));
  EXPECT_TRUE(IsProbabilityVector({1.0}));
  EXPECT_TRUE(IsProbabilityVector({0.0, 1.0}));
}

TEST(IsProbabilityVectorTest, RejectsInvalid) {
  EXPECT_FALSE(IsProbabilityVector({0.5, 0.6}));          // sums to 1.1
  EXPECT_FALSE(IsProbabilityVector({-0.1, 1.1}));         // negative entry
  EXPECT_FALSE(IsProbabilityVector({0.5, std::nan("")})); // NaN
}

TEST(IsProbabilityVectorTest, ToleranceScalesWithSize) {
  std::vector<double> v(1000, 1.0 / 1000.0);
  v[0] += 1e-10;  // tiny rounding drift
  EXPECT_TRUE(IsProbabilityVector(v));
}

}  // namespace
}  // namespace ldpr
