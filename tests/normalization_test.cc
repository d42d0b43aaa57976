#include "recover/normalization.h"

#include <gtest/gtest.h>

#include "recover/simplex_projection.h"
#include "util/math_util.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(ClipAndRenormalizeTest, ProducesProbabilityVector) {
  const auto out = ClipAndRenormalize({-0.2, 0.3, 0.9});
  EXPECT_TRUE(IsProbabilityVector(out));
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_NEAR(out[1], 0.25, 1e-12);
  EXPECT_NEAR(out[2], 0.75, 1e-12);
}

TEST(ClipAndRenormalizeTest, DegenerateInputBecomesUniform) {
  const auto out = ClipAndRenormalize({-0.5, -0.1, 0.0, -0.2});
  for (double x : out) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(NormalizationAblationTest, MethodsDifferOnSkewedInput) {
  // The ablation point: clip+renorm *rescales* (multiplicative) while
  // norm-sub *shifts* (additive); they disagree away from the simplex.
  const std::vector<double> v = {0.9, 0.4, -0.1};
  const auto clip = ClipAndRenormalize(v);
  const auto sub = ProjectToSimplexKkt(v);
  EXPECT_GT(LInfDistance(clip, sub), 1e-3);
}

}  // namespace
}  // namespace ldpr
