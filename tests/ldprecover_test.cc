#include "recover/ldprecover.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/oue.h"
#include "recover/malicious_stats.h"
#include "util/math_util.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(LdpRecoverTest, OutputIsAlwaysOnSimplex) {
  const Oue oue(20, 0.5);
  const LdpRecover recover(oue);
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> poisoned(20);
    for (double& x : poisoned) x = (rng.UniformDouble() - 0.3) * 0.4;
    EXPECT_TRUE(IsProbabilityVector(recover.Recover(poisoned), 1e-8));
  }
}

TEST(LdpRecoverTest, MaliciousMassSpreadsUniformlyOverPositives) {
  const Grr grr(5, 1.0);
  RecoverOptions opts;
  opts.eta = 0.1;
  const LdpRecover recover(grr, opts);
  // Items 0 and 3 are non-positive -> D0; the rest share the sum.
  const std::vector<double> poisoned = {0.0, 0.4, 0.5, -0.02, 0.12};
  const auto malicious = recover.EstimateMaliciousFrequencies(poisoned);
  EXPECT_DOUBLE_EQ(malicious[0], 0.0);
  EXPECT_DOUBLE_EQ(malicious[3], 0.0);
  const double share = ExpectedMaliciousFrequencySum(grr) / 3.0;
  EXPECT_NEAR(malicious[1], share, 1e-12);
  EXPECT_NEAR(malicious[2], share, 1e-12);
  EXPECT_NEAR(malicious[4], share, 1e-12);
}

TEST(LdpRecoverTest, GenuineEstimateFollowsEq27) {
  const Grr grr(4, 1.0);
  RecoverOptions opts;
  opts.eta = 0.25;
  const LdpRecover recover(grr, opts);
  const std::vector<double> poisoned = {0.4, 0.3, 0.2, 0.1};
  const auto malicious = recover.EstimateMaliciousFrequencies(poisoned);
  const auto genuine = recover.EstimateGenuineFrequencies(poisoned);
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_NEAR(genuine[v], 1.25 * poisoned[v] - 0.25 * malicious[v], 1e-12);
  }
}

TEST(LdpRecoverStarTest, TargetSplitFollowsEq30) {
  const Oue oue(10, 0.5);
  RecoverOptions opts;
  opts.eta = 0.2;
  opts.known_targets = std::vector<ItemId>{2, 7};
  opts.paper_literal_subdomain_sum = false;  // test the exact split
  const LdpRecover star(oue, opts);
  const std::vector<double> poisoned(10, 0.1);
  const auto malicious = star.EstimateMaliciousFrequencies(poisoned);

  const double non_target_each =
      ZeroMassSubdomainSum(oue, 8, false) / 8.0;
  const double target_each = TargetSubdomainSum(oue, 8, false) / 2.0;
  for (size_t v = 0; v < 10; ++v) {
    if (v == 2 || v == 7) {
      EXPECT_NEAR(malicious[v], target_each, 1e-12);
    } else {
      EXPECT_NEAR(malicious[v], non_target_each, 1e-12);
    }
  }
  // Targets carry far more malicious mass than non-targets.
  EXPECT_GT(target_each, non_target_each);
}

TEST(LdpRecoverStarTest, PaperLiteralModeChangesSplit) {
  const Oue oue(10, 0.5);
  RecoverOptions exact_opts, literal_opts;
  exact_opts.known_targets = literal_opts.known_targets =
      std::vector<ItemId>{0};
  exact_opts.paper_literal_subdomain_sum = false;
  literal_opts.paper_literal_subdomain_sum = true;
  const LdpRecover exact(oue, exact_opts);
  const LdpRecover literal(oue, literal_opts);
  const std::vector<double> poisoned(10, 0.1);
  const auto m_exact = exact.EstimateMaliciousFrequencies(poisoned);
  const auto m_literal = literal.EstimateMaliciousFrequencies(poisoned);
  EXPECT_LT(m_literal[1], m_exact[1]);  // literal over-subtracts non-targets
  EXPECT_GT(m_literal[0], m_exact[0]);  // ...and over-assigns targets
  // Both splits conserve the total.
  EXPECT_NEAR(Sum(m_exact), Sum(m_literal), 1e-9);
}

TEST(LdpRecoverTest, MaliciousVectorOverrideRespected) {
  const Grr grr(3, 0.5);
  RecoverOptions opts;
  opts.malicious_freqs_override = std::vector<double>{0.9, 0.1, 0.0};
  const LdpRecover recover(grr, opts);
  const auto m = recover.EstimateMaliciousFrequencies({0.3, 0.3, 0.4});
  EXPECT_DOUBLE_EQ(m[0], 0.9);
}

TEST(LdpRecoverTest, ExactMaliciousKnowledgeRecoversExactly) {
  // With f~_Y supplied exactly and eta = true m/n, Eq. (19) undoes the
  // mixture algebraically; the projection then only cleans rounding.
  const Grr grr(4, 1.0);
  const double eta = 0.25;
  const std::vector<double> genuine = {0.4, 0.3, 0.2, 0.1};
  const std::vector<double> malicious = {2.0, -0.4, -0.3, -0.3};
  std::vector<double> poisoned(4);
  for (size_t v = 0; v < 4; ++v)
    poisoned[v] = genuine[v] / (1 + eta) + eta * malicious[v] / (1 + eta);

  RecoverOptions opts;
  opts.eta = eta;
  opts.malicious_freqs_override = malicious;
  const LdpRecover recover(grr, opts);
  const auto recovered = recover.Recover(poisoned);
  for (size_t v = 0; v < 4; ++v) EXPECT_NEAR(recovered[v], genuine[v], 1e-9);
}

TEST(LdpRecoverTest, AllNonPositivePoisonedYieldsZeroMalicious) {
  const Grr grr(3, 0.5);
  const LdpRecover recover(grr);
  const auto m = recover.EstimateMaliciousFrequencies({-0.1, 0.0, -0.2});
  EXPECT_DOUBLE_EQ(Sum(m), 0.0);
}

TEST(LdpRecoverDeathTest, RejectsNegativeEta) {
  const Grr grr(5, 0.5);
  RecoverOptions opts;
  opts.eta = -0.1;
  EXPECT_DEATH(LdpRecover(grr, opts), "LDPR_CHECK");
}

TEST(LdpRecoverDeathTest, RejectsOutOfDomainTargets) {
  const Grr grr(5, 0.5);
  RecoverOptions opts;
  opts.known_targets = std::vector<ItemId>{7};
  EXPECT_DEATH(LdpRecover(grr, opts), "LDPR_CHECK");
}

TEST(LdpRecoverDeathTest, RejectsAllItemsAsTargets) {
  const Grr grr(3, 0.5);
  RecoverOptions opts;
  opts.known_targets = std::vector<ItemId>{0, 1, 2};
  EXPECT_DEATH(LdpRecover(grr, opts), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
