#include "recover/malicious_stats.h"

#include <memory>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "ldp/grr.h"
#include "util/math_util.h"

namespace ldpr {
namespace {

TEST(MaliciousStatsTest, MatchesEq21ForGrr) {
  const Grr grr(10, 1.0);
  const double expected =
      (1.0 - grr.q() * 10.0) / (grr.p() - grr.q());
  EXPECT_NEAR(ExpectedMaliciousFrequencySum(grr), expected, 1e-12);
}

TEST(MaliciousStatsTest, GrrSumIsExactlyOne) {
  // For GRR, q*d = d/(d-1+e^eps) and p-q = (e^eps-1)/(d-1+e^eps), so
  // (1 - qd)/(p - q) = (e^eps - 1 - 1 + ... ) — numerically it equals
  // (d-1+e^eps-d)/(e^eps-1) = 1.  A crafted GRR report supports
  // exactly one item, so its estimated frequencies sum to exactly 1.
  for (double eps : {0.1, 0.5, 1.0, 1.6}) {
    for (size_t d : {2u, 10u, 102u, 490u}) {
      const Grr grr(d, eps);
      EXPECT_NEAR(ExpectedMaliciousFrequencySum(grr), 1.0, 1e-9)
          << "d=" << d << " eps=" << eps;
    }
  }
}

TEST(MaliciousStatsTest, OueOneHotSumIsLargeNegative) {
  // Under the one-hot support model a crafted OUE vector sets a
  // single bit while genuine reports average ~1 + (d-1)q ones, so the
  // adjusted sum (1 - qd)/(p - q) is large and negative.  The
  // uniform-split recovery is insensitive to this offset (it cancels
  // in the simplex refinement), but the sign is a useful invariant.
  const auto oue = MakeProtocol(ProtocolKind::kOue, 102, 0.5);
  EXPECT_LT(ExpectedMaliciousFrequencySum(*oue), -100.0);
  // One-hot crafting means the crafted sum coincides with Eq. (21).
  EXPECT_NEAR(CraftedMaliciousFrequencySum(*oue),
              ExpectedMaliciousFrequencySum(*oue), 1e-9);
}

TEST(MaliciousStatsTest, OlhCraftedSumAccountsForCollisions) {
  // A crafted OLH report supports its item plus ~(d-1)/g colliding
  // items, so the crafted sum is (1 - q)/(p - q) > 0, not Eq. (21).
  const auto olh = MakeProtocol(ProtocolKind::kOlh, 102, 0.5);
  const double expected =
      (1.0 - olh->q()) / (olh->p() - olh->q());
  EXPECT_NEAR(CraftedMaliciousFrequencySum(*olh), expected, 1e-9);
  EXPECT_LT(ExpectedMaliciousFrequencySum(*olh), 0.0);
}

// The malicious sum matches the empirical sum of estimated
// frequencies of one-hot crafted reports for each protocol.
class MaliciousSumEmpiricalTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(MaliciousSumEmpiricalTest, MatchesCraftedReports) {
  const size_t d = 40;
  const auto proto = MakeProtocol(GetParam(), d, 0.5);
  Rng rng(7);
  const size_t m = 30000;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = static_cast<ItemId>(rng.UniformU64(d));
    proto->AppendCraftedReport(v, rng, builder);
  }
  std::vector<double> counts(d, 0.0);
  proto->AccumulateSupportsBatch(crafted, counts);
  const double empirical = Sum(proto->EstimateFrequencies(counts, m));
  EXPECT_NEAR(empirical, CraftedMaliciousFrequencySum(*proto), 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, MaliciousSumEmpiricalTest,
                         ::testing::Values(ProtocolKind::kGrr,
                                           ProtocolKind::kOue,
                                           ProtocolKind::kOlh),
                         [](const auto& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

TEST(MaliciousStatsTest, ZeroMassSubdomainExactForm) {
  const Grr grr(102, 0.5);
  const size_t dprime = 92;  // d - r with r = 10
  const double exact = ZeroMassSubdomainSum(grr, dprime, false);
  EXPECT_NEAR(exact, -grr.q() * 92.0 / (grr.p() - grr.q()), 1e-12);
}

TEST(MaliciousStatsTest, PaperLiteralUsesFullDomain) {
  const Grr grr(102, 0.5);
  const double literal = ZeroMassSubdomainSum(grr, 92, true);
  EXPECT_NEAR(literal, -grr.q() * 102.0 / (grr.p() - grr.q()), 1e-12);
  // Paper-literal is more negative than the exact form.
  EXPECT_LT(literal, ZeroMassSubdomainSum(grr, 92, false));
}

TEST(MaliciousStatsTest, SplitSumsToTotal) {
  // Eq. (29): sub-domain sums must recompose to the full-domain sum,
  // in both exact and paper-literal modes.
  const auto oue = MakeProtocol(ProtocolKind::kOue, 102, 0.5);
  for (bool literal : {false, true}) {
    const double total = ExpectedMaliciousFrequencySum(*oue);
    const double non_target = ZeroMassSubdomainSum(*oue, 92, literal);
    const double target = TargetSubdomainSum(*oue, 92, literal);
    EXPECT_NEAR(non_target + target, total, 1e-12);
  }
}

TEST(MaliciousStatsTest, ZeroMassSubdomainMatchesEmpirically) {
  // Craft MGA-style GRR reports on targets {0..9}; the estimated
  // frequency sum over non-targets concentrates on Eq. (28) (exact
  // form).
  const size_t d = 60;
  const Grr grr(d, 0.5);
  Rng rng(9);
  const size_t m = 40000;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  for (size_t i = 0; i < m; ++i)
    builder.AddValue(static_cast<uint32_t>(rng.UniformU64(10)));  // targets
  std::vector<double> counts(d, 0.0);
  grr.AccumulateSupportsBatch(crafted, counts);
  const auto freqs = grr.EstimateFrequencies(counts, m);
  double non_target_sum = 0.0;
  for (size_t v = 10; v < d; ++v) non_target_sum += freqs[v];
  EXPECT_NEAR(non_target_sum, ZeroMassSubdomainSum(grr, d - 10, false), 0.02);
}

}  // namespace
}  // namespace ldpr
