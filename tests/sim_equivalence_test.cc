// Validates the fast closed-form aggregation samplers against exact
// per-user simulation: means and variances of the resulting frequency
// estimates agree for every protocol (the trade-off docs/architecture.md
// records under "Closed-form approximations").

#include <memory>

#include <cmath>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "util/random.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

class SimEquivalenceTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SimEquivalenceTest, MeansAgree) {
  const size_t d = 10;
  const size_t n = 5000;
  const auto proto = MakeProtocol(GetParam(), d, 0.8);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[0] = n / 2;
  item_counts[5] = n / 4;
  item_counts[9] = n - item_counts[0] - item_counts[5];

  Rng rng(21);
  RunningStat fast, exact;
  const int kTrials = 25;
  for (int t = 0; t < kTrials; ++t) {
    const auto cf = proto->SampleSupportCounts(item_counts, rng);
    fast.Add(proto->EstimateFrequencies(cf, n)[0]);
    const auto ce = proto->ExactSupportCounts(item_counts, rng);
    exact.Add(proto->EstimateFrequencies(ce, n)[0]);
  }
  const double sigma =
      std::sqrt(proto->FrequencyVariance(0.5, n) / kTrials);
  EXPECT_NEAR(fast.mean(), 0.5, 5.0 * sigma);
  EXPECT_NEAR(exact.mean(), 0.5, 5.0 * sigma);
  EXPECT_NEAR(fast.mean(), exact.mean(), 8.0 * sigma);
}

TEST_P(SimEquivalenceTest, VariancesAgreeWithTheory) {
  const size_t d = 8;
  const size_t n = 3000;
  const auto proto = MakeProtocol(GetParam(), d, 1.0);
  std::vector<uint64_t> item_counts(d, n / d);

  Rng rng(22);
  RunningStat fast, exact;
  const int kTrials = 150;
  for (int t = 0; t < kTrials; ++t) {
    const auto cf = proto->SampleSupportCounts(item_counts, rng);
    fast.Add(proto->EstimateFrequencies(cf, n)[3]);
    const auto ce = proto->ExactSupportCounts(item_counts, rng);
    exact.Add(proto->EstimateFrequencies(ce, n)[3]);
  }
  const double theory = proto->FrequencyVariance(1.0 / d, n);
  EXPECT_NEAR(fast.variance(), theory, 0.45 * theory);
  EXPECT_NEAR(exact.variance(), theory, 0.45 * theory);
}

TEST_P(SimEquivalenceTest, SupportCountTotalsConsistent) {
  // Totals must match the per-report support budget: n for GRR
  // (one supported item per report); for OUE/OLH expectation is
  // n * (p + (d-1) q).
  const size_t d = 12;
  const size_t n = 20000;
  const auto proto = MakeProtocol(GetParam(), d, 0.5);
  std::vector<uint64_t> item_counts(d, n / d);
  Rng rng(23);
  const auto counts = proto->SampleSupportCounts(item_counts, rng);
  double total = 0.0;
  for (double c : counts) total += c;
  const double expected =
      static_cast<double>(n) * (proto->p() + (d - 1) * proto->q());
  EXPECT_NEAR(total / expected, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SimEquivalenceTest,
                         ::testing::Values(ProtocolKind::kGrr,
                                           ProtocolKind::kOue,
                                           ProtocolKind::kOlh),
                         [](const auto& param_info) {
                           return std::string(ProtocolKindName(param_info.param));
                         });

}  // namespace
}  // namespace ldpr
