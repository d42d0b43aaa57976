// Parameterized property tests over all protocols and a grid of
// privacy budgets: the pure-LDP invariants of Section III hold for
// every (protocol, epsilon, d) combination.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "util/math_util.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

struct Params {
  ProtocolKind kind;
  double epsilon;
  size_t d;
};

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  std::string name = ProtocolKindName(info.param.kind);
  name += "_eps";
  name += std::to_string(static_cast<int>(info.param.epsilon * 100));
  name += "_d";
  name += std::to_string(info.param.d);
  return name;
}

class ProtocolPropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  std::unique_ptr<FrequencyProtocol> protocol_ =
      MakeProtocol(GetParam().kind, GetParam().d, GetParam().epsilon);
};

TEST_P(ProtocolPropertyTest, ProbabilityOrderingAndLdpConstraint) {
  const double p = protocol_->p();
  const double q = protocol_->q();
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  EXPECT_GT(q, 0.0);
  EXPECT_LT(q, 1.0);
  EXPECT_GT(p, q);
  // Pure LDP: p/q <= e^eps (equality for GRR and OLH-over-g; OUE's
  // per-bit ratio likewise equals e^eps via (p(1-q))/(q(1-p))).
  const double e = std::exp(GetParam().epsilon);
  EXPECT_LE(p / q, e * (1.0 + 1e-9));
}

// Support counts of `count` genuine reports of users holding `item`.
std::vector<double> GenuineSupportCounts(const FrequencyProtocol& protocol,
                                         ItemId item, uint64_t count,
                                         Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  protocol.AppendGenuineReports(item, count, rng, builder);
  std::vector<double> counts(protocol.domain_size(), 0.0);
  protocol.AccumulateSupportsBatch(batch, counts);
  return counts;
}

TEST_P(ProtocolPropertyTest, PerturbSupportsOwnItemAtRateP) {
  Rng rng(101);
  const ItemId item = static_cast<ItemId>(GetParam().d / 2);
  const int kTrials = 20000;
  const double hits = GenuineSupportCounts(*protocol_, item, kTrials, rng)[item];
  EXPECT_NEAR(hits / kTrials, protocol_->p(), 0.015);
}

TEST_P(ProtocolPropertyTest, PerturbSupportsOtherItemAtRateQ) {
  Rng rng(102);
  const ItemId other = static_cast<ItemId>(GetParam().d - 1);
  const int kTrials = 20000;
  const double hits = GenuineSupportCounts(*protocol_, 0, kTrials, rng)[other];
  EXPECT_NEAR(hits / kTrials, protocol_->q(), 0.015);
}

TEST_P(ProtocolPropertyTest, EstimatedFrequenciesSumNearOne) {
  // sum_v Phi(v)/n = (sum_v C(v) - n q d) / (n (p - q)) concentrates
  // on 1 for genuine data.
  Rng rng(103);
  const size_t d = GetParam().d;
  const size_t n = 20000;
  std::vector<uint64_t> item_counts(d, n / d);
  item_counts[0] += n - (n / d) * d;
  const auto counts = protocol_->SampleSupportCounts(item_counts, rng);
  const auto freqs = protocol_->EstimateFrequencies(counts, n);
  // Tolerance: ~6 standard deviations of the sum (per-item variances
  // add; cross-item correlation only tightens GRR's sum).
  const double sum_sd = std::sqrt(static_cast<double>(d) *
                                  protocol_->FrequencyVariance(1.0 / d, n));
  EXPECT_NEAR(Sum(freqs), 1.0, 6.0 * sum_sd);
}

TEST_P(ProtocolPropertyTest, EstimatorIsUnbiasedOnSkewedData) {
  Rng rng(104);
  const size_t d = GetParam().d;
  const size_t n = 30000;
  // 50% on item 1, the rest uniform.
  std::vector<uint64_t> item_counts(d, (n / 2) / (d - 1));
  item_counts[1] = n / 2;
  uint64_t total = 0;
  for (uint64_t c : item_counts) total += c;
  item_counts[0] += n - total;

  RunningStat est;
  for (int trial = 0; trial < 40; ++trial) {
    const auto counts = protocol_->SampleSupportCounts(item_counts, rng);
    est.Add(protocol_->EstimateFrequencies(counts, n)[1]);
  }
  const double truth = static_cast<double>(item_counts[1]) / n;
  EXPECT_NEAR(est.mean(), truth, 5.0 * std::sqrt(est.variance() / 40.0) + 0.01);
}

TEST_P(ProtocolPropertyTest, CraftedReportDeterministicallySupportsTarget) {
  Rng rng(105);
  for (ItemId v = 0; v < GetParam().d; v += 7) {
    ReportBatch crafted;
    ReportBatch::Builder builder(crafted);
    protocol_->AppendCraftedReport(v, rng, builder);
    std::vector<double> counts(GetParam().d, 0.0);
    protocol_->AccumulateSupportsBatch(crafted, counts);
    EXPECT_EQ(counts[v], 1.0) << v;
  }
}

TEST_P(ProtocolPropertyTest, CountVariancePositiveAndDecreasingInEpsilon) {
  const size_t n = 1000;
  const double var = protocol_->CountVariance(0.1, n);
  EXPECT_GT(var, 0.0);
  // A substantially larger epsilon gives strictly lower variance.
  const auto looser =
      MakeProtocol(GetParam().kind, GetParam().d, GetParam().epsilon + 2.0);
  EXPECT_LT(looser->CountVariance(0.1, n), var);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolPropertyTest,
    ::testing::Values(Params{ProtocolKind::kGrr, 0.1, 16},
                      Params{ProtocolKind::kGrr, 0.5, 102},
                      Params{ProtocolKind::kGrr, 1.6, 32},
                      Params{ProtocolKind::kOue, 0.1, 16},
                      Params{ProtocolKind::kOue, 0.5, 102},
                      Params{ProtocolKind::kOue, 1.6, 32},
                      Params{ProtocolKind::kOlh, 0.1, 16},
                      Params{ProtocolKind::kOlh, 0.5, 102},
                      Params{ProtocolKind::kOlh, 1.6, 32}),
    ParamName);

TEST(ProtocolFactoryTest, ParsesNamesCaseInsensitively) {
  EXPECT_EQ(ParseProtocolKind("grr").value(), ProtocolKind::kGrr);
  EXPECT_EQ(ParseProtocolKind("Oue").value(), ProtocolKind::kOue);
  EXPECT_EQ(ParseProtocolKind("OLH").value(), ProtocolKind::kOlh);
  EXPECT_FALSE(ParseProtocolKind("rappor").ok());
}

TEST(ProtocolFactoryTest, MakesNamedProtocols) {
  for (ProtocolKind kind : kAllProtocolKinds) {
    const auto proto = MakeProtocol(kind, 10, 0.5);
    ASSERT_NE(proto, nullptr);
    EXPECT_EQ(proto->kind(), kind);
    EXPECT_EQ(proto->domain_size(), 10u);
  }
}

}  // namespace
}  // namespace ldpr
