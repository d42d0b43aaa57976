// Direct tests of the batch Aggregator and the shared
// count-adjustment math in FrequencyProtocol (covered only indirectly
// by the pipeline tests elsewhere).

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "ldp/grr.h"
#include "ldp/oue.h"
#include "util/math_util.h"

namespace ldpr {
namespace {

TEST(AdjustCountsTest, InvertsTheExpectedSupportCounts) {
  // If C(v) = n*(f p + (1-f) q) exactly, AdjustCounts returns n*f.
  const Grr grr(4, 1.0);
  const size_t n = 1000;
  const std::vector<double> f = {0.5, 0.3, 0.2, 0.0};
  std::vector<double> counts(4);
  for (size_t v = 0; v < 4; ++v)
    counts[v] = n * (f[v] * grr.p() + (1.0 - f[v]) * grr.q());
  const auto adjusted = grr.AdjustCounts(counts, n);
  for (size_t v = 0; v < 4; ++v)
    EXPECT_NEAR(adjusted[v], n * f[v], 1e-9) << v;
}

TEST(AdjustCountsTest, EstimateFrequenciesDividesByN) {
  const Oue oue(3, 0.5);
  const std::vector<double> counts = {100.0, 80.0, 60.0};
  const auto adjusted = oue.AdjustCounts(counts, 200);
  const auto freqs = oue.EstimateFrequencies(counts, 200);
  for (size_t v = 0; v < 3; ++v)
    EXPECT_NEAR(freqs[v], adjusted[v] / 200.0, 1e-12);
}

TEST(AggregatorTest, CountsReportsAndSupports) {
  const Grr grr(5, 1.0);
  Aggregator agg(grr);
  EXPECT_EQ(agg.report_count(), 0u);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  builder.AddValue(2);
  builder.AddValue(2);
  builder.AddValue(4);
  agg.AddAll(batch);
  EXPECT_EQ(agg.report_count(), 3u);
  EXPECT_DOUBLE_EQ(agg.support_counts()[2], 2.0);
  EXPECT_DOUBLE_EQ(agg.support_counts()[4], 1.0);
  EXPECT_DOUBLE_EQ(agg.support_counts()[0], 0.0);
}

TEST(AggregatorTest, AddAllAccumulatesAcrossBatches) {
  const Grr grr(5, 1.0);
  Rng rng(1);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  grr.AppendGenuineReports(1, 100, rng, builder);

  Aggregator halves(grr);
  halves.AddAll(batch.Slice(0, 37));
  halves.AddAll(batch.Slice(37, 100));
  Aggregator whole(grr);
  whole.AddAll(batch);
  EXPECT_EQ(halves.support_counts(), whole.support_counts());
  EXPECT_EQ(halves.report_count(), whole.report_count());
}

TEST(AggregatorTest, AddSampledCountsMerges) {
  const Oue oue(3, 0.5);
  Aggregator agg(oue);
  agg.AddSampledCounts({10.0, 20.0, 30.0}, 50);
  agg.AddSampledCounts({1.0, 2.0, 3.0}, 5);
  EXPECT_EQ(agg.report_count(), 55u);
  EXPECT_DOUBLE_EQ(agg.support_counts()[1], 22.0);
}

TEST(AggregatorTest, EstimateWithOverrideCount) {
  // Detection drops reports and renormalizes with the kept count;
  // the override path must use exactly that count.
  const Grr grr(4, 1.0);
  Aggregator agg(grr);
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  for (int i = 0; i < 10; ++i) builder.AddValue(0);
  agg.AddAll(batch);
  const auto with_override = agg.EstimateFrequencies(20);
  const auto without = agg.EstimateFrequencies();
  EXPECT_LT(with_override[0], without[0]);  // larger n dilutes the count
}

TEST(AggregatorTest, EndToEndUnbiasedAcrossProtocols) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 6, 1.0);
    Rng rng(2);
    const size_t n = 20000;
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    for (size_t i = 0; i < n; ++i)
      proto->AppendGenuineReports(static_cast<ItemId>(i % 3), 1, rng, builder);
    Aggregator agg(*proto);
    agg.AddAll(batch);
    const auto freqs = agg.EstimateFrequencies();
    for (ItemId v = 0; v < 3; ++v)
      EXPECT_NEAR(freqs[v], 1.0 / 3.0, 0.05) << ProtocolKindName(kind) << v;
    for (ItemId v = 3; v < 6; ++v)
      EXPECT_NEAR(freqs[v], 0.0, 0.05) << ProtocolKindName(kind) << v;
  }
}

TEST(AggregatorDeathTest, SampledCountsSizeMustMatch) {
  const Grr grr(4, 1.0);
  Aggregator agg(grr);
  EXPECT_DEATH(agg.AddSampledCounts({1.0, 2.0}, 3), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
