// Locks in the batched-aggregation contract of ldp/report_batch.h:
// every protocol's AccumulateSupportsBatch produces support counts
// byte-identical to the per-report oracle (tests/report_oracle.h),
// for every factory protocol, through the sharded and unsharded
// Aggregator routes, at batch sizes straddling the
// kReportsPerAggregationShard chunk boundary, and through the
// DetectionFilter's kept-report accumulation.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "ldp/factory.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "recover/detection.h"
#include "report_oracle.h"
#include "util/random.h"

namespace ldpr {
namespace {

// A mixed oracle-generated report stream: MGA-crafted reports plus
// genuine perturbed ones (the report-heavy hot path the batch layer
// exists for).
std::vector<Report> MakeReports(const FrequencyProtocol& proto, size_t n,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Report> reports;
  const size_t crafted = n / 3;
  if (crafted > 0) {
    reports = oracle::CraftMga(
        proto, MgaAttack::SampleTargets(proto.domain_size(), /*r=*/5, rng),
        crafted, rng);
  }
  for (size_t i = reports.size(); i < n; ++i) {
    reports.push_back(oracle::Perturb(
        proto, static_cast<ItemId>(i % proto.domain_size()), rng));
  }
  return reports;
}

TEST(AggregationBatchTest, BatchMatchesOracleForAllProtocols) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/37, /*epsilon=*/1.0);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300}}) {
      const std::vector<Report> reports = MakeReports(*proto, n, 11 + n);
      // operator== on vector<double> is bitwise equality here: all
      // entries are exact small integers.
      EXPECT_EQ(BatchSupportCounts(*proto, reports),
                oracle::SupportCounts(*proto, reports))
          << ProtocolKindName(kind) << " n=" << n;
    }
  }
}

TEST(AggregationBatchTest, GrrDenseAndSparseRegimesAgree) {
  // d chosen so n=300 takes the histogram branch and n=20 the direct
  // branch; both must match the oracle exactly.
  const auto grr = MakeProtocol(ProtocolKind::kGrr, 128, 0.5);
  for (size_t n : {size_t{20}, size_t{300}}) {
    const std::vector<Report> reports = MakeReports(*grr, n, 3);
    EXPECT_EQ(BatchSupportCounts(*grr, reports),
              oracle::SupportCounts(*grr, reports))
        << n;
  }
}

TEST(AggregationBatchTest, AggregatorRoutesMatchAtChunkBoundaries) {
  // Sizes straddling the kReportsPerAggregationShard boundary, odd on
  // purpose, across sharded and unsharded routes.
  const size_t chunk = kReportsPerAggregationShard;
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 23, 1.0);
  for (size_t n : {chunk - 1, chunk, chunk + 1, 2 * chunk + 13}) {
    const std::vector<Report> reports = MakeReports(*proto, n, n);
    const std::vector<double> reference =
        oracle::SupportCounts(*proto, reports);
    const ReportBatch batch = PackReports(reports);

    Aggregator unsharded(*proto);
    unsharded.AddAll(batch);
    EXPECT_EQ(unsharded.support_counts(), reference) << "AddAll n=" << n;
    EXPECT_EQ(unsharded.report_count(), n);

    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      Aggregator sharded(*proto);
      sharded.AddAllSharded(batch, shards);
      EXPECT_EQ(sharded.support_counts(), reference)
          << "AddAllSharded n=" << n << " shards=" << shards;
      EXPECT_EQ(sharded.report_count(), n);
    }
  }
}

TEST(AggregationBatchTest, ShardedMatchesOracleForSupportSetProtocols) {
  // Every factory protocol crosses the chunk boundary, at a smaller
  // domain (the O(d)-per-report oracle loop is the expensive part).
  const size_t chunk = kReportsPerAggregationShard;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 16, 1.0);
    const std::vector<Report> reports = MakeReports(*proto, chunk + 37, 7);
    Aggregator sharded(*proto);
    sharded.AddAllSharded(PackReports(reports), 3);
    EXPECT_EQ(sharded.support_counts(), oracle::SupportCounts(*proto, reports))
        << ProtocolKindName(kind);
  }
}

TEST(AggregationBatchTest, DetectionOfferAllMatchesOracleFilter) {
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 24, 1.0);
    Rng rng(9);
    const std::vector<ItemId> targets = {1, 5, 17};
    std::vector<Report> reports = oracle::CraftMga(*proto, targets, 150, rng);
    for (size_t i = 0; i < 400; ++i)
      reports.push_back(
          oracle::Perturb(*proto, static_cast<ItemId>(i % 24), rng));

    DetectionFilter batched(*proto, targets);
    batched.OfferAll(PackReports(reports));
    const std::vector<Report> survivors = oracle::DetectionSurvivors(
        *proto, targets, batched.threshold(), reports);

    EXPECT_EQ(batched.offered(), reports.size()) << ProtocolKindName(kind);
    EXPECT_EQ(batched.kept(), survivors.size()) << ProtocolKindName(kind);
    ASSERT_GT(batched.kept(), 0u) << ProtocolKindName(kind);
    EXPECT_EQ(batched.Estimate(),
              proto->EstimateFrequencies(
                  oracle::SupportCounts(*proto, survivors), survivors.size()))
        << ProtocolKindName(kind);
  }
}

TEST(ReportBatchTest, SliceViewsTheParentRows) {
  const auto oue = MakeProtocol(ProtocolKind::kOue, 9, 1.0);
  const std::vector<Report> reports = MakeReports(*oue, 30, 4);
  const ReportBatch batch = PackReports(reports);
  const ReportBatch view = batch.Slice(10, 25);
  ASSERT_EQ(view.size(), 15u);
  EXPECT_EQ(view.bits_width(), 9u);
  const std::vector<Report> unpacked = UnpackReports(view);
  for (size_t i = 0; i < unpacked.size(); ++i)
    EXPECT_EQ(unpacked[i].bits, reports[10 + i].bits) << i;
}

TEST(ReportBatchTest, ClearReusesAsFlushBuffer) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  builder.AddValue(2);
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  builder.SetBitsWidth(6);  // width re-learned after Clear
  builder.AddBitsRow()[3] = 1;
  EXPECT_EQ(batch.bits_width(), 6u);
  EXPECT_EQ(batch.bits_row(0)[3], 1);
}

TEST(ReportBatchDeathTest, RejectsMixedBitWidths) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  builder.SetBitsWidth(4);
  builder.AddBitsRow();
  EXPECT_DEATH(builder.AddSeedValue(1, 2), "LDPR_CHECK");
  EXPECT_DEATH(builder.SetBitsWidth(5), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
