// Golden streams of the genuine-population samplers and of per-report
// generation.  The closed-form laws are checked statistically
// elsewhere (grr/oue/olh/sue_blh and sim_equivalence tests), and a
// statistical check passes under any reordering of the random draws.
// These cases pin the exact support counts and the next Rng output
// after the draw, for the full population and for one canonical user
// range, so a refactor of the samplers has to keep every protocol's
// RNG stream draw for draw.  The report-generation cases pin
// AppendGenuineReports, MGA crafting and MGA-IPA crafting the same
// way, as a checksum of the batch's fields.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "attack/ipa.h"
#include "attack/mga.h"
#include "data/synthetic.h"
#include "ldp/factory.h"
#include "ldp/report_batch.h"
#include "util/random.h"

namespace ldpr {
namespace {

constexpr double kEpsilon = 1.0;
constexpr uint64_t kSeed = 2024;

struct GoldenDraw {
  std::vector<double> counts;
  uint64_t next;
};

struct GoldenCase {
  ProtocolKind kind;
  std::vector<uint64_t> item_counts;
  GoldenDraw full;   // SampleSupportCounts
  GoldenDraw range;  // SampleSupportCountsRange over [n/5, n - n/4)
};

const std::vector<uint64_t> kSmall = {7, 0, 3, 12, 1, 5};
const std::vector<uint64_t> kLarge = {4000, 0, 250, 9000, 37, 1200};

const GoldenCase kCases[] = {
    {ProtocolKind::kGrr, kSmall,
     {{5, 4, 1, 7, 7, 4}, 8854820714165103459u},
     {{3, 3, 0, 6, 2, 2}, 3503152987054942469u}},
    {ProtocolKind::kOue, kSmall,
     {{8, 4, 9, 9, 8, 8}, 17187374648083966851u},
     {{5, 2, 6, 5, 3, 4}, 934651160063433124u}},
    {ProtocolKind::kOlh, kSmall,
     {{8, 4, 9, 7, 7, 8}, 17187374648083966851u},
     {{5, 2, 5, 5, 3, 4}, 934651160063433124u}},
    {ProtocolKind::kSue, kSmall,
     {{16, 6, 9, 13, 10, 9}, 12040692541950452454u},
     {{9, 3, 9, 10, 5, 6}, 934651160063433124u}},
    {ProtocolKind::kBlh, kSmall,
     {{20, 12, 16, 19, 12, 19}, 11975722550126928401u},
     {{10, 5, 11, 11, 7, 8}, 934651160063433124u}},
    {ProtocolKind::kGrr, kLarge,
     {{2718, 1843, 1952, 3878, 1934, 2162}, 13501086278990498255u},
     {{1248, 1022, 1089, 2506, 1074, 1030}, 1052166744257669394u}},
    {ProtocolKind::kOue, kLarge,
     {{4671, 3941, 3960, 6052, 3960, 4132}, 8854820714165103459u},
     {{2297, 2177, 2205, 3742, 2183, 2160}, 3590908193349579406u}},
    {ProtocolKind::kOlh, kLarge,
     {{4376, 3666, 3684, 5742, 3675, 3851}, 8854820714165103459u},
     {{2241, 1981, 2102, 3533, 2009, 1955}, 8854820714165103459u}},
    {ProtocolKind::kSue, kLarge,
     {{6424, 5519, 5542, 7693, 5533, 5702}, 8854820714165103459u},
     {{3239, 3045, 3079, 4590, 3052, 3027}, 3590908193349579406u}},
    {ProtocolKind::kBlh, kLarge,
     {{8133, 7294, 7313, 9346, 7190, 7497}, 5607606768220792973u},
     {{4194, 4022, 4052, 5479, 4029, 4004}, 3590908193349579406u}},
};

TEST(SamplerGoldenTest, FullPopulationStreamsArePinned) {
  for (const GoldenCase& c : kCases) {
    const auto protocol = MakeProtocol(c.kind, c.item_counts.size(), kEpsilon);
    Rng rng(kSeed);
    EXPECT_EQ(protocol->SampleSupportCounts(c.item_counts, rng), c.full.counts)
        << ProtocolKindName(c.kind) << " n=" << c.item_counts[0];
    EXPECT_EQ(rng.Next(), c.full.next) << ProtocolKindName(c.kind);
  }
}

TEST(SamplerGoldenTest, UserRangeStreamsArePinned) {
  for (const GoldenCase& c : kCases) {
    const auto protocol = MakeProtocol(c.kind, c.item_counts.size(), kEpsilon);
    uint64_t n = 0;
    for (uint64_t count : c.item_counts) n += count;
    Rng rng(kSeed);
    EXPECT_EQ(protocol->SampleSupportCountsRange(c.item_counts, n / 5,
                                                 n - n / 4, rng),
              c.range.counts)
        << ProtocolKindName(c.kind) << " n=" << n;
    EXPECT_EQ(rng.Next(), c.range.next) << ProtocolKindName(c.kind);
  }
}

// GRR's spread of misreports walks up to d - 1 bins per item, so the
// d = 6 cases above never run a long spread loop.  This case does:
// d = 2048 zipf (the scenario runner's s = 1.0, shuffle seed 17),
// n = 100,000.  It pins sum_i (i + 1) * count(i) and the next Rng
// output; the values were recorded with the pow-per-bin sampler that
// preceded the early-zero binomial inversion.
double IndexWeightedSum(const std::vector<double>& counts) {
  double sum = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    sum += static_cast<double>(i + 1) * counts[i];
  }
  return sum;
}

TEST(SamplerGoldenTest, LargeDomainGrrStreamsArePinned) {
  constexpr size_t kDomain = 2048;
  constexpr uint64_t kUsers = 100000;
  const std::vector<uint64_t> item_counts =
      MakeZipfDataset("zipf", kDomain, kUsers, /*s=*/1.0,
                      /*shuffle_seed=*/17)
          .item_counts;
  const auto protocol = MakeProtocol(ProtocolKind::kGrr, kDomain, kEpsilon);

  Rng rng(kSeed);
  EXPECT_EQ(IndexWeightedSum(protocol->SampleSupportCounts(item_counts, rng)),
            102193968.0);
  EXPECT_EQ(rng.Next(), 6463656683687139058u);

  rng = Rng(kSeed);
  EXPECT_EQ(IndexWeightedSum(protocol->SampleSupportCountsRange(
                item_counts, kUsers / 5, kUsers - kUsers / 4, rng)),
            56329937.0);
  EXPECT_EQ(rng.Next(), 2136772376594975254u);
}

// FNV-1a over the batch's shape and every SoA field, report by report.
uint64_t BatchChecksum(const ReportBatch& batch) {
  uint64_t h = 14695981039346656037u;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211u;
  };
  mix(batch.size());
  mix(batch.bits_width());
  for (size_t i = 0; i < batch.size(); ++i) {
    mix(batch.seeds()[i]);
    mix(batch.values()[i]);
    for (size_t j = 0; j < batch.bits_width(); ++j) mix(batch.bits_row(i)[j]);
  }
  return h;
}

struct GoldenBatch {
  uint64_t checksum;
  uint64_t next;
};

struct ReportGoldenCase {
  ProtocolKind kind;
  GoldenBatch genuine;  // AppendGenuineReports
  GoldenBatch mga;      // MgaAttack::CraftBatch
  GoldenBatch ipa;      // MGA-IPA CraftBatch
};

// d = 102 (the IPUMS domain), so MGA pads OUE/SUE rows to about 28
// ones around three targets.
constexpr size_t kReportDomain = 102;
const std::vector<ItemId> kReportTargets = {3, 50, 99};

const ReportGoldenCase kReportCases[] = {
    {ProtocolKind::kGrr,
     {12734006760420113681u, 17259763756404977537u},
     {14950977037501460890u, 15390433119108425909u},
     {1030127444554070729u, 11758173010701112031u}},
    {ProtocolKind::kOue,
     {9817087358655369210u, 16297997289116422882u},
     {16536360355732512537u, 8742689495217688155u},
     {16637049994877561358u, 10058159183713595976u}},
    {ProtocolKind::kOlh,
     {544614986232594287u, 7357441134993309456u},
     {3914806952282683201u, 14331184546715320456u},
     {9555570539312373133u, 856744006591391404u}},
    {ProtocolKind::kSue,
     {13711242415239985862u, 16297997289116422882u},
     {13054318501557647317u, 3706146999429347484u},
     {957651576435541662u, 10058159183713595976u}},
    {ProtocolKind::kBlh,
     {9015608308711423016u, 18248627071480079444u},
     {6324663736432706164u, 3109616943421860674u},
     {12407015325737704803u, 10068114551620042977u}},
};

TEST(ReportGoldenTest, GenuineReportsArePinned) {
  for (const ReportGoldenCase& c : kReportCases) {
    const auto protocol = MakeProtocol(c.kind, kReportDomain, kEpsilon);
    Rng rng(kSeed);
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    for (ItemId item : {0u, 7u, 101u})
      protocol->AppendGenuineReports(item, 40, rng, builder);
    EXPECT_EQ(BatchChecksum(batch), c.genuine.checksum)
        << ProtocolKindName(c.kind);
    EXPECT_EQ(rng.Next(), c.genuine.next) << ProtocolKindName(c.kind);
  }
}

TEST(ReportGoldenTest, MgaCraftingIsPinned) {
  const MgaAttack attack(kReportTargets);
  for (const ReportGoldenCase& c : kReportCases) {
    const auto protocol = MakeProtocol(c.kind, kReportDomain, kEpsilon);
    Rng rng(kSeed);
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    attack.CraftBatch(*protocol, 200, rng, builder);
    EXPECT_EQ(BatchChecksum(batch), c.mga.checksum) << ProtocolKindName(c.kind);
    EXPECT_EQ(rng.Next(), c.mga.next) << ProtocolKindName(c.kind);
  }
}

TEST(ReportGoldenTest, MgaIpaCraftingIsPinned) {
  const auto attack = MakeMgaIpa(kReportDomain, kReportTargets);
  for (const ReportGoldenCase& c : kReportCases) {
    const auto protocol = MakeProtocol(c.kind, kReportDomain, kEpsilon);
    Rng rng(kSeed);
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    attack->CraftBatch(*protocol, 200, rng, builder);
    EXPECT_EQ(BatchChecksum(batch), c.ipa.checksum) << ProtocolKindName(c.kind);
    EXPECT_EQ(rng.Next(), c.ipa.next) << ProtocolKindName(c.kind);
  }
}

}  // namespace
}  // namespace ldpr
