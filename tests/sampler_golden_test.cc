// Golden streams of the genuine-population samplers.  The closed-form
// laws are checked statistically elsewhere (grr/oue/olh/sue_blh and
// sim_equivalence tests), and a statistical check passes under any
// reordering of the random draws.  These cases pin the exact support
// counts and the next Rng output after the draw, for the full
// population and for one canonical user range, so a refactor of the
// samplers has to keep every protocol's RNG stream draw for draw.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
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
        << protocol->Name() << " n=" << c.item_counts[0];
    EXPECT_EQ(rng.Next(), c.full.next) << protocol->Name();
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
        << protocol->Name() << " n=" << n;
    EXPECT_EQ(rng.Next(), c.range.next) << protocol->Name();
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

}  // namespace
}  // namespace ldpr
