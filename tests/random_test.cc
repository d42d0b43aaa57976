#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformU64InRange) {
  Rng rng(7);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformU64(n), n);
  }
}

TEST(RngTest, UniformU64CoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i) ++seen[rng.UniformU64(5)];
  for (int count : seen) EXPECT_GT(count, 300);  // ~400 expected
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.015);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(23);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100u);
}

// Binomial mean/variance across the inversion (small np) and BTRS
// (large np) regimes, including the p > 0.5 flip path.
class BinomialMomentsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BinomialMomentsTest, MatchesTheoreticalMoments) {
  const auto [n, p] = GetParam();
  Rng rng(29);
  const int kSamples = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(rng.Binomial(n, p));
    ASSERT_LE(x, static_cast<double>(n));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  const double expect_mean = static_cast<double>(n) * p;
  const double expect_var = static_cast<double>(n) * p * (1.0 - p);
  // 6-sigma tolerance on the sample mean, generous on variance.
  const double mean_tol =
      6.0 * std::sqrt(expect_var / kSamples) + 1e-9;
  EXPECT_NEAR(mean, expect_mean, mean_tol) << "n=" << n << " p=" << p;
  EXPECT_NEAR(var, expect_var, 0.12 * expect_var + 0.05)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(std::make_tuple(20ULL, 0.1),      // inversion
                      std::make_tuple(50ULL, 0.5),      // BTRS boundary
                      std::make_tuple(1000ULL, 0.02),   // BTRS
                      std::make_tuple(1000ULL, 0.97),   // flip + inversion
                      std::make_tuple(100000ULL, 0.3),  // big BTRS
                      std::make_tuple(389894ULL, 0.05)));  // IPUMS scale

// Rng::Binomial as it stood before the early-zero inversion test:
// every small-n*p draw evaluated pow(q, n) before its one uniform.  It
// shares no code with Rng::Binomial, only Rng::UniformDouble, so the
// draw-for-draw tests below hold the production sampler to the same
// values and the same RNG consumption.
namespace reference {

double StirlingTail(double k) {
  static constexpr double kTail[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTail[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

uint64_t Inversion(uint64_t n, double p, Rng& rng) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = rng.UniformDouble();
  uint64_t x = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x > n) return n;
    r *= (a / static_cast<double>(x)) - s;
  }
  return x;
}

uint64_t Btrs(uint64_t n, double p, Rng& rng) {
  const double nd = static_cast<double>(n);
  const double stddev = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);
  for (;;) {
    const double u = rng.UniformDouble() - 0.5;
    double v = rng.UniformDouble();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (us >= 0.07 && v <= v_r) return static_cast<uint64_t>(k);
    if (k < 0.0 || k > nd) continue;
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - k + 1.0)) +
        (k + 0.5) * std::log(r * (nd - k + 1.0) / (k + 1.0)) +
        StirlingTail(m) + StirlingTail(nd - m) - StirlingTail(k) -
        StirlingTail(nd - k);
    if (v <= upper) return static_cast<uint64_t>(k);
  }
}

uint64_t Binomial(uint64_t n, double p, Rng& rng) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flip = p > 0.5;
  const double pp = flip ? 1.0 - p : p;
  const double np = static_cast<double>(n) * pp;
  const uint64_t x = (np < 10.0) ? Inversion(n, pp, rng) : Btrs(n, pp, rng);
  return flip ? n - x : x;
}

}  // namespace reference

// At least 10^6 draws per regime.
constexpr int64_t kDrawsPerRegime = int64_t{1} << 20;

// Draws Binomial(n, p) from two equally seeded generators, one through
// Rng::Binomial and one through the reference, for each (n, p) that
// `next_params(previous_draw)` yields, and checks that the values and
// the Next() output after every draw agree.
template <typename NextParams>
void ExpectDrawForDraw(uint64_t seed, int64_t draws, NextParams next_params) {
  Rng fast(seed);
  Rng ref(seed);
  uint64_t previous = 0;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < draws; ++i) {
    const std::pair<uint64_t, double> params = next_params(previous);
    const uint64_t n = params.first;
    const double p = params.second;
    const uint64_t got = fast.Binomial(n, p);
    const uint64_t want = reference::Binomial(n, p, ref);
    const uint64_t got_next = fast.Next();
    const uint64_t want_next = ref.Next();
    if (got != want || got_next != want_next) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "draw " << i << ": Binomial(" << n << ", " << p
                      << ") = " << got << " (reference " << want << ")"
                      << (got_next != want_next ? ", streams diverged" : "");
      }
      fast = ref;  // resynchronise so later draws are still checked
    }
    previous = want;
  }
  EXPECT_EQ(mismatches, 0);
}

// Cycles through a fixed list of (n, p) pairs.
std::pair<uint64_t, double> Cycle(
    const std::vector<std::pair<uint64_t, double>>& params, size_t& at) {
  const std::pair<uint64_t, double> out = params[at];
  at = (at + 1) % params.size();
  return out;
}

class BinomialDrawForDrawTest : public ::testing::TestWithParam<uint64_t> {};

// Each n against p from 1e-15 to 1 - 1e-9, so a large n covers n*p from
// ~1e-6 (early zero almost always) up into BTRS and the p > 0.5 flip.
TEST_P(BinomialDrawForDrawTest, AcrossP) {
  const uint64_t n = GetParam();
  std::vector<std::pair<uint64_t, double>> params;
  for (int k = 0; k <= 60; ++k) {
    params.emplace_back(n, std::pow(10.0, -15.0 + k / 4.0));
  }
  for (double p : {0.5, 0.7, 0.9, 0.999, 1.0 - 1e-9}) params.emplace_back(n, p);
  size_t at = 0;
  ExpectDrawForDraw(n, kDrawsPerRegime,
                    [&](uint64_t) { return Cycle(params, at); });
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinomialDrawForDrawTest,
                         ::testing::Values(1ULL, 2ULL, 24ULL, 1000ULL,
                                           1000000ULL, 1000000000ULL));

// n*p a few ulps and a few parts per billion either side of `np`, for
// n from 24 to 10^9.  Around 1 the early-zero bound is close to 0;
// around 10 the sampler switches between inversion and BTRS.
void ExpectDrawForDrawAround(double np, uint64_t seed) {
  std::vector<std::pair<uint64_t, double>> params;
  for (uint64_t n : {24ULL, 1000ULL, 1000000ULL, 1000000000ULL}) {
    const double p = np / static_cast<double>(n);
    double below = p;
    double above = p;
    params.emplace_back(n, p);
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      params.emplace_back(n, below);
      params.emplace_back(n, above);
    }
    for (double rel : {1e-15, 1e-12, 1e-9, 1e-6}) {
      params.emplace_back(n, p * (1.0 - rel));
      params.emplace_back(n, p * (1.0 + rel));
    }
  }
  size_t at = 0;
  ExpectDrawForDraw(seed, kDrawsPerRegime,
                    [&](uint64_t) { return Cycle(params, at); });
}

TEST(BinomialDrawForDrawTest, NpAroundOne) { ExpectDrawForDrawAround(1.0, 41); }

TEST(BinomialDrawForDrawTest, NpAroundTen) {
  ExpectDrawForDrawAround(10.0, 43);
}

TEST(BinomialDrawForDrawTest, PExactlyHalf) {
  std::vector<std::pair<uint64_t, double>> params;
  for (uint64_t n = 1; n <= 40; ++n) params.emplace_back(n, 0.5);
  for (uint64_t n : {1000ULL, 1000000ULL, 1000000000ULL}) {
    params.emplace_back(n, 0.5);
  }
  size_t at = 0;
  ExpectDrawForDraw(47, kDrawsPerRegime,
                    [&](uint64_t) { return Cycle(params, at); });
}

// The sequence GRR's uniform spread draws: bin j of B gets
// Binomial(remaining, 1 / (B - j)), until one bin is left or nothing
// remains, for several domain sizes and misreport counts.
TEST(BinomialDrawForDrawTest, UniformSpreadSequence) {
  const std::vector<uint64_t> bins = {5, 2047, 4095};
  const std::vector<uint64_t> misreports = {1, 3, 40, 700, 20000, 90000};
  size_t bins_at = 0;
  size_t misreports_at = 0;
  uint64_t remaining = 0;
  double remaining_weight = 0.0;
  ExpectDrawForDraw(53, kDrawsPerRegime, [&](uint64_t previous) {
    remaining -= previous;
    remaining_weight -= 1.0;
    if (remaining == 0 || remaining_weight < 2.0) {
      remaining = misreports[misreports_at];
      remaining_weight = static_cast<double>(bins[bins_at]);
      misreports_at = (misreports_at + 1) % misreports.size();
      if (misreports_at == 0) bins_at = (bins_at + 1) % bins.size();
    }
    return std::make_pair(remaining, 1.0 / remaining_weight);
  });
}

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler s({2.0, 6.0});
  EXPECT_DOUBLE_EQ(s.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(s.probability(1), 0.75);
}

TEST(AliasSamplerTest, MatchesDistribution) {
  const std::vector<double> w = {0.1, 0.0, 0.4, 0.5};
  AliasSampler s(w);
  Rng rng(37);
  std::vector<int> counts(4, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[s.Sample(rng)];
  EXPECT_EQ(counts[1], 0);  // zero-weight item never drawn
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples, w[i], 0.01);
  }
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler s(std::vector<double>{3.0});
  Rng rng(41);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.Sample(rng), 0u);
}

TEST(ZipfSamplerTest, ProbabilitiesDecreaseAndSumToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    total += z.probability(i);
    if (i > 0) {
      EXPECT_LT(z.probability(i), z.probability(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, HeadIsHeavy) {
  ZipfSampler z(1000, 1.2);
  Rng rng(43);
  int head = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) head += (z.Sample(rng) < 10) ? 1 : 0;
  // With s=1.2 the top-10 mass is > 55%.
  EXPECT_GT(head, kSamples / 2);
}

TEST(SampleMultinomialTest, ConservesTotal) {
  Rng rng(47);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  for (uint64_t n : {0ULL, 1ULL, 10ULL, 12345ULL}) {
    const auto counts = SampleMultinomial(n, w, rng);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ULL), n);
  }
}

TEST(SampleMultinomialTest, MatchesProportions) {
  Rng rng(53);
  const std::vector<double> w = {1.0, 3.0};
  const auto counts = SampleMultinomial(100000, w, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 100000.0, 0.25, 0.01);
}

TEST(SampleMultinomialTest, ZeroWeightBinGetsNothing) {
  Rng rng(59);
  const auto counts = SampleMultinomial(10000, {1.0, 0.0, 1.0}, rng);
  EXPECT_EQ(counts[1], 0ULL);
}

TEST(SampleRandomDistributionTest, IsProbabilityVector) {
  Rng rng(61);
  for (int i = 0; i < 20; ++i) {
    const auto p = SampleRandomDistribution(50, rng);
    double total = 0.0;
    for (double x : p) {
      EXPECT_GT(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SampleRandomDistributionTest, MeanIsUniform) {
  Rng rng(67);
  const size_t d = 10;
  std::vector<double> mean(d, 0.0);
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    const auto p = SampleRandomDistribution(d, rng);
    for (size_t v = 0; v < d; ++v) mean[v] += p[v];
  }
  for (size_t v = 0; v < d; ++v) EXPECT_NEAR(mean[v] / kDraws, 0.1, 0.01);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(71);
  const auto pick = SampleWithoutReplacement(100, 30, rng);
  EXPECT_EQ(pick.size(), 30u);
  std::vector<uint32_t> sorted = pick;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (uint32_t v : pick) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacementTest, FullDomainIsPermutation) {
  Rng rng(73);
  auto pick = SampleWithoutReplacement(10, 10, rng);
  std::sort(pick.begin(), pick.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(pick[i], i);
}

}  // namespace
}  // namespace ldpr
