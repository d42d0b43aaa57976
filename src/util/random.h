// Deterministic PRNG stack used throughout the library.
//
// All randomness flows through ldpr::Rng, a xoshiro256** engine seeded
// via SplitMix64.  Experiments take explicit seeds so that every table
// and figure in the paper reproduction is bit-reproducible.
//
// On top of the raw engine this header provides the samplers the
// protocols and attacks need: uniform integers/reals, Bernoulli,
// Binomial, an O(1) alias-method sampler for arbitrary discrete
// distributions (used by the adaptive attack), and a Zipf sampler
// (used by the synthetic dataset generators).

#ifndef LDPR_UTIL_RANDOM_H_
#define LDPR_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace ldpr {

/// SplitMix64: a tiny, high-quality 64-bit mixer.  Used to expand one
/// user-provided seed into the four words of xoshiro state, and as a
/// stateless hash in tests.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value in the sequence.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// xoshiro256**: fast, high-quality general-purpose 64-bit PRNG
/// (Blackman & Vigna).  Satisfies std::uniform_random_bit_generator,
/// so it can drive <random> distributions as well.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four state words by iterating SplitMix64 over `seed`.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next raw 64-bit output.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n).  Uses Lemire's unbiased multiply-shift
  /// rejection method.  Requires n > 0.  Inline: the per-report
  /// generators (GRR values, MGA padding, shuffles) call it in their
  /// innermost loops.
  uint64_t UniformU64(uint64_t n) {
    LDPR_CHECK(n > 0);
    // Lemire's nearly-divisionless unbiased bounded sampling.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < n) {
      const uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw: true with probability p (clamped to [0,1]).  A
  /// p strictly inside (0, 1) consumes one uniform; p <= 0 or p >= 1
  /// consumes none.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Binomial(n, p) draw.
  ///
  /// Uses inversion for small n*p and the BTRS transformed-rejection
  /// algorithm (Hormann 1993) otherwise, so sampling counts for
  /// hundreds of thousands of users is O(1) per item instead of
  /// O(n).  An inversion draw whose uniform falls clearly below
  /// P(X = 0) returns 0 without evaluating pow(), so a draw with
  /// n*p << 1 costs one uniform and one compare.  Self-contained:
  /// never calls libc lgamma, whose glibc implementation writes the
  /// global signgam — important because sharded aggregation samples
  /// binomials from many threads at once.
  uint64_t Binomial(uint64_t n, double p) {
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    const bool flip = p > 0.5;
    const double pp = flip ? 1.0 - p : p;
    const double nd = static_cast<double>(n);
    const double np = nd * pp;
    uint64_t x = 0;
    if (np < 10.0) {
      const double u = UniformDouble();
      // The CDF search returns 0 iff u <= r = pow(fl(1 - pp), n).
      // Bernoulli's inequality gives (1 - pp)^n >= 1 - n*pp.  fl(1 - pp)
      // is off by at most 2^-54, which costs n * 2^-54 after the
      // power; pow is within 1 ulp (<= 2^-53 here); and forming np and
      // this bound rounds by a few 2^-53 more.  The margin
      // (n + 2) * 2^-50 exceeds their sum, so below the bound the
      // search would stop at its first test with the same u: skipping
      // it changes no value and, like the search, consumes exactly one
      // uniform.  FMA contraction only removes roundings.
      if (u >= 1.0 - np - (nd + 2.0) * 0x1.0p-50) {
        x = BinomialInversion(n, pp, u);
      }
    } else {
      x = BinomialBtrs(n, pp);
    }
    return flip ? n - x : x;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Sequential search on the CDF of Binomial(n, p) for the uniform
  /// `u` (p <= 0.5, n*p < 10); O(n*p) expected iterations.
  static uint64_t BinomialInversion(uint64_t n, double p, double u);
  uint64_t BinomialBtrs(uint64_t n, double p);

  uint64_t s_[4];
};

/// Alias-method sampler: O(d) build, O(1) sample from an arbitrary
/// discrete distribution over {0, ..., d-1}.
///
/// The adaptive attack samples millions of malicious reports from an
/// attacker-designed distribution; the alias method keeps that linear
/// in the number of reports rather than in d * reports.
class AliasSampler {
 public:
  /// Builds the sampler from (unnormalized, non-negative) weights.
  /// At least one weight must be positive.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index distributed proportionally to the weights.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /// Normalized probability of index i (for tests / introspection).
  double probability(size_t i) const { return normalized_[i]; }

 private:
  std::vector<double> prob_;       // acceptance probability per column
  std::vector<uint32_t> alias_;    // alias column
  std::vector<double> normalized_; // normalized input distribution
};

/// Zipf(s) sampler over {0, ..., d-1}: P(i) proportional to 1/(i+1)^s.
/// Implemented on top of AliasSampler (d is at most a few thousand in
/// this library, so the O(d) table is cheap).
class ZipfSampler {
 public:
  ZipfSampler(size_t d, double s);

  size_t Sample(Rng& rng) const { return alias_.Sample(rng); }

  /// The exact probability mass of item i.
  double probability(size_t i) const { return alias_.probability(i); }

  size_t size() const { return alias_.size(); }

 private:
  static std::vector<double> MakeWeights(size_t d, double s);
  AliasSampler alias_;
};

/// Samples a multinomial allocation: distributes `n` balls over bins
/// with the given (normalized or unnormalized) weights, using
/// conditional binomials.  O(bins) time, exact distribution.
std::vector<uint64_t> SampleMultinomial(uint64_t n,
                                        const std::vector<double>& weights,
                                        Rng& rng);

/// Samples a uniformly random probability vector over d items
/// (flat Dirichlet) — the paper's "randomly generated attacker-designed
/// distribution" for the adaptive attack.
std::vector<double> SampleRandomDistribution(size_t d, Rng& rng);

/// Samples k distinct indices uniformly from {0, ..., d-1}
/// (partial Fisher-Yates).  Requires k <= d.
std::vector<uint32_t> SampleWithoutReplacement(size_t d, size_t k, Rng& rng);

/// Counter-based seed derivation: collapses (seed, stream) into one
/// well-mixed 64-bit seed via two SplitMix64 rounds, in O(1).
///
/// This is how the parallel experiment engine gives every trial its
/// own statistically independent RNG stream: trial t of an
/// experiment seeded with s runs on Rng(DeriveSeed(s, t)).  Because
/// the derivation depends only on (s, t) — never on execution order —
/// results are bit-identical at any thread count.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace ldpr

#endif  // LDPR_UTIL_RANDOM_H_
