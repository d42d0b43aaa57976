#include "ldp/olh.h"

#include <cmath>

#include "util/logging.h"
#include "util/simd.h"

namespace ldpr {

OlhBase::OlhBase(size_t d, double epsilon, uint32_t g)
    : FrequencyProtocol(d, epsilon), g_(g), mod_(g) {
  LDPR_CHECK(g_ >= 2);
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(g_) - 1.0);
  q_ = 1.0 / static_cast<double>(g_);
}

void OlhBase::AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                                   ReportBatch::Builder& out) const {
  LDPR_CHECK(item < d_);
  // All `count` users hold the same item, so the item-only xxHash
  // half computes once for the whole run; the per-seed finish plus
  // FastMod is bit-identical to Hash() (util/hash_family.h).
  const uint64_t round0 = XxHash64Round0(item);
  out.Reserve(count);
  for (uint64_t u = 0; u < count; ++u) {
    const uint64_t seed = rng.Next();
    const uint32_t hashed = static_cast<uint32_t>(
        mod_(XxHash64Key8WithRound0(round0, XxHash64SeedAcc(seed))));
    uint32_t value;
    // GRR over the g-sized hashed domain.
    if (rng.Bernoulli(p_)) {
      value = hashed;
    } else {
      uint64_t draw = rng.UniformU64(g_ - 1);
      if (draw >= hashed) ++draw;
      value = static_cast<uint32_t>(draw);
    }
    out.AddSeedValue(seed, value);
  }
}

void OlhBase::AppendCraftedReport(ItemId item, Rng& rng,
                                  ReportBatch::Builder& out) const {
  LDPR_CHECK(item < d_);
  const uint64_t seed = rng.Next();
  out.AddSeedValue(seed, static_cast<uint32_t>(mod_(XxHash64Key8(item, seed))));
}

void OlhBase::AccumulateSupportsBatch(const ReportBatch& batch,
                                      std::vector<double>& counts) const {
  LDPR_CHECK(counts.size() == d_);
  SimdOlhSupportAdd(batch.seeds(), batch.values(), batch.size(), d_, g_,
                    counts.data());
}

double OlhBase::CountVariance(double f, size_t n) const {
  (void)f;
  const double diff = p_ - q_;
  return static_cast<double>(n) * q_ * (1.0 - q_) / (diff * diff);
}

namespace {
uint32_t DefaultG(double epsilon, uint32_t g) {
  if (g != 0) return g;
  return static_cast<uint32_t>(std::ceil(std::exp(epsilon) + 1.0));
}
}  // namespace

Olh::Olh(size_t d, double epsilon, uint32_t g)
    : OlhBase(d, epsilon, DefaultG(epsilon, g)) {}

}  // namespace ldpr
