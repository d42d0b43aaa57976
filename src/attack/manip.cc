#include "attack/manip.h"

#include <cmath>

namespace ldpr {

void ManipAttack::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                             Rng& rng, ReportBatch::Builder& out) const {
  const size_t d = protocol.domain_size();
  // llround rounds 0.5 away from zero, so h >= 1 for every d >= 1.
  const size_t h =
      static_cast<size_t>(std::llround(0.5 * static_cast<double>(d)));
  const std::vector<uint32_t> sub_domain = SampleWithoutReplacement(d, h, rng);
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = sub_domain[rng.UniformU64(sub_domain.size())];
    protocol.AppendCraftedReport(v, rng, out);
  }
}

}  // namespace ldpr
