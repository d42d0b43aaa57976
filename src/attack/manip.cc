#include "attack/manip.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ldpr {

void ManipAttack::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                             Rng& rng, ReportBatch::Builder& out) const {
  const size_t d = protocol.domain_size();
  const size_t h = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options_.domain_fraction *
                                          static_cast<double>(d))));
  LDPR_CHECK(h <= d);
  const std::vector<uint32_t> sub_domain = SampleWithoutReplacement(d, h, rng);
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = sub_domain[rng.UniformU64(sub_domain.size())];
    protocol.AppendCraftedReport(v, rng, out);
  }
}

}  // namespace ldpr
