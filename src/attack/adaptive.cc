#include "attack/adaptive.h"

#include "util/logging.h"

namespace ldpr {

AdaptiveAttack::AdaptiveAttack(std::vector<double> distribution)
    : distribution_(std::move(distribution)) {
  LDPR_CHECK(!distribution_->empty());
}

void AdaptiveAttack::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                                Rng& rng, ReportBatch::Builder& out) const {
  const size_t d = protocol.domain_size();
  std::vector<double> p;
  if (distribution_.has_value()) {
    LDPR_CHECK(distribution_->size() == d);
    p = *distribution_;
  } else {
    p = SampleRandomDistribution(d, rng);
  }
  const AliasSampler sampler(p);
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = static_cast<ItemId>(sampler.Sample(rng));
    protocol.AppendCraftedReport(v, rng, out);
  }
}

}  // namespace ldpr
