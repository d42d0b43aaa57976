#include "attack/ipa.h"

#include "util/logging.h"

namespace ldpr {

InputPoisoningAttack::InputPoisoningAttack(
    std::vector<double> input_distribution, std::vector<ItemId> targets)
    : input_distribution_(std::move(input_distribution)),
      targets_(std::move(targets)) {
  LDPR_CHECK(!input_distribution_.empty());
}

void InputPoisoningAttack::CraftBatch(const FrequencyProtocol& protocol,
                                      size_t m, Rng& rng,
                                      ReportBatch::Builder& out) const {
  LDPR_CHECK(input_distribution_.size() == protocol.domain_size());
  const AliasSampler sampler(input_distribution_);
  for (size_t i = 0; i < m; ++i) {
    const ItemId v = static_cast<ItemId>(sampler.Sample(rng));
    protocol.AppendGenuineReports(v, 1, rng, out);  // honest perturbation
  }
}

std::unique_ptr<InputPoisoningAttack> MakeMgaIpa(size_t d,
                                                 std::vector<ItemId> targets) {
  LDPR_CHECK(!targets.empty());
  std::vector<double> dist(d, 0.0);
  for (ItemId t : targets) {
    LDPR_CHECK(t < d);
    dist[t] = 1.0;
  }
  return std::make_unique<InputPoisoningAttack>(std::move(dist),
                                                std::move(targets));
}

}  // namespace ldpr
