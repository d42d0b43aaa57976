#include "attack/multi_attacker.h"

#include <algorithm>

#include "attack/adaptive.h"
#include "util/logging.h"

namespace ldpr {

MultiAttacker::MultiAttacker(std::vector<std::unique_ptr<Attack>> attackers)
    : attackers_(std::move(attackers)) {
  LDPR_CHECK(!attackers_.empty());
  for (const auto& a : attackers_) LDPR_CHECK(a != nullptr);
}

std::vector<ItemId> MultiAttacker::targets() const {
  std::vector<ItemId> all;
  for (const auto& a : attackers_) {
    const std::vector<ItemId> t = a->targets();
    all.insert(all.end(), t.begin(), t.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

void MultiAttacker::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                               Rng& rng, ReportBatch::Builder& out) const {
  // Assign each malicious user to an attacker uniformly at random.
  const std::vector<double> uniform(attackers_.size(), 1.0);
  const std::vector<uint64_t> shares = SampleMultinomial(m, uniform, rng);
  for (size_t a = 0; a < attackers_.size(); ++a)
    attackers_[a]->CraftBatch(protocol, shares[a], rng, out);
}

std::unique_ptr<MultiAttacker> MakeMultiAdaptive() {
  std::vector<std::unique_ptr<Attack>> attackers;
  attackers.reserve(kMultiAdaptiveAttackers);
  for (size_t i = 0; i < kMultiAdaptiveAttackers; ++i)
    attackers.push_back(std::make_unique<AdaptiveAttack>());
  return std::make_unique<MultiAttacker>(std::move(attackers));
}

}  // namespace ldpr
