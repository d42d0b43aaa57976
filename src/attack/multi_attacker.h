// Multi-attacker composition (Section VII-C of the paper): several
// independent attackers each control a share of the malicious users.
// The paper observes this is equivalent to a single attacker sampling
// from the mixture of the individual attacker-designed distributions,
// so LDPRecover applies unchanged; Figure 10 verifies it empirically
// with five adaptive attackers.

#ifndef LDPR_ATTACK_MULTI_ATTACKER_H_
#define LDPR_ATTACK_MULTI_ATTACKER_H_

#include <memory>

#include "attack/attack.h"

namespace ldpr {

class MultiAttacker final : public Attack {
 public:
  /// Takes ownership of the component attacks.  Malicious users are
  /// assigned to attackers uniformly at random (multinomially), as in
  /// the paper's "randomly assign malicious users to these attackers".
  explicit MultiAttacker(std::vector<std::unique_ptr<Attack>> attackers);

  /// Union of the component attacks' targets (deduplicated).
  std::vector<ItemId> targets() const override;

  /// Draws each attacker's share of the m users (multinomially), then
  /// appends each attacker's CraftBatch in attacker order.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

  size_t attacker_count() const { return attackers_.size(); }

 private:
  std::vector<std::unique_ptr<Attack>> attackers_;
};

/// Adaptive attackers in the MUL-AA attack (the paper's Figure 10).
inline constexpr size_t kMultiAdaptiveAttackers = 5;

/// MUL-AA: kMultiAdaptiveAttackers independent adaptive attackers.
std::unique_ptr<MultiAttacker> MakeMultiAdaptive();

}  // namespace ldpr

#endif  // LDPR_ATTACK_MULTI_ATTACKER_H_
