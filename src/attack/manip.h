// Manip: the untargeted manipulation attack of Cheu, Smith & Ullman
// (S&P 2021), as instantiated in Section VI-A3 of the paper: the
// attacker samples a malicious sub-domain H of half of D, then draws
// each malicious user's value uniformly from H and sends the crafted
// encoded report directly (bypassing perturbation).  The effect is an
// indiscriminate distortion of the aggregated distribution.

#ifndef LDPR_ATTACK_MANIP_H_
#define LDPR_ATTACK_MANIP_H_

#include "attack/attack.h"

namespace ldpr {

class ManipAttack final : public Attack {
 public:
  /// Samples H, round(d / 2) distinct items, once per call, then m
  /// uniform values from H, appending a maximally-supporting crafted
  /// report (AppendCraftedReport) for each.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_MANIP_H_
