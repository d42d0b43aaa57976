// Manip: the untargeted manipulation attack of Cheu, Smith & Ullman
// (S&P 2021), as instantiated in Section VI-A3 of the paper: the
// attacker samples a malicious sub-domain H of D, then draws each
// malicious user's value uniformly from H and sends the crafted
// encoded report directly (bypassing perturbation).  The effect is an
// indiscriminate distortion of the aggregated distribution.

#ifndef LDPR_ATTACK_MANIP_H_
#define LDPR_ATTACK_MANIP_H_

#include "attack/attack.h"

namespace ldpr {

/// Options of the Manip attack.
struct ManipOptions {
  /// |H| / |D|: fraction of the domain included in the malicious
  /// sub-domain (at least one item is always included).
  double domain_fraction = 0.5;
};

class ManipAttack final : public Attack {
 public:
  explicit ManipAttack(ManipOptions options = ManipOptions())
      : options_(options) {}

  std::string Name() const override { return "Manip"; }

  /// Samples H once per call, then m uniform values from H, appending
  /// a maximally-supporting crafted report (AppendCraftedReport) for
  /// each.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

 private:
  ManipOptions options_;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_MANIP_H_
