// MGA: the Maximal Gain Attack of Cao, Jia & Gong (USENIX Security
// 2021) — the targeted poisoning attack the paper evaluates against.
//
// The attacker picks r target items T and crafts each malicious
// user's report so that it supports as many targets as the encoding
// permits:
//   * GRR   — a report carries one item, so each fake user sends one
//             target (uniformly over T, i.e. the paper's adaptive-
//             attack distribution with mass 1/r on each target);
//   * OUE   — the crafted bit vector sets the bit of *every* target,
//             then is padded with random non-target bits up to the
//             expected 1-count of a genuine report so that simple
//             length-based anomaly checks do not flag it;
//   * OLH   — the attacker searches up to kMgaOlhSeedTries random hash
//             seeds for one whose induced partition maps many targets
//             into a common bucket, then reports (seed, that bucket).
//             The search runs in blocks of 8 seeds through
//             util/simd.h's LocalHashBlock and reproduces the serial
//             one-seed-at-a-time loop exactly: same reports, same Rng
//             position.

#ifndef LDPR_ATTACK_MGA_H_
#define LDPR_ATTACK_MGA_H_

#include "attack/attack.h"

namespace ldpr {

/// Random seeds tried per crafted OLH/BLH report (Cao, Jia & Gong).
inline constexpr size_t kMgaOlhSeedTries = 64;

class MgaAttack final : public Attack {
 public:
  /// `targets` must be non-empty and within the domain of every
  /// protocol this attack is used with.
  explicit MgaAttack(std::vector<ItemId> targets);

  std::string Name() const override { return "MGA"; }
  std::vector<ItemId> targets() const override { return targets_; }

  /// GRR: one uniformly drawn target per report.  OUE/SUE: every
  /// target bit set in the packed row, padded with random bits up to
  /// the genuine 1-count.  OLH/BLH: the first seed, of up to
  /// kMgaOlhSeedTries drawn one per try, whose fullest bucket
  /// beats every earlier try's (stopping at one holding all r
  /// targets), emitted as (seed, lowest fullest bucket).  Tries are
  /// counted 8 at a time by LocalHashBlock on seeds drawn from a copy
  /// of `rng`; `rng` then advances by exactly the tries made.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

  /// Picks r distinct random targets in {0, ..., d-1} — the paper's
  /// "randomly select target items" (Section VI-A3).
  static std::vector<ItemId> SampleTargets(size_t d, size_t r, Rng& rng);

 private:
  std::vector<ItemId> targets_;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_MGA_H_
