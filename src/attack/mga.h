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
//             The search maps util/simd.h's LocalHashBlock::MaxLoads
//             over blocks of the trial's seed stream in parallel and
//             scans each block in order, which reproduces the serial
//             one-seed-at-a-time loop exactly: same reports, same Rng
//             position, at every thread count.

#ifndef LDPR_ATTACK_MGA_H_
#define LDPR_ATTACK_MGA_H_

#include "attack/attack.h"

namespace ldpr {

/// Random seeds tried per crafted OLH/BLH report (Cao, Jia & Gong).
inline constexpr size_t kMgaOlhSeedTries = 64;

/// Positions of the seed stream the OLH/BLH search draws and hashes
/// per block: 2048 reports' worth of tries, 2 MiB of scratch.
inline constexpr size_t kMgaSearchBlockSeeds = 2048 * kMgaOlhSeedTries;

class MgaAttack final : public Attack {
 public:
  /// `targets` must be non-empty and within the domain of every
  /// protocol this attack is used with.  `threads` is the pool budget
  /// of the OLH/BLH seed search (0 = auto, 1 = serial); the reports
  /// and the Rng position do not depend on it.
  explicit MgaAttack(std::vector<ItemId> targets, size_t threads = 1);

  std::vector<ItemId> targets() const override { return targets_; }

  /// GRR: one uniformly drawn target per report.  OUE/SUE: every
  /// target bit set in the packed row, padded with random bits up to
  /// the genuine 1-count.  OLH/BLH: the first seed, of up to
  /// kMgaOlhSeedTries drawn one per try, whose fullest bucket
  /// beats every earlier try's (stopping at one holding all r
  /// targets), emitted as (seed, lowest fullest bucket).  Report i+1's
  /// tries start where report i's stopped, so the tries of all m
  /// reports are one contiguous stretch of `rng`'s stream: blocks of
  /// up to kMgaSearchBlockSeeds seeds are drawn on a copy of `rng`,
  /// their max loads computed in parallel chunks, and the block
  /// scanned in order, in waves sized by the mean tries per report so
  /// far; `rng` then advances by exactly the tries made.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

  /// Picks r distinct random targets in {0, ..., d-1} — the paper's
  /// "randomly select target items" (Section VI-A3).
  static std::vector<ItemId> SampleTargets(size_t d, size_t r, Rng& rng);

 private:
  std::vector<ItemId> targets_;
  size_t threads_;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_MGA_H_
