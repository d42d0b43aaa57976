// Historical-frequency outlier detection (Section V-D of the paper).
//
// Targeted attacks inflate their targets enough to make them
// statistical outliers against the item's own history.  The paper
// points to time-series outlier detectors as the source of
// LDPRecover*'s partial knowledge; this module provides a robust
// z-score detector over per-item frequency histories, which suffices
// to recover the target set in the MGA regimes the paper evaluates
// (see tests/outlier_test.cc and examples/emoji_survey.cc).

#ifndef LDPR_RECOVER_OUTLIER_H_
#define LDPR_RECOVER_OUTLIER_H_

#include <cstddef>
#include <vector>

#include "ldp/report.h"

namespace ldpr {

/// Returns the items of `current` that are upward outliers against
/// `history` (each history entry is one past epoch's frequency
/// vector, all the same length as `current`): items whose current
/// frequency exceeds the historical mean by more than 3 historical
/// standard deviations, the deviation floored at 1e-6 so a
/// near-constant short history cannot make it zero.  Needs at least 3
/// epochs of history; with fewer, nothing is flagged.  Only upward
/// deviations are flagged: targeted poisoning inflates frequencies.
std::vector<ItemId> DetectFrequencyOutliers(
    const std::vector<std::vector<double>>& history,
    const std::vector<double>& current);

/// Convenience used for AA (whose random attacker distribution has no
/// crisp target set): the `k` items with the largest frequency
/// increase from `baseline` to `current` — the paper's "items that
/// exhibit the top-r/2 frequency increase following the attack".
std::vector<ItemId> TopFrequencyGainers(const std::vector<double>& baseline,
                                        const std::vector<double>& current,
                                        size_t k);

}  // namespace ldpr

#endif  // LDPR_RECOVER_OUTLIER_H_
