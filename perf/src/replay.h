// The traced replay: re-runs a scenario's trials through each layer's
// public functions, timing every call from outside (trace.h).  Grid
// scenarios are lowered with LowerScenario and each trial is replayed
// the way RunSingleTrial runs it, on Rng(DeriveSeed(config.seed, t));
// custom scenarios replay the calls their bench/scenario_*.cc bodies
// make, on the same derived seeds.  The replay emits the scenario's
// rows, so it can be checked against the untraced run row for row.

#ifndef LDPR_PERF_REPLAY_H_
#define LDPR_PERF_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runner/registry.h"
#include "runner/result_diff.h"
#include "trace.h"

namespace ldpr {
namespace perf {

struct ReplayOutput {
  /// The rows the replay computed, keyed as the scenario's sink
  /// output.
  ScenarioResults rows;
  /// Scenario-level set-up calls (index kNoTrial) followed by one
  /// trace per replayed trial.
  std::vector<TrialTrace> traces;
  /// Grid trials whose TrialMetrics differ from RunSingleTrial's, bit
  /// for bit (0 for custom scenarios, which are checked by rows).
  size_t trial_mismatches = 0;
  /// Seconds the RunSingleTrial comparison took (not replay time).
  double check_s = 0;
};

/// Replays `scenario` at (seed, scale, trials) on `threads` workers.
/// With `check_trials`, every grid trial is also run through
/// RunSingleTrial (untimed) and compared.
StatusOr<ReplayOutput> ReplayScenario(const Scenario& scenario, uint64_t seed,
                                      double scale, size_t trials,
                                      size_t threads, bool check_trials);

}  // namespace perf
}  // namespace ldpr

#endif  // LDPR_PERF_REPLAY_H_
