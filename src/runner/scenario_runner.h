// The scenario run engine: resolves run knobs (seed/scale/trials from
// options or defaults), lowers grid scenarios to their
// ExperimentConfig grids and runs every config x trial of a scenario
// in one flat fan-out (RunExperiments), and streams every row through
// the ResultSink.  Custom scenarios get a ScenarioContext and
// the RunTrialTable helper instead, which runs their (cell x trial)
// grid through the same fan-out (FanOutTrials in util/thread_pool.h).
//
// Determinism: a scenario's sink output is a pure function of
// (spec, seed, scale, trials) — the thread budget never reaches the
// metrics (see docs/architecture.md), which is what lets the
// scenario_*_determinism ctest entries diff --out files across
// LDPR_THREADS values.

#ifndef LDPR_RUNNER_SCENARIO_RUNNER_H_
#define LDPR_RUNNER_SCENARIO_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "runner/registry.h"
#include "runner/result_sink.h"
#include "util/random.h"

namespace ldpr {

/// Run knobs; zero fields fall back to the defaults (scale 0.05,
/// trials 3, the spec's seed).  A scale outside (0, 1] or more than
/// kMaxTrials trials fails the run with InvalidArgument.
struct ScenarioRunOptions {
  uint64_t seed = 0;
  size_t trials = 0;
  double scale = 0;
};

/// Builds the dataset a spec names — one of the registered bench
/// generators ("ipums", "fire", "zipf", "uniform") — scaled by
/// `scale`.  Non-zero `d_override` / `n_override` re-shape the
/// generator before scaling (the dataset-axis sweeps: n_override is
/// the pre-scale user count, so an axis value of 1e6 at scale 0.05
/// yields 50k users); only the resizable synthetic generators
/// ("zipf", "uniform") accept overrides.
StatusOr<Dataset> ResolveBenchDataset(const std::string& name, double scale,
                                      size_t d_override = 0,
                                      uint64_t n_override = 0);

/// Banner name of a spec dataset ("IPUMS-like").
std::string BenchDatasetDisplayName(const std::string& name);

/// Runs one scenario end to end: banner, grid (or custom loop), row
/// emission.  The caller owns sink.Finish().
StatusOr<ScenarioRunReport> RunScenario(const Scenario& scenario,
                                        const ScenarioRunOptions& options,
                                        ResultSink& sink);

/// One trial of a custom scenario: the cell's column values, in
/// spec.columns order.
using TrialColumnsFn = std::function<std::vector<double>(
    size_t cell, size_t shards, uint64_t trial_seed)>;

/// Runs one table of a custom scenario: trial t of cell c runs
/// fn(c, shards, DeriveSeed(seed, c * ctx.trials + t)) on the shared
/// (cell x trial) fan-out, where `shards` is the trial's within-trial
/// aggregation budget.  Row c, labelled row_labels[c], is the
/// per-column mean of the cell's trials, merged in trial order, so
/// the table is byte-identical at any thread count.  A separator
/// follows every `group` rows when `group` is non-zero.  Records the
/// table, its rows and the thread split in ctx.report.
void RunTrialTable(ScenarioContext& ctx, const std::string& title,
                   const std::vector<std::string>& row_labels, uint64_t seed,
                   const TrialColumnsFn& fn, size_t group = 0);

}  // namespace ldpr

#endif  // LDPR_RUNNER_SCENARIO_RUNNER_H_
