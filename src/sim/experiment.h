// Experiment harness: runs multi-trial poisoning + recovery
// experiments and collects the paper's metrics (MSE, Eq. (36);
// frequency gain, Eq. (37)) for each method:
//
//   Before      — the raw poisoned estimate f~_Z;
//   Detection   — Cao et al.'s detection baseline (needs targets);
//   LDPRecover  — non-knowledge recovery;
//   LDPRecover* — partial-knowledge recovery, fed either the true
//                 target set (MGA) or the top-r/2 frequency gainers
//                 (AA and other untargeted attacks), matching
//                 Section VI-A4.
//
// MSE is measured against the exact genuine frequencies f_X; FG is
// measured against the genuine LDP estimate f~_X per Eq. (37).
//
// Threading contract (docs/architecture.md): every trial grid runs
// through one flat (cell x trial) fan-out (FanOutTrials in
// util/thread_pool.h) on one thread budget (0 = auto).  Up to
// `threads` trials run at once and every trial may use the whole
// budget for its within-trial loops — the aggregation shards and
// MGA's OLH/BLH seed search — whose chunks run on whichever pool
// workers are idle.  Results are byte-identical under every budget
// because per-trial and per-shard RNG streams are counter-derived,
// the seed search hashes fixed positions of the trial's stream, and
// every merge and scan happens in index order.

#ifndef LDPR_SIM_EXPERIMENT_H_
#define LDPR_SIM_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "sim/pipeline.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ldpr {

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kGrr;
  double epsilon = 0.5;
  PipelineConfig pipeline;
  /// The server's eta for LDPRecover / LDPRecover*.
  double eta = 0.2;
  size_t trials = 10;
  uint64_t seed = 1;
  /// Evaluate the Detection baseline (requires a target set; skipped
  /// for AttackKind::kNone).
  bool run_detection = true;
  /// Evaluate LDPRecover*.
  bool run_star = true;
  /// Reproduce the paper's literal Eq. (28); see
  /// recover/malicious_stats.h.
  bool paper_literal_subdomain_sum = false;
  /// Worker-thread budget of RunExperiment: 0 = auto (LDPR_THREADS or
  /// hardware concurrency), 1 = fully serial.  It is shared by the
  /// trial fan-out and the within-trial loops (see the file header);
  /// pipeline.shards is overridden with the budget.
  /// Results are bit-identical at every thread count: each trial runs
  /// on its own counter-derived RNG stream, sharded aggregation chunks
  /// likewise, and all merges happen in index order.
  size_t threads = 0;
};

/// The metrics one trial contributes to the averages.  An unset field
/// means the trial did not produce that metric (e.g. FG without a
/// target set, Detection disabled).
struct TrialMetrics {
  std::optional<double> mse_before;
  std::optional<double> mse_recover;
  std::optional<double> mse_recover_star;
  std::optional<double> mse_detection;
  std::optional<double> fg_before;
  std::optional<double> fg_recover;
  std::optional<double> fg_recover_star;
  std::optional<double> fg_detection;
  std::optional<double> mse_malicious_recover;
  std::optional<double> mse_malicious_recover_star;
};

/// Averaged metrics over the configured trials.  FG statistics are
/// only populated when the attack has a target set.
struct ExperimentResult {
  RunningStat mse_before;
  RunningStat mse_recover;
  RunningStat mse_recover_star;
  RunningStat mse_detection;
  RunningStat fg_before;
  RunningStat fg_recover;
  RunningStat fg_recover_star;
  RunningStat fg_detection;
  /// Figure 7: MSE of the estimated malicious frequencies f~'_Y /
  /// f~*_Y against the trial's actual f~_Y.
  RunningStat mse_malicious_recover;
  RunningStat mse_malicious_recover_star;
  /// Wall-clock seconds per trial, measured around each trial by
  /// RunExperiments.  Machine-dependent by nature — scenarios may only
  /// surface it through columns listed in ScenarioSpec.timing_columns,
  /// which result comparisons (`ldpr diff`) exclude from exact checks.
  RunningStat trial_seconds;
  /// Genuine users each trial aggregated (the dataset's n), so
  /// scaling scenarios can derive throughput as
  /// users_per_trial / trial_seconds.mean().
  uint64_t users_per_trial = 0;
};

/// The most trials one experiment (ValidateExperimentInputs) or one
/// scenario run (RunScenario) accepts.  A trial fan-out allocates one
/// result per (cell, trial) before the first trial runs; the paper
/// averages 10 trials per point.
inline constexpr size_t kMaxTrials = 10000;

/// The most memory one trial's crafted malicious reports may take,
/// estimated as beta*n/(1-beta) reports of 12 bytes (seed and value)
/// plus d bytes for the unary encodings' one-byte-per-bit rows
/// (ProtocolReportBytes).  A grid trial streams them through one
/// kCraftChunkBytes chunk, but the shard planner and fig9 still hold
/// every report at once, and the crafting time grows with the same
/// product: an OUE/MGA trial at d = 100,000 on 100,000 users (526 MB
/// by the estimate) or at d = 102 on 1e8 users (600 MB) fits, while
/// both together (0.5 TB) are rejected before anything is allocated.
inline constexpr double kMaxCraftedReportBytes = 1 << 30;

/// The most perturbed bits one unary-encoded (OUE/SUE) stream may
/// draw: total_reports·d, one byte of a report row each.  A stream
/// materializes every report, so its run time grows with n·d, and its
/// flush buffer holds up to min(n, kBatchFlushReports)·d bytes of rows.
/// On a 4-core x86-64 machine `ldpr stream --protocol=OUE --beta=0.25
/// --dataset=zipf --d=100000` (1e10 bits) ran 44.6 s and peaked at
/// 863 MB; at the cap, the same stream on 10,737 reports runs 5.4 s
/// and peaks at 282 MB.  The streaming scenarios draw at most 1.02e7
/// bits (d = 102, 100,000 reports).  Checked by ValidateStream
/// (stream/arrival.h).
inline constexpr double kMaxStreamUnaryBits = 1 << 30;

/// Validates the user-reachable knobs of an experiment *before* any
/// CHECK-guarded internal code runs: empty dataset (zero users — the
/// aggregation layer has nothing to estimate from and would abort),
/// degenerate domain, non-positive epsilon, trials outside
/// [1, kMaxTrials], beta outside [0, 1), negative or infinite eta,
/// crafted reports past kMaxCraftedReportBytes, and attack-specific
/// target/attacker counts.  Drivers that accept arbitrary user input
/// (`ldpr run`) surface the returned InvalidArgument as an error
/// status instead of tripping an LDPR_CHECK abort.
Status ValidateExperimentInputs(const ExperimentConfig& config,
                                const Dataset& dataset);

/// Runs one trial end to end — poisoning, recovery, detection — on a
/// fresh Rng(trial_seed).  Pure in (config, dataset, trial_seed):
/// same inputs, same metrics, regardless of what else is running.
/// `config.trials` and `config.threads` are ignored here; the trial
/// fan-out lives in RunExperiments.
TrialMetrics RunSingleTrial(const ExperimentConfig& config,
                            const Dataset& dataset, uint64_t trial_seed);

/// Folds one trial's metrics into the running averages.
void MergeTrialMetrics(const TrialMetrics& trial, ExperimentResult& result);

/// One experiment of a batch: a config and the dataset it runs on.
struct ExperimentCell {
  const ExperimentConfig* config;
  const Dataset* dataset;
};

/// Runs every cell's trials in one flat (cell x trial) fan-out on
/// `threads` workers (0 = auto), building each cell's protocol once.
/// Every cell must share one config.trials.  Deterministic in each
/// config.seed alone: trial t of a cell runs on
/// Rng(DeriveSeed(config.seed, t)) and results merge per cell in
/// trial order, so the output is bit-identical at any thread count.
/// Results come back in cell order.
std::vector<ExperimentResult> RunExperiments(
    const std::vector<ExperimentCell>& cells, size_t threads);

/// RunExperiments on one cell with config.threads workers.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const Dataset& dataset);

}  // namespace ldpr

#endif  // LDPR_SIM_EXPERIMENT_H_
