// ScenarioRegistry: the process-wide table of runnable scenarios.
//
// A scenario is a declarative ScenarioSpec (sim/scenario_spec.h) plus
// the two pieces of code a figure reproduction genuinely needs:
//
//   - format_row: maps one lowered row's ExperimentResults onto the
//     spec's output columns (grid scenarios);
//   - run: a custom run function (bespoke scenarios: ablation,
//     ext_protocols, fig9, streaming_*, shard_fault_*) that computes
//     each trial's columns and hands its tables to RunTrialTable
//     (runner/scenario_runner.h) — when set, the generic grid engine
//     is bypassed.
//
// Registration is explicit (bench/scenarios.h's
// RegisterAllScenarios()), not static-initializer magic, so linking
// the scenario library from tests or tools always yields the same
// registry contents.

#ifndef LDPR_RUNNER_REGISTRY_H_
#define LDPR_RUNNER_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "runner/result_sink.h"
#include "sim/scenario_spec.h"

namespace ldpr {

/// What a scenario run did — recorded into the run manifest.
struct ScenarioRunReport {
  size_t tables = 0;
  size_t rows = 0;
  /// Split of the thread budget over the scenario's flat fan-out
  /// units (config x trial for grid scenarios, cell x trial for
  /// bespoke tables): `outer_workers` concurrent units, each of
  /// which may use `shards` (the whole budget) within-trial
  /// aggregation workers.
  size_t outer_workers = 1;
  size_t shards = 1;
  /// The resolved run knobs and dataset sizes this run used — the
  /// same info the sinks received, so manifest writers never have to
  /// re-resolve anything.
  ScenarioRunInfo info;
};

/// Everything a custom scenario run receives: the resolved knobs, the
/// already-resolved datasets (spec.datasets order), the sink to write
/// through, and the report to fill in (RunTrialTable does both).
struct ScenarioContext {
  const ScenarioSpec& spec;
  uint64_t seed = 0;
  size_t trials = 1;
  double scale = 1.0;
  const std::vector<Dataset>& datasets;
  ResultSink& sink;
  ScenarioRunReport& report;
};

using ScenarioRunFn = std::function<Status(ScenarioContext&)>;

/// Maps the ExperimentResults of one lowered row (one per
/// spec.attacks entry, in attack order) to the row's column values.
using RowFormatFn =
    std::function<std::vector<double>(const std::vector<ExperimentResult>&)>;

struct Scenario {
  ScenarioSpec spec;
  RowFormatFn format_row;  // required unless spec.custom
  ScenarioRunFn run;       // required iff spec.custom
};

class ScenarioRegistry {
 public:
  /// The process-wide registry every driver/test shares.
  static ScenarioRegistry& Global();

  /// Registers a scenario; aborts on duplicate ids or on a scenario
  /// missing its required callback.
  void Register(Scenario scenario);

  /// Looks a scenario up by spec id; nullptr when absent.  Pointers
  /// stay valid for the registry's lifetime.
  const Scenario* Find(const std::string& id) const;

  /// All scenarios in registration order.
  std::vector<const Scenario*> scenarios() const;

  size_t size() const { return scenarios_.size(); }

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

}  // namespace ldpr

#endif  // LDPR_RUNNER_REGISTRY_H_
