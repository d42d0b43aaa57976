// ScenarioSpec: one paper figure/table evaluation declared as data.
//
// A scenario names its protocol set, attack set, dataset list, and
// parameter sweep axes; LowerScenario() turns the declaration into
// the concrete (table x row x ExperimentConfig) grid the experiment
// engine runs.  The bespoke per-bench grid wiring this replaces lived
// in twelve bench_* mains; a scenario is now a registration
// (see src/runner/registry.h) of one of these specs plus a
// row-formatting callback.
//
// Lowering rules (in priority order):
//
//   1. `cells` non-empty — explicit (attack, protocol) rows, one
//      table per dataset (Figure 3's mixed attack/protocol grid).
//   2. `sweeps` non-empty — one table per (dataset x protocol x
//      sweep), one row per swept value, one ExperimentConfig per row
//      per entry of `attacks` (Figures 5-8, 10; Figure 8 compares two
//      attacks column-wise in the same row).
//   3. otherwise — one table per dataset, one row per protocol
//      (Table I, Figure 4).
//
// Custom scenarios (ablation, ext_protocols, fig9, and the
// streaming_* windowed-ingest cells in bench/scenario_streaming.cc)
// set `custom` and run their own trial loops; their spec still
// declares the axes as data for `ldpr list`, documentation, and the
// registry round-trip test.

#ifndef LDPR_SIM_SCENARIO_SPEC_H_
#define LDPR_SIM_SCENARIO_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ldp/protocol.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "util/status.h"

namespace ldpr {

/// The parameter a sweep table varies.  kXi belongs to the k-means
/// defense (custom scenarios only; generic lowering rejects it).
/// kNumUsers and kDomainSize are *dataset* axes: instead of touching
/// the ExperimentConfig they re-shape the table's dataset per row
/// (scaling-law scenarios), which requires every spec dataset to be a
/// resizable synthetic generator ("zipf"/"uniform") — the runner
/// rejects fixed-shape datasets at resolution time.
enum class SweepParam { kBeta, kEpsilon, kEta, kXi, kNumUsers, kDomainSize };

/// Long name used in table titles ("beta", "epsilon", "eta", "xi",
/// "n", "d").
const char* SweepParamName(SweepParam param);

/// Short name used in row labels ("beta", "eps", "eta", "xi", "n",
/// "d").
const char* SweepParamLabel(SweepParam param);

struct SweepSpec {
  SweepParam param;
  std::vector<double> values;
};

/// One explicit (attack, protocol) grid cell (Figure 3 style rows).
struct ScenarioCell {
  AttackKind attack;
  ProtocolKind protocol;
};

/// Paper-default experiment parameters a spec starts from; swept axes
/// override the matching field per row.
struct ScenarioDefaults {
  double epsilon = 0.5;
  double beta = 0.05;
  double eta = 0.2;
  size_t num_targets = 10;
  bool run_detection = true;
  bool run_star = true;
  uint64_t seed = 20240213;
};

struct ScenarioSpec {
  /// Stable id used on the `ldpr bench` command line ("fig3").
  std::string id;
  /// One-line banner ("Figure 3 — recovery accuracy (MSE)").
  std::string title;
  /// The paper artifact this regenerates ("Figure 3", "Table I",
  /// "extension" for beyond-paper scenarios).
  std::string artifact;
  /// Prefix of every table title; defaults to `artifact` when empty
  /// (Figures 5/6 share the label "Fig 5/6").
  std::string table_label;
  /// Trailing segment of every table title ("MSE", "frequency gain
  /// under MGA").
  std::string metric_desc;
  /// Appends " vs <param>" to sweep-table titles (Figures 5/6).
  bool title_appends_param = false;

  /// Dataset names resolvable by the runner ("ipums", "fire", "zipf",
  /// "uniform").
  std::vector<std::string> datasets;
  /// Protocol axis (row axis unless `cells` or `sweeps` is set).
  std::vector<ProtocolKind> protocols;
  /// Attack axis: one ExperimentConfig per row per entry.  Unused
  /// when `cells` is set (each cell carries its own attack).
  std::vector<AttackKind> attacks;
  /// Explicit (attack, protocol) rows; mutually exclusive with
  /// `sweeps`.
  std::vector<ScenarioCell> cells;
  /// Sweep axes; each entry becomes its own table group.
  std::vector<SweepSpec> sweeps;

  /// Output column headers; a scenario's row formatter must produce
  /// exactly this many values per row.
  std::vector<std::string> columns;
  /// The subset of `columns` holding wall-clock measurements
  /// (scaling-law scenarios).  Timing values are machine-dependent by
  /// nature, so they are carried in the run manifest and excluded
  /// from exact result comparisons (`ldpr diff`, the
  /// determinism ctest entries); every other column must stay a pure
  /// function of (spec, seed, scale, trials).
  std::vector<std::string> timing_columns;
  /// Prepended to protocol row labels ("MGA-" makes "MGA-GRR").
  std::string row_label_prefix;
  /// Tag decorating sweep-table titles: "(<dataset>, <tag><protocol>
  /// <tag_suffix>)" — e.g. "AA-" + "GRR", or "MUL-AA-" + "GRR" +
  /// ", 5 attackers".
  std::string protocol_tag;
  std::string protocol_tag_suffix;

  ScenarioDefaults defaults;
  /// True for scenarios that run their own trial loop instead of the
  /// generic grid engine (ablation, ext_protocols, fig9).
  bool custom = false;
};

/// One output row: a label plus the configs whose results fill its
/// columns (one config per spec.attacks entry; usually one).
/// Dataset-axis sweeps (kNumUsers/kDomainSize) land here rather than
/// in the configs: a non-zero override asks the runner to re-shape
/// the table's dataset for this row before running its configs.
struct LoweredRow {
  std::string label;
  std::vector<ExperimentConfig> configs;
  /// Target user count before the run's `scale` factor; 0 = the
  /// dataset's default shape.
  uint64_t n_override = 0;
  /// Target domain size; 0 = the dataset's default shape.
  size_t d_override = 0;
};

/// One output table, bound to a dataset by index into spec.datasets.
struct LoweredTable {
  std::string title;
  size_t dataset_index = 0;
  std::vector<LoweredRow> rows;
};

struct LoweredScenario {
  std::vector<LoweredTable> tables;
  /// Total ExperimentConfig count across all tables/rows.
  size_t config_count = 0;
};

/// Structural validation shared by lowering and the registry
/// round-trip test: id/title/columns/datasets present, axes
/// consistent (cells xor sweeps, protocols where required).
Status ValidateScenarioSpec(const ScenarioSpec& spec);

/// Lowers a declarative spec into the concrete experiment grid.
/// `trials` and `seed` land verbatim in every ExperimentConfig
/// (per-trial seeds are derived downstream by RunExperiment).
/// Rejects specs with `custom` set — those own their run loop.
StatusOr<LoweredScenario> LowerScenario(const ScenarioSpec& spec,
                                        size_t trials, uint64_t seed);

}  // namespace ldpr

#endif  // LDPR_SIM_SCENARIO_SPEC_H_
