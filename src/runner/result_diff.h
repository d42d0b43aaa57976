// Result-tree comparison: the library behind `ldpr diff`.
//
// A result tree (runner/manifest.h: the `--out DIR` of
// `ldpr bench`, `run` and `stream`) is self-describing — a tree manifest
// listing its scenarios, and per scenario results.jsonl rows keyed by
// (scenario, table, row) plus a manifest.json carrying run knobs and
// the timing-column list.  This module loads two such trees, joins
// their rows by key, and reports per-metric relative drift:
//
//   exact mode      — every non-timing value must be bit-equal (two
//                     same-seed runs of the same binary, e.g. the
//                     1-vs-N-thread determinism checks);
//   tolerance mode  — relative drift up to `tolerance` is accepted
//                     (cross-revision comparisons where RNG streams
//                     legitimately change).
//
// Columns a scenario declares in timing_columns are wall-clock
// measurements; they are reported (max drift per scenario) but never
// gate in either mode.  Structural differences — a row, column, or
// whole scenario present on one side only, mismatched run knobs —
// are violations in both modes.

#ifndef LDPR_RUNNER_RESULT_DIFF_H_
#define LDPR_RUNNER_RESULT_DIFF_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ldpr {

/// One results.jsonl row: ordered (column, value) pairs under a
/// (table, row) key.  Values the sink wrote as JSON null (NaN/Inf
/// metrics) load back as NaN.
struct ResultRow {
  std::string table;
  std::string row;
  std::vector<std::pair<std::string, double>> values;
};

/// One scenario directory: the manifest facts that must agree for a
/// comparison to be meaningful, plus every result row in file order.
struct ScenarioResults {
  std::string id;
  int schema_version = 1;
  uint64_t seed = 0;
  double scale = 0;
  size_t trials = 0;
  std::vector<std::string> timing_columns;
  std::vector<ResultRow> rows;
};

/// A loaded `--out` tree.
struct ResultTree {
  std::string root;
  std::vector<ScenarioResults> scenarios;
};

/// Loads the result tree rooted at `root`: exactly the scenarios its
/// manifest.json lists.  Load errors: no tree manifest, an id listed
/// twice, a scenario manifest naming a different id, duplicate
/// (table, row) keys, and malformed files.
StatusOr<ResultTree> LoadResultTree(const std::string& root);

struct DiffOptions {
  /// Exact mode when true; tolerance mode otherwise.
  bool exact = true;
  /// Tolerance-mode bound on relative drift |a-b| / max(|a|, |b|).
  double tolerance = 0.05;
  /// Tolerance mode only: values whose magnitudes both fall below
  /// this floor count as drift-free (relative drift between
  /// near-zero noise is meaningless).  Exact mode ignores it — any
  /// difference between same-seed runs is a determinism break.
  double abs_floor = 1e-12;
};

/// One comparison failure.  `kind` is one of: value-drift,
/// missing-row, extra-row, schema-mismatch, missing-scenario,
/// extra-scenario, manifest-mismatch.
struct DiffViolation {
  std::string kind;
  std::string scenario;
  std::string table;
  std::string row;
  std::string column;
  double a = 0;
  double b = 0;
  double drift = 0;
  /// Human-readable specifics for structural violations.
  std::string detail;
};

/// Per-scenario drift summary (one drift-table line).
struct ScenarioDriftSummary {
  std::string id;
  size_t rows = 0;
  size_t values = 0;
  size_t violations = 0;
  double max_drift = 0;
  /// "table | row | column" of the worst non-timing drift.
  std::string max_cell;
  double max_timing_drift = 0;
};

struct DiffReport {
  std::vector<ScenarioDriftSummary> scenarios;
  std::vector<DiffViolation> violations;
  bool ok() const { return violations.empty(); }
};

/// Relative drift |a-b| / max(|a|, |b|); 0 when both magnitudes are
/// at or below `abs_floor` or both values are NaN.
double RelativeDrift(double a, double b, double abs_floor);

/// Joins two trees by (scenario, table, row) and compares every
/// column under `options`.
DiffReport DiffResultTrees(const ResultTree& a, const ResultTree& b,
                           const DiffOptions& options);

/// Renders the compact drift table plus the first `max_violations`
/// violations (0 = all).
std::string FormatDriftTable(const DiffReport& report,
                             size_t max_violations = 20);

}  // namespace ldpr

#endif  // LDPR_RUNNER_RESULT_DIFF_H_
