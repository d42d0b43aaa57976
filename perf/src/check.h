// Output checks: a sink that keeps a scenario's rows in memory, and
// the exact row comparison (ldpr_diff --exact semantics: timing
// columns exempt) used both against the recorded reference trees and
// between the traced replay and the untraced run.

#ifndef LDPR_PERF_CHECK_H_
#define LDPR_PERF_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "runner/result_diff.h"
#include "runner/result_sink.h"

namespace ldpr {
namespace perf {

/// Collects one scenario's rows as a ScenarioResults, keyed exactly as
/// an `ldpr_bench --out` tree would load back.
class CollectingSink : public ResultSink {
 public:
  explicit CollectingSink(std::vector<std::string> timing_columns);

  void BeginScenario(const ScenarioRunInfo& info) override;
  void BeginTable(const std::string& title,
                  const std::vector<std::string>& columns) override;
  void AddRow(const std::string& label,
              const std::vector<double>& values) override;
  Status Finish() override { return Status::Ok(); }

  const ScenarioResults& results() const { return results_; }

 private:
  ScenarioResults results_;
  std::string table_;
  std::vector<std::string> columns_;
};

/// Rows compared and rows that failed: a row fails when any
/// non-timing value differs bit for bit, or when it is present on one
/// side only; a run-knob mismatch fails every row of the scenario.
struct RowCheck {
  size_t attempted = 0;
  size_t failed = 0;
  /// The first few violations, for the console.
  std::vector<std::string> notes;

  void Add(const RowCheck& other);
};

RowCheck CompareRows(const ScenarioResults& expected,
                     const ScenarioResults& actual);

}  // namespace perf
}  // namespace ldpr

#endif  // LDPR_PERF_CHECK_H_
