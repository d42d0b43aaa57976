#include "check.h"

#include <set>
#include <utility>

namespace ldpr {
namespace perf {

CollectingSink::CollectingSink(std::vector<std::string> timing_columns) {
  results_.schema_version = 2;
  results_.timing_columns = std::move(timing_columns);
}

void CollectingSink::BeginScenario(const ScenarioRunInfo& info) {
  ResultSink::BeginScenario(info);
  results_.id = info.id;
  results_.seed = info.seed;
  results_.scale = info.scale;
  results_.trials = info.trials;
}

void CollectingSink::BeginTable(const std::string& title,
                                const std::vector<std::string>& columns) {
  table_ = title;
  columns_ = columns;
}

void CollectingSink::AddRow(const std::string& label,
                            const std::vector<double>& values) {
  ResultRow row;
  row.table = table_;
  row.row = label;
  for (size_t i = 0; i < values.size() && i < columns_.size(); ++i)
    row.values.emplace_back(columns_[i], values[i]);
  results_.rows.push_back(std::move(row));
}

void RowCheck::Add(const RowCheck& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& note : other.notes) {
    if (notes.size() < 5) notes.push_back(note);
  }
}

RowCheck CompareRows(const ScenarioResults& expected,
                     const ScenarioResults& actual) {
  std::set<std::pair<std::string, std::string>> keys;
  for (const ResultRow& row : expected.rows) keys.emplace(row.table, row.row);
  for (const ResultRow& row : actual.rows) keys.emplace(row.table, row.row);

  ResultTree a;
  a.scenarios.push_back(expected);
  ResultTree b;
  b.scenarios.push_back(actual);
  const DiffReport report = DiffResultTrees(a, b, DiffOptions{});

  RowCheck check;
  check.attempted = keys.size();
  std::set<std::pair<std::string, std::string>> failed;
  bool whole_scenario = false;
  for (const DiffViolation& v : report.violations) {
    if (check.notes.size() < 5) {
      check.notes.push_back(v.kind + " " + v.scenario + " | " + v.table +
                            " | " + v.row + " | " + v.column + " " +
                            v.detail);
    }
    if (v.row.empty()) {
      whole_scenario = true;
    } else {
      failed.emplace(v.table, v.row);
    }
  }
  check.failed = whole_scenario ? keys.size() : failed.size();
  return check;
}

}  // namespace perf
}  // namespace ldpr
