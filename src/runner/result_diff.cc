#include "runner/result_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/json_reader.h"
#include "util/json_writer.h"

namespace ldpr {

namespace {

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return InternalError("cannot read: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return InternalError("read failed: " + path);
  return ss.str();
}

std::vector<std::string> StringArrayOr(const JsonValue& object,
                                       const std::string& key) {
  std::vector<std::string> out;
  const JsonValue* array = object.Find(key);
  if (array == nullptr || !array->is_array()) return out;
  for (const JsonValue& entry : array->array()) {
    if (entry.is_string()) out.push_back(entry.string());
  }
  return out;
}

// Loads scenario `id`'s directory: manifest.json (run knobs, timing
// columns) + results.jsonl (the rows).
StatusOr<ScenarioResults> LoadScenarioDir(const std::string& dir,
                                          const std::string& id) {
  const std::string manifest_path = dir + "/manifest.json";
  auto manifest_text = ReadFile(manifest_path);
  if (!manifest_text.ok()) return manifest_text.status();
  auto manifest = ParseJson(*manifest_text);
  if (!manifest.ok())
    return InvalidArgumentError(manifest_path + ": " +
                                manifest.status().message());

  ScenarioResults scenario;
  scenario.id = manifest->StringOr("scenario", id);
  if (scenario.id != id)
    return InvalidArgumentError(manifest_path + ": names scenario '" +
                                scenario.id + "', but the tree manifest "
                                "lists '" + id + "'");
  scenario.schema_version =
      static_cast<int>(manifest->NumberOr("schema_version", 1));
  scenario.seed = static_cast<uint64_t>(manifest->NumberOr("seed", 0));
  scenario.scale = manifest->NumberOr("scale", 0);
  scenario.trials = static_cast<size_t>(manifest->NumberOr("trials", 0));
  scenario.timing_columns = StringArrayOr(*manifest, "timing_columns");

  const std::string rows_path = dir + "/results.jsonl";
  auto rows_text = ReadFile(rows_path);
  if (!rows_text.ok()) return rows_text.status();

  std::map<std::pair<std::string, std::string>, bool> seen;
  std::istringstream lines(*rows_text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok())
      return InvalidArgumentError(rows_path + ":" + std::to_string(line_no) +
                                  ": " + parsed.status().message());
    ResultRow row;
    const std::string row_scenario = parsed->StringOr("scenario", "");
    if (row_scenario != scenario.id)
      return InvalidArgumentError(
          rows_path + ":" + std::to_string(line_no) + ": row scenario '" +
          row_scenario + "' does not match manifest '" + scenario.id + "'");
    row.table = parsed->StringOr("table", "");
    row.row = parsed->StringOr("row", "");
    if (row.table.empty() || row.row.empty())
      return InvalidArgumentError(rows_path + ":" + std::to_string(line_no) +
                                  ": row is missing its table/row key");
    const JsonValue* values = parsed->Find("values");
    if (values == nullptr || !values->is_object())
      return InvalidArgumentError(rows_path + ":" + std::to_string(line_no) +
                                  ": row has no values object");
    for (const auto& member : values->object()) {
      double value;
      if (member.second.is_number()) {
        value = member.second.number();
      } else if (member.second.is_null()) {
        // JsonNumber renders NaN/Inf as null; load them back as NaN
        // so both-NaN cells compare as equal.
        value = std::nan("");
      } else {
        return InvalidArgumentError(
            rows_path + ":" + std::to_string(line_no) + ": column '" +
            member.first + "' is not a number");
      }
      row.values.emplace_back(member.first, value);
    }
    if (!seen.emplace(std::make_pair(row.table, row.row), true).second)
      return InvalidArgumentError(rows_path + ":" + std::to_string(line_no) +
                                  ": duplicate row key (" + row.table +
                                  " | " + row.row + ")");
    scenario.rows.push_back(std::move(row));
  }
  return scenario;
}

}  // namespace

StatusOr<ResultTree> LoadResultTree(const std::string& root) {
  std::error_code ec;
  if (!std::filesystem::is_directory(root, ec))
    return InvalidArgumentError("not a directory: " + root);

  // The tree manifest lists the scenarios; the files it names are not
  // checked, only each scenario's manifest.json and results.jsonl are
  // read.
  const std::string manifest_path = root + "/manifest.json";
  auto text = ReadFile(manifest_path);
  if (!text.ok())
    return InvalidArgumentError(root + " is not a result tree: cannot read " +
                                manifest_path);
  auto manifest = ParseJson(*text);
  if (!manifest.ok())
    return InvalidArgumentError(manifest_path + ": " +
                                manifest.status().message());
  const JsonValue* scenarios = manifest->Find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array())
    return InvalidArgumentError(manifest_path +
                                ": not a tree manifest (no scenarios list)");

  ResultTree tree;
  tree.root = root;
  std::set<std::string> ids;
  for (const JsonValue& entry : scenarios->array()) {
    const std::string id = entry.StringOr("id", "");
    if (id.empty())
      return InvalidArgumentError(manifest_path +
                                  ": scenario entry without an id");
    if (!ids.insert(id).second)
      return InvalidArgumentError(manifest_path + ": scenario '" + id +
                                  "' listed twice");
    auto scenario = LoadScenarioDir(root + "/" + id, id);
    if (!scenario.ok()) return scenario.status();
    tree.scenarios.push_back(std::move(*scenario));
  }
  return tree;
}

double RelativeDrift(double a, double b, double abs_floor) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (a == b) return 0;
  const double denom = std::max(std::fabs(a), std::fabs(b));
  if (std::isnan(a) || std::isnan(b)) return std::nan("");
  if (denom <= abs_floor) return 0;
  return std::fabs(a - b) / denom;
}

namespace {

bool Contains(const std::vector<std::string>& list, const std::string& name) {
  return std::find(list.begin(), list.end(), name) != list.end();
}

void DiffScenario(const ScenarioResults& a, const ScenarioResults& b,
                  const DiffOptions& options, DiffReport& report) {
  ScenarioDriftSummary summary;
  summary.id = a.id;

  const auto manifest_mismatch = [&](const std::string& field,
                                     const std::string& got,
                                     const std::string& want) {
    DiffViolation v;
    v.kind = "manifest-mismatch";
    v.scenario = a.id;
    v.detail = field + " differs: " + got + " vs " + want;
    report.violations.push_back(std::move(v));
    ++summary.violations;
  };
  if (a.seed != b.seed)
    manifest_mismatch("seed", std::to_string(a.seed), std::to_string(b.seed));
  if (a.trials != b.trials)
    manifest_mismatch("trials", std::to_string(a.trials),
                      std::to_string(b.trials));
  if (a.scale != b.scale)
    manifest_mismatch("scale", JsonNumber(a.scale), JsonNumber(b.scale));

  // Timing columns never gate; take the union so a tree written by an
  // older binary still skips the other side's timing columns.
  std::vector<std::string> timing = a.timing_columns;
  for (const std::string& column : b.timing_columns) {
    if (!Contains(timing, column)) timing.push_back(column);
  }

  std::map<std::pair<std::string, std::string>, const ResultRow*> b_rows;
  for (const ResultRow& row : b.rows)
    b_rows[std::make_pair(row.table, row.row)] = &row;

  for (const ResultRow& row_a : a.rows) {
    const auto key = std::make_pair(row_a.table, row_a.row);
    const auto it = b_rows.find(key);
    if (it == b_rows.end()) {
      DiffViolation v;
      v.kind = "missing-row";
      v.scenario = a.id;
      v.table = row_a.table;
      v.row = row_a.row;
      v.detail = "row present in A only";
      report.violations.push_back(std::move(v));
      ++summary.violations;
      continue;
    }
    const ResultRow& row_b = *it->second;
    b_rows.erase(it);
    ++summary.rows;

    for (const auto& [column, value_a] : row_a.values) {
      const auto found =
          std::find_if(row_b.values.begin(), row_b.values.end(),
                       [&](const auto& kv) { return kv.first == column; });
      if (found == row_b.values.end()) {
        DiffViolation v;
        v.kind = "schema-mismatch";
        v.scenario = a.id;
        v.table = row_a.table;
        v.row = row_a.row;
        v.column = column;
        v.detail = "column present in A only";
        report.violations.push_back(std::move(v));
        ++summary.violations;
        continue;
      }
      const double value_b = found->second;
      // Exact mode means bit-equal: the noise floor only applies to
      // tolerance mode (drift between near-zero noise is
      // meaningless, but *any* difference between same-seed runs is
      // a determinism break).
      const double drift = RelativeDrift(
          value_a, value_b, options.exact ? 0.0 : options.abs_floor);

      if (Contains(timing, column)) {
        if (!std::isnan(drift))
          summary.max_timing_drift =
              std::max(summary.max_timing_drift, drift);
        continue;
      }

      ++summary.values;
      const bool worst = std::isnan(drift) || drift > summary.max_drift;
      if (worst && drift != 0) {
        summary.max_drift = drift;
        summary.max_cell = row_a.table + " | " + row_a.row + " | " + column;
      }
      const bool violated = options.exact
                                ? drift != 0
                                : (std::isnan(drift) ||
                                   drift > options.tolerance);
      if (violated) {
        DiffViolation v;
        v.kind = "value-drift";
        v.scenario = a.id;
        v.table = row_a.table;
        v.row = row_a.row;
        v.column = column;
        v.a = value_a;
        v.b = value_b;
        v.drift = drift;
        report.violations.push_back(std::move(v));
        ++summary.violations;
      }
    }
    for (const auto& [column, value_b] : row_b.values) {
      (void)value_b;
      const auto found =
          std::find_if(row_a.values.begin(), row_a.values.end(),
                       [&](const auto& kv) { return kv.first == column; });
      if (found == row_a.values.end()) {
        DiffViolation v;
        v.kind = "schema-mismatch";
        v.scenario = a.id;
        v.table = row_a.table;
        v.row = row_a.row;
        v.column = column;
        v.detail = "column present in B only";
        report.violations.push_back(std::move(v));
        ++summary.violations;
      }
    }
  }
  for (const auto& [key, row_b] : b_rows) {
    (void)key;
    DiffViolation v;
    v.kind = "extra-row";
    v.scenario = a.id;
    v.table = row_b->table;
    v.row = row_b->row;
    v.detail = "row present in B only";
    report.violations.push_back(std::move(v));
    ++summary.violations;
  }
  report.scenarios.push_back(std::move(summary));
}

}  // namespace

DiffReport DiffResultTrees(const ResultTree& a, const ResultTree& b,
                           const DiffOptions& options) {
  DiffReport report;
  std::map<std::string, const ScenarioResults*> b_scenarios;
  for (const ScenarioResults& scenario : b.scenarios)
    b_scenarios[scenario.id] = &scenario;

  for (const ScenarioResults& scenario_a : a.scenarios) {
    const auto it = b_scenarios.find(scenario_a.id);
    if (it == b_scenarios.end()) {
      DiffViolation v;
      v.kind = "missing-scenario";
      v.scenario = scenario_a.id;
      v.detail = "scenario present in A only";
      report.violations.push_back(std::move(v));
      ScenarioDriftSummary summary;
      summary.id = scenario_a.id;
      summary.violations = 1;
      report.scenarios.push_back(std::move(summary));
      continue;
    }
    DiffScenario(scenario_a, *it->second, options, report);
    b_scenarios.erase(it);
  }
  for (const auto& [id, scenario_b] : b_scenarios) {
    (void)scenario_b;
    DiffViolation v;
    v.kind = "extra-scenario";
    v.scenario = id;
    v.detail = "scenario present in B only";
    report.violations.push_back(std::move(v));
    ScenarioDriftSummary summary;
    summary.id = id;
    summary.violations = 1;
    report.scenarios.push_back(std::move(summary));
  }
  return report;
}

std::string FormatDriftTable(const DiffReport& report,
                             size_t max_violations) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-14s %5s %7s %10s %6s  %s\n", "scenario",
                "rows", "values", "max-drift", "viol", "worst cell");
  out += buf;
  out += std::string(78, '-') + "\n";
  for (const ScenarioDriftSummary& s : report.scenarios) {
    std::snprintf(buf, sizeof(buf), "%-14s %5zu %7zu %10.3g %6zu  %s\n",
                  s.id.c_str(), s.rows, s.values, s.max_drift, s.violations,
                  s.max_cell.empty() ? "-" : s.max_cell.c_str());
    out += buf;
    if (s.max_timing_drift > 0) {
      std::snprintf(buf, sizeof(buf),
                    "%-14s %5s %7s %10.3g %6s  (timing columns, not gated)\n",
                    "", "", "", s.max_timing_drift, "");
      out += buf;
    }
  }

  if (report.violations.empty()) return out;
  out += "\nviolations";
  if (max_violations != 0 && report.violations.size() > max_violations) {
    std::snprintf(buf, sizeof(buf), " (first %zu of %zu)", max_violations,
                  report.violations.size());
    out += buf;
  }
  out += ":\n";
  size_t shown = 0;
  for (const DiffViolation& v : report.violations) {
    if (max_violations != 0 && shown == max_violations) break;
    ++shown;
    out += "  [" + v.kind + "] " + v.scenario;
    if (!v.table.empty()) out += " | " + v.table;
    if (!v.row.empty()) out += " | " + v.row;
    if (!v.column.empty()) out += " | " + v.column;
    if (v.kind == "value-drift") {
      std::snprintf(buf, sizeof(buf), ": %s vs %s (drift %.3g)",
                    JsonNumber(v.a).c_str(), JsonNumber(v.b).c_str(),
                    v.drift);
      out += buf;
    } else if (!v.detail.empty()) {
      out += ": " + v.detail;
    }
    out += "\n";
  }
  return out;
}

}  // namespace ldpr
