// Paper-style result-table rendering for the benchmark harness.
//
// The scenario layer's ConsoleSink (runner/result_sink.h) renders
// every `ldpr bench` table through TablePrinter so that the console
// output mirrors the rows/series the paper reports (method x setting
// -> metric).

#ifndef LDPR_UTIL_TABLE_H_
#define LDPR_UTIL_TABLE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ldpr {

/// Accumulates rows of (label, values...) and renders them with
/// aligned columns and scientific notation, the way the paper's tables
/// and figure series read.
class TablePrinter {
 public:
  /// `title` is printed as a banner; `columns` are the value headers
  /// (the first implicit column holds row labels).
  TablePrinter(std::string title, std::vector<std::string> columns);

  /// Adds one row.  values.size() must equal the number of columns.
  void AddRow(const std::string& label, const std::vector<double>& values);

  /// Adds a separator line between logical row groups.
  void AddSeparator();

  /// Renders the table to a string.
  std::string ToString() const;

  /// Renders to stdout.
  void Print() const;

 private:
  struct Row {
    bool separator = false;
    std::string label;
    std::vector<double> values;
  };

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// Formats a double in compact scientific notation (e.g. "5.89e-04"),
/// matching the precision the paper uses in Table I.
std::string FormatScientific(double value);

}  // namespace ldpr

#endif  // LDPR_UTIL_TABLE_H_
