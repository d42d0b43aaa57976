#include "util/csv.h"

#include <fstream>

namespace ldpr {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF files.
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open CSV file: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    // A CRLF file's blank line is a lone "\r": blank, not one empty field.
    if (line.empty() || line == "\r") continue;
    rows.push_back(SplitCsvLine(line));
  }
  return rows;
}

}  // namespace ldpr
