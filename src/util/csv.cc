#include "util/csv.h"

#include <cstdio>
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

std::string QuoteCsvField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

CsvWriter::CsvWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")), opened_(file_ != nullptr) {}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (file_ == nullptr) return;
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += QuoteCsvField(fields[i]);
  }
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    write_error_ = true;
}

bool CsvWriter::Close() {
  if (closed_) return close_result_;
  closed_ = true;
  if (file_ == nullptr) {
    close_result_ = false;
    return false;
  }
  const bool flushed = std::fflush(file_) == 0 && std::ferror(file_) == 0;
  const bool closed_ok = std::fclose(file_) == 0;
  file_ = nullptr;
  close_result_ = !write_error_ && flushed && closed_ok;
  return close_result_;
}

}  // namespace ldpr
