// Tiny CSV reader/writer.  The reader backs dataset loading; the
// writer is a low-level building block (result emission goes through
// runner/result_sink.h, which layers scenario/table context and
// partial-write detection on top of the same quoting rules).

#ifndef LDPR_UTIL_CSV_H_
#define LDPR_UTIL_CSV_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace ldpr {

/// Parses one CSV line into fields.  Supports double-quoted fields with
/// embedded commas and doubled quotes; does not support embedded
/// newlines (the datasets this library reads have none).
std::vector<std::string> SplitCsvLine(const std::string& line);

/// Reads the whole file into rows of fields.  Empty lines, CRLF ones
/// included, are skipped.
StatusOr<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path);

/// Quotes a field for CSV output when it contains commas, quotes, or
/// newlines (doubling embedded quotes); returns it verbatim otherwise.
std::string QuoteCsvField(const std::string& field);

/// Incremental CSV writer with partial-write detection (the backing
/// store of runner/result_sink.h's CsvSink).
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates).  Check ok() before use.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// True while the file is open and every write has succeeded.
  bool ok() const { return file_ != nullptr && !write_error_; }

  /// True iff the constructor managed to open the file — lets callers
  /// distinguish "never opened" from "write cut short" when Close()
  /// fails.
  bool opened() const { return opened_; }

  /// Writes a row, quoting fields that contain commas or quotes.
  /// Short writes latch a failure reported by ok()/Close().
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and closes; false if the file never opened, any write
  /// was partial, or the flush/close failed.  Idempotent (later
  /// calls return the first result); the destructor closes without
  /// reporting.
  bool Close();

 private:
  std::FILE* file_;
  bool opened_;
  bool write_error_ = false;
  bool closed_ = false;
  bool close_result_ = false;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_CSV_H_
