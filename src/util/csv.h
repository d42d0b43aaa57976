// Tiny CSV reader: backs `--csv` dataset loading.

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

}  // namespace ldpr

#endif  // LDPR_UTIL_CSV_H_
