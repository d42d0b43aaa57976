// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports --name=value and --name value forms plus boolean
// --name.  No registration; callers query by name with a default.
// Unknown-flag detection is the caller's job via unused_flags().

#ifndef LDPR_UTIL_FLAGS_H_
#define LDPR_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace ldpr {

class FlagParser {
 public:
  /// Parses argv (argv[0] is skipped).  Arguments not starting with
  /// "--" are collected as positional.
  FlagParser(int argc, const char* const* argv);

  /// String flag, or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Double flag; returns an error when present but unparsable or
  /// not finite (inf, NaN, or out of double's range like 1e999).
  StatusOr<double> GetDouble(const std::string& name, double fallback) const;

  /// Integer flag; returns an error when present but unparsable or
  /// out of int64_t's range.
  StatusOr<int64_t> GetInt(const std::string& name, int64_t fallback) const;

  /// GetInt for counts, seeds and thread budgets: a negative value is
  /// an INVALID_ARGUMENT error, so callers may cast the result to an
  /// unsigned type.
  StatusOr<int64_t> GetNonNegativeInt(const std::string& name,
                                      int64_t fallback) const;

  /// Boolean flag: present without value (or "true"/"1") => true.
  bool GetBool(const std::string& name, bool fallback) const;

  /// True iff the flag appeared on the command line.
  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried — typo detection.
  std::vector<std::string> unused_flags() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_FLAGS_H_
