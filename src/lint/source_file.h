// Source model for ldpr_lint: a file loaded once, split into lines,
// with comments and string/char literals blanked out so rules match
// code tokens only (a banned identifier inside a string literal or a
// comment is not a call), and `// lint: <key>-ok(<reason>)` pragmas
// extracted from the comments before they are stripped.
//
// This is deliberately a token-lite scanner, not a parser: the same
// recursive single-pass state machine style as util/json_reader, but
// over the C++ lexical grammar (line/block comments, narrow string
// and char literals, raw strings).  Rules built on top accept the
// usual lint trade-off — a heuristic match with pragma/allowlist
// escape hatches — in exchange for zero build-graph coupling.

#ifndef LDPR_LINT_SOURCE_FILE_H_
#define LDPR_LINT_SOURCE_FILE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace ldpr {
namespace lint {

/// One `// lint: <key>-ok(<reason>)` suppression pragma.  The reason
/// is mandatory: a pragma without one does not suppress anything.
struct LintPragma {
  size_t line = 0;  // 1-based line the pragma comment sits on
  std::string key;  // e.g. "fp-order" for `fp-order-ok(...)`
  std::string reason;
};

/// A scanned source file.  `code_lines` parallels `raw_lines` with
/// every comment and literal body replaced by spaces (line structure
/// and column positions preserved).
struct SourceFile {
  std::string path;  // repo-relative, forward slashes
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::vector<LintPragma> pragmas;

  /// True when a `<key>-ok(...)` pragma covers 1-based `line`: the
  /// pragma sits on the line itself, or alone on the line above.
  bool SuppressedAt(size_t line, const std::string& key) const;
};

/// Reads and scans `disk_path`; `repo_path` is recorded in findings.
StatusOr<SourceFile> LoadSourceFile(const std::string& disk_path,
                                    const std::string& repo_path);

/// Scans in-memory text (fixture tests).
SourceFile ScanSource(const std::string& repo_path, const std::string& text);

/// True for [A-Za-z0-9_] — C++ identifier characters.
bool IsIdentChar(char c);

/// Finds `token` in `line` at or after `from`, requiring identifier
/// boundaries on whichever ends of the token are identifier
/// characters ("time(" needs only a left boundary).  Returns
/// std::string::npos when absent.
size_t FindToken(const std::string& line, const std::string& token,
                 size_t from = 0);

/// Whether `s` begins / ends with `affix` (repo-relative path tests).
bool StartsWith(const std::string& s, const std::string& affix);
bool EndsWith(const std::string& s, const std::string& affix);

}  // namespace lint
}  // namespace ldpr

#endif  // LDPR_LINT_SOURCE_FILE_H_
