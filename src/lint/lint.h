// ldpr_lint — the repo's determinism/portability linter.
//
// The core guarantee of this codebase is bit-identical results at any
// thread/shard/SIMD-backend count (docs/architecture.md).  The
// runtime half of that contract is the exact `ldpr diff`; this is the
// static half: a rule registry over a token-lite scan of src/,
// tools/, bench/, and tests/ that rejects code which *could* violate
// the contract before it ever produces a result tree.
//
// Rules (each finding prints `file:line: [rule-id] message`):
//   R1  banned nondeterminism sources: std::rand/srand, random_device,
//       wall-clock reads outside the timing whitelist
//       (sim/experiment.cc and bench drivers), libc lgamma/signgam
//       (glibc writes a process-global — the PR 2 TSan race),
//       std::shuffle/std::sample without an explicit Rng, and raw
//       std::mt19937/default_random_engine outside util/random.
//   R2  no iteration over std::unordered_map/unordered_set in src/:
//       hash order must never feed sinks, table rows, or merges.
//       Keyed lookups (find/emplace/at/[]) are fine.
//   R3  float/double accumulation (`+=`/`-=`) inside loops in
//       src/ldp/, src/stream/, src/recover/ must sit in a file on the
//       exact-sum allowlist (ci/lint_allowlist.txt) or carry a
//       `// lint: fp-order-ok(<reason>)` pragma — regrouping fp sums
//       across shard counts changes bits unless the sums are exact.
//   R4  test registration: the CMakeLists tests/*_test.cc glob is
//       present (or every test is named explicitly), and every
//       tools/*.cc main has a CMake target plus a CI smoke
//       invocation.  The CI sanitizer matrix runs the whole ctest
//       suite, so a registered test is a sanitized test.
//   R5  public headers in src/ carry the canonical include guard
//       (LDPR_<PATH>_H_) — the static complement of the generated
//       one-TU-per-header self-containment build check.
//   R6  the src/ include graph respects the declarative layer order
//       in ci/lint_layers.txt (one subdir per line, low to high):
//       a file may only include headers from its own or lower layers,
//       and include cycles are rejected outright.
//   R7  retired, and the id is not reused.  It policed lambdas handed
//       to ParallelFor; the TSan leg of the CI sanitizer matrix runs
//       every ParallelFor call site with several workers instead
//       (docs/architecture.md, "Threading model").
//   R8  every Rng constructed outside util/random and tests/ must be
//       seeded from DeriveSeed(...) or a *_seed identifier, and Rng
//       must never be passed by value (copying forks the stream).
//
// Escape hatches: a same/previous-line `// lint: <key>-ok(<reason>)`
// pragma (keys: nondet, unordered-iter, fp-order, header-guard,
// layering, seed), or a `ci/lint_allowlist.txt` entry
// `<rule> <path> <substring>`.  Stale allowlist entries (matching no
// finding) are themselves findings, so suppressions cannot outlive
// the code they excuse.

#ifndef LDPR_LINT_LINT_H_
#define LDPR_LINT_LINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "lint/source_file.h"
#include "util/status.h"

namespace ldpr {
namespace lint {

/// One rule violation.  `rule` is the stable id ("R1".."R8", or
/// "allowlist" for stale-entry errors).
struct Finding {
  std::string path;
  size_t line = 0;
  std::string rule;
  std::string message;
};

/// Renders "path:line: [rule] message" (the `file:line:` prefix makes
/// findings clickable in editors and CI logs).
std::string FormatFinding(const Finding& finding);

/// GitHub Actions annotations (`::error file=...,line=...::...`), one
/// newline-terminated command per finding — the CI gate's format, so
/// findings land inline on the PR diff.
std::string FindingsToGithub(const std::vector<Finding>& findings);

/// The scanned tree shared by all rules.
struct LintTree {
  std::string repo_root;  // absolute; "" when scanning fixtures only
  std::vector<SourceFile> files;

  /// Returns the scanned file at `path` (repo-relative), or nullptr.
  const SourceFile* Find(const std::string& path) const;
};

// ------------------------------------------------------------- rules
// Per-file rules append findings for one file; the driver routes
// files by directory and applies pragmas/allowlist afterwards.

void CheckNondeterminismSources(const SourceFile& file,
                                std::vector<Finding>* out);  // R1
void CheckUnorderedIteration(const SourceFile& file,
                             std::vector<Finding>* out);  // R2
void CheckFpAccumulationOrder(const LintTree& tree, const SourceFile& file,
                              std::vector<Finding>* out);  // R3
void CheckTestRegistration(const LintTree& tree,
                           std::vector<Finding>* out);  // R4 (repo-level)
void CheckHeaderGuard(const SourceFile& file,
                      std::vector<Finding>* out);  // R5
/// R6 (repo-level; include_graph.cc), driven by the ci/lint_layers.txt
/// file loaded into the tree (absent = skipped, so fixture trees opt
/// in).  Findings: upward includes, includes of unlisted subdirs, src/
/// subdirs missing from the layer file, stale layer lines naming a
/// subdir that no longer exists, and file-level include cycles.
void CheckLayering(const LintTree& tree, std::vector<Finding>* out);
void CheckSeedDiscipline(const SourceFile& file,
                         std::vector<Finding>* out);  // R8

/// Pragma key a rule id answers to ("" when the rule has none).
std::string PragmaKeyForRule(const std::string& rule);

// ------------------------------------------------------------ driver

struct LintOptions {
  /// Directories (or single files) to scan, absolute or repo-relative.
  std::vector<std::string> roots;
  /// Repo root (where CMakeLists.txt and .github/ live).  R4 is
  /// skipped when empty or when the root has no CMakeLists.txt.
  std::string repo_root;
  /// Allowlist path; "" disables allowlist processing.
  std::string allowlist_path;
};

struct LintResult {
  std::vector<Finding> findings;  // sorted by (path, line, rule)
  size_t files_scanned = 0;
};

/// Scans the roots (plus the repo-level inputs: CMakeLists.txt, the
/// CI workflow, ci/lint_layers.txt), runs every rule, applies pragmas
/// and the allowlist.  Returns an error only for environment problems
/// (unreadable root); rule violations are findings, not errors.
StatusOr<LintResult> RunLint(const LintOptions& options);

/// Rule routing on an already-scanned tree (fixture tests use this to
/// lint in-memory files).  Applies pragmas and `allowlist_text`
/// (contents of ci/lint_allowlist.txt; "" for none).
LintResult LintScannedTree(const LintTree& tree,
                           const std::string& allowlist_text,
                           const std::string& allowlist_path);

}  // namespace lint
}  // namespace ldpr

#endif  // LDPR_LINT_LINT_H_
