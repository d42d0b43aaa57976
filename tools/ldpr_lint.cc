// ldpr_lint: the determinism/portability linter (src/lint/).
//
//   # The CI gate — exits 0 only when the tree is clean:
//   ldpr_lint --repo=. src tools bench tests examples
//
//   # Findings print as `file:line: [rule-id] message`; CI asks for
//   # GitHub annotations instead, so they land inline on the PR diff:
//   ldpr_lint --repo=. --format=github src tools bench tests examples
//
// Rules R1-R6 and R8 (R7 is retired) are documented in
// src/lint/lint.h and docs/architecture.md ("Static guarantees").
// Suppress a deliberate exception with a `// lint: <key>-ok(<reason>)`
// pragma on (or just above) the line, or an entry in
// ci/lint_allowlist.txt; stale allowlist entries are themselves
// findings.
//
// Exit codes: 0 = clean, 1 = findings, 2 = usage or IO errors.

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "util/flags.h"

namespace ldpr {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ldpr_lint [--repo=DIR] [--allowlist=FILE]\n"
      "                 [--format=plain|github] ROOT...\n"
      "\n"
      "Scans the given directories (or files) for violations of the\n"
      "repo's determinism/portability contracts (rules R1-R6 and R8;\n"
      "see src/lint/lint.h).  --repo defaults to the current directory\n"
      "and locates CMakeLists.txt, the CI workflow, ci/lint_layers.txt\n"
      "and relative roots; --allowlist defaults to\n"
      "ci/lint_allowlist.txt under the repo root.  --format=github\n"
      "prints GitHub Actions annotations instead of plain lines.\n");
  return 2;
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  lint::LintOptions options;
  options.repo_root = flags.GetString("repo", ".");
  options.allowlist_path = flags.GetString("allowlist", "ci/lint_allowlist.txt");
  options.roots = flags.positional();
  const std::string format = flags.GetString("format", "plain");

  const std::vector<std::string> unused = flags.unused_flags();
  if (!unused.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unused.front().c_str());
    return Usage();
  }
  if (options.roots.empty()) return Usage();
  if (format != "plain" && format != "github") {
    std::fprintf(stderr, "unknown --format=%s\n", format.c_str());
    return Usage();
  }

  auto result = lint::RunLint(options);
  if (!result.ok()) {
    std::fprintf(stderr, "ldpr_lint: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const std::vector<lint::Finding>& findings = result.value().findings;
  if (format == "github") {
    std::fputs(lint::FindingsToGithub(findings).c_str(), stdout);
  } else {
    for (const lint::Finding& finding : findings) {
      std::printf("%s\n", lint::FormatFinding(finding).c_str());
    }
  }
  std::fprintf(stderr, "ldpr_lint: %zu finding(s) in %zu file(s) scanned\n",
               findings.size(), result.value().files_scanned);
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::Run(argc, argv); }
