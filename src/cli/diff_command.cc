// `ldpr diff`: compares two result trees (`ldpr bench/run/stream
// --out`) by (scenario, table, row) join instead of byte-diff, so
// runs from different machines — or different revisions, where RNG streams legitimately change — stay comparable.
//
//   # Same-seed runs of the same binary must agree exactly (the
//   # default; timing columns excluded — they are wall-clock
//   # measurements):
//   ldpr diff results-t1 results-t8
//
//   # Cross-revision comparison, where RNG streams may have moved:
//   ldpr diff --tolerance=0.25 baseline/ head/
//
// Exit codes: 0 = trees agree, 1 = violations (a compact drift table
// plus the violating cells is printed), 2 = usage or load errors.

#include <cstdio>
#include <string>
#include <utility>

#include "cli/cli.h"
#include "runner/result_diff.h"

namespace ldpr {
namespace cli {
namespace {

int Usage(const std::string& error) {
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: ldpr diff [--tolerance=REL] TREE_A TREE_B\n"
      "\n"
      "Compares two result trees row by row.  Without --tolerance\n"
      "metrics must be bit-equal; --tolerance=REL accepts relative\n"
      "drift up to REL.  Timing columns (declared by each scenario's\n"
      "manifest) are reported but never gate.\n",
      error.c_str());
  return 2;
}

}  // namespace

int DiffCommand(const FlagParser& flags) {
  DiffOptions options;
  options.exact = !flags.Has("tolerance");
  const auto tolerance = flags.GetDouble("tolerance", options.tolerance);
  if (!tolerance.ok()) return Usage(tolerance.status().ToString());
  if (!flags.unused_flags().empty())
    return Usage("unknown flag --" + flags.unused_flags()[0]);
  if (flags.positional().size() != 2)
    return Usage("expected two result trees");
  if (!(*tolerance >= 0)) return Usage("--tolerance must be >= 0");
  options.tolerance = *tolerance;

  const std::string& path_a = flags.positional()[0];
  const std::string& path_b = flags.positional()[1];
  ResultTree trees[2];
  for (int i = 0; i < 2; ++i) {
    auto tree = LoadResultTree(flags.positional()[i]);
    if (!tree.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", flags.positional()[i].c_str(),
                   tree.status().ToString().c_str());
      return 2;
    }
    trees[i] = *std::move(tree);
  }

  const DiffReport report = DiffResultTrees(trees[0], trees[1], options);
  if (options.exact) {
    std::printf("ldpr diff (exact): %s vs %s\n\n", path_a.c_str(),
                path_b.c_str());
  } else {
    std::printf("ldpr diff (tolerance %g): %s vs %s\n\n", options.tolerance,
                path_a.c_str(), path_b.c_str());
  }
  std::printf("%s", FormatDriftTable(report).c_str());
  if (!report.ok()) {
    std::fprintf(stderr, "\nldpr diff: %zu violation(s)\n",
                 report.violations.size());
    return 1;
  }
  std::printf("\nldpr diff: trees agree\n");
  return 0;
}

}  // namespace cli
}  // namespace ldpr
