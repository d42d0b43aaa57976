// `ldpr list`: the discovery surface — subcommands, their flag
// summaries, and whatever scenarios the binary linked in (the full
// bench registry when built with scenarios, empty otherwise).

#include <cstdio>
#include <string>

#include "cli/cli.h"
#include "runner/registry.h"

namespace ldpr {
namespace cli {

int ListCommand(const FlagParser& flags) {
  if (const int rc = ExitStatus(flags, {})) return rc;
  std::printf(
      "commands:\n"
      "  run     trial flags plus --trials --top_k --threads --out DIR\n"
      "  stream  trial flags except --attack, plus --window --stride\n"
      "          --wave --out DIR\n"
      "  diff    [--tolerance=REL] TREE_A TREE_B; exact without\n"
      "          --tolerance; exit 0 agree, 1 drift, 2 usage/load\n"
      "  list    this listing\n"
      "\n"
      "trial flags: --protocol --attack --dataset --d --n (zipf|uniform)\n"
      "  --csv FILE --scale --epsilon (0, %g] --beta --eta --targets\n"
      "  --seed; every --out DIR is a result tree for `ldpr diff`\n",
      kMaxEpsilon);

  const auto scenarios = ScenarioRegistry::Global().scenarios();
  if (scenarios.empty()) {
    std::printf(
        "\nscenarios: none linked into this binary (use ldpr_bench)\n");
    return 0;
  }
  std::printf("\nscenarios (runnable via ldpr_bench --scenario <id>):\n");
  for (const Scenario* scenario : scenarios) {
    std::printf("  %-18s %s\n", scenario->spec.id.c_str(),
                scenario->spec.title.c_str());
  }
  return 0;
}

}  // namespace cli
}  // namespace ldpr
