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
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }
  std::printf(
      "commands:\n"
      "  run           --protocol --attack --dataset|--csv --epsilon --beta\n"
      "                --eta --targets --trials --seed --scale --top_k\n"
      "                --threads --out FILE\n"
      "  stream        --protocol --dataset|--csv --epsilon --beta --eta\n"
      "                --targets --seed --scale --window --stride --wave\n"
      "                --out FILE\n"
      "  shard-worker  spec flags (--protocol --attack --dataset --d --n\n"
      "                --scale --epsilon --beta --targets --eta --seed\n"
      "                --users_per_chunk --reports_per_chunk) plus\n"
      "                --workers N --worker I --out FILE|-\n"
      "  shard-merge   spec flags plus partial files as operands,\n"
      "                --allow_missing, --out DIR, or --inprocess\n"
      "                --workers N for the in-process reference\n"
      "  diff          [--tolerance=REL] TREE_A TREE_B; exact without\n"
      "                --tolerance; exit 0 agree, 1 drift, 2 usage/load\n"
      "  list          this listing\n");

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
