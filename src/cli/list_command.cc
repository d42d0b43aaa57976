// `ldpr list`: the discovery surface — subcommands, their flag
// summaries, and the registered bench scenarios.

#include <cstdio>
#include <string>

#include "cli/cli.h"
#include "runner/registry.h"
#include "sim/experiment.h"
#include "util/thread_pool.h"

namespace ldpr {
namespace cli {

int ListCommand(const FlagParser& flags) {
  if (const int rc = ExitStatus(flags, {})) return rc;
  std::printf(
      "commands:\n"
      "  run     trial flags plus --trials [1, %lld] --top_k\n"
      "          --threads [0, %zu] --out DIR\n"
      "  stream  trial flags except --attack, plus --window --stride\n"
      "          --wave --out DIR\n"
      "  bench   --scenario ID[,ID...]|all --out DIR --seed\n"
      "          --trials [1, %lld] --scale (0, 1] --threads [0, %zu]\n"
      "  diff    [--tolerance=REL] TREE_A TREE_B; exact without\n"
      "          --tolerance; exit 0 agree, 1 drift, 2 usage/load\n"
      "  list    this listing\n"
      "\n"
      "trial flags: --protocol --attack --dataset --d [2, %lld]\n"
      "  --n [1, %lld] (zipf|uniform) --csv FILE --scale --epsilon\n"
      "  (0, %g] --beta --eta --targets --seed; every --out DIR is a\n"
      "  result tree for `ldpr diff`\n",
      static_cast<long long>(kMaxTrials), kMaxThreads,
      static_cast<long long>(kMaxTrials), kMaxThreads,
      static_cast<long long>(kMaxDomainSize),
      static_cast<long long>(kMaxUsers), kMaxEpsilon);

  std::printf("\nscenarios (runnable via ldpr bench --scenario <id>):\n");
  for (const Scenario* scenario : ScenarioRegistry::Global().scenarios()) {
    std::printf("  %-18s %s\n", scenario->spec.id.c_str(),
                scenario->spec.title.c_str());
  }
  return 0;
}

}  // namespace cli
}  // namespace ldpr
