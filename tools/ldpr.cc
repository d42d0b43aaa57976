// ldpr: the subcommand CLI (src/cli/cli.h).  It registers the bench
// scenarios so `ldpr bench` can run them and `ldpr list` enumerate
// them; the other subcommands never read the registry.

#include "cli/cli.h"
#include "scenarios.h"

int main(int argc, char** argv) {
  ldpr::bench::RegisterAllScenarios();
  return ldpr::cli::Main(argc, argv);
}
