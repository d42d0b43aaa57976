// ldpr_bench: an alias of `ldpr bench` (src/cli/bench_command.cc),
// kept only because perf/record_reference.py, its one caller, runs
// it by this name.  Every other scenario run goes through `ldpr bench`.

#include "cli/cli.h"
#include "scenarios.h"

int main(int argc, char** argv) {
  ldpr::bench::RegisterAllScenarios();
  return ldpr::cli::BenchCommand(ldpr::FlagParser(argc, argv));
}
