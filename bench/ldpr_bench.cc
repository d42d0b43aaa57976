// ldpr_bench: the one driver for every paper figure/table scenario.
//
//   # What can I run?
//   ldpr_bench --list
//
//   # Reproduce Figure 3 and Table I on the console:
//   ldpr_bench --scenario fig3,table1
//
//   # Machine-readable run: per-scenario results.csv / results.jsonl
//   # plus a manifest.json recording seed/scale/threads/git version,
//   # and a top-level results/manifest.json indexing the whole tree
//   # (the input `ldpr diff` compares across runs):
//   ldpr_bench --scenario fig3 --out results/
//
//   # Paper fidelity:
//   ldpr_bench --scenario all --scale=1 --trials=10 --out results/
//
// Flags (defaults in brackets): --scenario ID[,ID...]|all, --list,
// --out DIR, --seed [scenario default, 20240213], --trials [3, in
// [1, kMaxTrials] (sim/experiment.h)], --scale [0.05, in (0, 1]],
// --threads [0 = auto: LDPR_THREADS or hardware concurrency].
//
// Output is byte-identical at any --threads value; the manifest (not
// the result files) records the thread budget actually used.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "runner/manifest.h"
#include "runner/result_sink.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "util/flags.h"

namespace ldpr {
namespace bench {
namespace {

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

void PrintScenarioList() {
  std::printf("%-14s %-12s %s\n", "id", "artifact", "title");
  std::printf("%s\n", std::string(72, '-').c_str());
  for (const Scenario* scenario : ScenarioRegistry::Global().scenarios()) {
    std::printf("%-14s %-12s %s\n", scenario->spec.id.c_str(),
                scenario->spec.artifact.c_str(), scenario->spec.title.c_str());
  }
  std::printf(
      "\nRun with: ldpr_bench --scenario <id>[,<id>...] [--out DIR] "
      "[--scale F] [--trials N] [--seed N] [--threads N]\n");
}

int Fail(const std::string& id, const Status& status) {
  std::fprintf(stderr, "error: scenario %s: %s\n", id.c_str(),
               status.ToString().c_str());
  return 1;
}

// Runs one scenario to the console and, on --out runs (`tree` set),
// into its directory of the result tree.
int RunScenarioById(const std::string& id, const ScenarioRunOptions& options,
                    ResultTreeWriter* tree, const std::string& out_dir) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(id);
  if (scenario == nullptr) {
    std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                 id.c_str());
    return 1;
  }

  std::vector<std::unique_ptr<ResultSink>> sinks;
  sinks.push_back(std::make_unique<ConsoleSink>());
  if (tree != nullptr) {
    const Status opened = tree->OpenScenario(id, sinks);
    if (!opened.ok()) return Fail(id, opened);
  }
  MultiSink sink(std::move(sinks));

  const auto report = RunScenario(*scenario, options, sink);
  if (!report.ok()) return Fail(id, report.status());
  const Status finish = sink.Finish();
  if (!finish.ok()) return Fail(id, finish);

  if (tree != nullptr) {
    // The report carries the resolved knobs/dataset sizes the sinks
    // saw, so the manifest is guaranteed to describe the actual run.
    const Status closed = tree->CloseScenario(scenario->spec, *report);
    if (!closed.ok()) return Fail(id, closed);
    std::printf("wrote %s/%s/{results.csv,results.jsonl,manifest.json}\n\n",
                out_dir.c_str(), id.c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  RegisterAllScenarios();
  const FlagParser flags(argc, argv);

  const bool list = flags.GetBool("list", false);
  const std::string scenario_list = flags.GetString("scenario", "");
  const std::string out_dir = flags.GetString("out", "");
  const auto seed = flags.GetNonNegativeInt("seed", 0);
  const auto trials = flags.GetNonNegativeInt("trials", 0);
  const auto scale = flags.GetDouble("scale", 0.0);
  const auto threads = flags.GetNonNegativeInt("threads", 0);

  for (const Status& status :
       {seed.status(), trials.status(), scale.status(), threads.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  // An explicit value is used as given: 0 would otherwise read as
  // "unset" and silently run the default.  RunScenario rejects a
  // count past kMaxTrials.
  if (flags.Has("trials") && *trials < 1) {
    std::fprintf(stderr, "error: --trials must be an integer >= 1\n");
    return 1;
  }
  if (flags.Has("scale") && !(*scale > 0.0 && *scale <= 1.0)) {
    std::fprintf(stderr, "error: --scale must be a number in (0, 1]\n");
    return 1;
  }
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s (try --list)\n",
                 unused.c_str());
    return 1;
  }

  if (list) {
    PrintScenarioList();
    return 0;
  }
  if (scenario_list.empty()) {
    std::fprintf(stderr,
                 "usage: ldpr_bench --scenario <id>[,<id>...] [--out DIR]\n"
                 "       ldpr_bench --list\n");
    return 2;
  }
  if (*threads > 0) {
    // The pool is created lazily at first parallel work, so routing
    // the flag through LDPR_THREADS reaches every "0 = auto" caller.
    // 0 keeps the auto default (the `ldpr` CLI's convention).
    setenv("LDPR_THREADS", std::to_string(*threads).c_str(), 1);
  }

  ScenarioRunOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.trials = static_cast<size_t>(*trials);
  options.scale = *scale;

  std::vector<std::string> ids = SplitCommaList(scenario_list);
  if (ids.size() == 1 && ids[0] == "all") {
    ids.clear();
    for (const Scenario* scenario : ScenarioRegistry::Global().scenarios())
      ids.push_back(scenario->spec.id);
  }
  if (ids.empty()) {
    std::fprintf(stderr, "error: --scenario list is empty (try --list)\n");
    return 1;
  }
  std::unique_ptr<ResultTreeWriter> tree;
  if (!out_dir.empty()) tree = std::make_unique<ResultTreeWriter>(out_dir);
  for (const std::string& id : ids) {
    const int rc = RunScenarioById(id, options, tree.get(), out_dir);
    if (rc != 0) return rc;
  }
  if (tree != nullptr) {
    // The tree manifest makes the tree self-describing for
    // `ldpr diff`: which scenarios ran, under which knobs, into which
    // files.
    const Status written = tree->Finish();
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s/manifest.json (%zu scenario%s)\n", out_dir.c_str(),
                tree->scenarios(), tree->scenarios() == 1 ? "" : "s");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::bench::Run(argc, argv); }
