// `ldpr bench`: runs registered scenarios (every paper figure and
// table, and the extension scenarios; `ldpr list` names them) to the
// console and, with --out, into one result tree.
//
//   # Reproduce Figure 3 and Table I on the console:
//   ldpr bench --scenario fig3,table1
//
//   # Machine-readable run: per-scenario results.jsonl plus a
//   # manifest.json recording seed/scale/threads/git version,
//   # and a top-level results/manifest.json indexing the whole tree
//   # (the input `ldpr diff` compares across runs):
//   ldpr bench --scenario fig3 --out results/
//
//   # Paper fidelity:
//   ldpr bench --scenario all --scale=1 --trials=10 --out results/
//
// Flags (defaults in brackets): --scenario ID[,ID...]|all, --out DIR,
// --seed [scenario default, 20240213], --trials [3, in
// [1, kMaxTrials] (sim/experiment.h)], --scale [0.05, in (0, 1]],
// --threads [0 = auto: LDPR_THREADS or hardware concurrency].
//
// Output is byte-identical at any --threads value; the manifest (not
// the result files) records the thread budget actually used.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "runner/scenario_runner.h"
#include "sim/experiment.h"
#include "util/thread_pool.h"

namespace ldpr {
namespace cli {
namespace {

// The registered scenarios of a comma-separated id list, in list
// order; "all" is every scenario in registration order.
StatusOr<std::vector<const Scenario*>> ResolveScenarios(
    const std::string& list) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  if (list == "all") return registry.scenarios();
  std::vector<const Scenario*> scenarios;
  std::istringstream ids(list);
  for (std::string id; std::getline(ids, id, ',');) {
    if (id.empty()) continue;
    const Scenario* scenario = registry.Find(id);
    if (scenario == nullptr)
      return InvalidArgumentError("unknown scenario '" + id +
                                  "' (`ldpr list` names them)");
    scenarios.push_back(scenario);
  }
  if (scenarios.empty())
    return InvalidArgumentError("--scenario needs ID[,ID...] or all");
  return scenarios;
}

// Runs one scenario to the console and, on --out runs (`tree` set),
// into its directory of the result tree.
Status RunOne(const Scenario& scenario, const ScenarioRunOptions& options,
              ResultTreeWriter* tree) {
  std::vector<std::unique_ptr<ResultSink>> sinks;
  sinks.push_back(std::make_unique<ConsoleSink>());
  if (tree != nullptr) {
    const Status opened = tree->OpenScenario(scenario.spec.id, sinks);
    if (!opened.ok()) return opened;
  }
  MultiSink sink(std::move(sinks));
  const auto report = RunScenario(scenario, options, sink);
  if (!report.ok()) return report.status();
  const Status finished = sink.Finish();
  if (!finished.ok() || tree == nullptr) return finished;
  // The report carries the resolved knobs/dataset sizes the sinks
  // saw, so the manifest is guaranteed to describe the actual run.
  return tree->CloseScenario(scenario.spec, *report);
}

}  // namespace

int BenchCommand(const FlagParser& flags) {
  const auto scenarios = ResolveScenarios(flags.GetString("scenario", ""));
  const std::string out_dir = flags.GetString("out", "");
  const auto seed = flags.GetNonNegativeInt("seed", 0);
  const auto trials = flags.GetNonNegativeInt("trials", 0);
  const auto scale = flags.GetDouble("scale", 0.0);
  const auto threads = flags.GetNonNegativeInt("threads", 0);
  if (const int rc = ExitStatus(flags, {seed.status(), trials.status(),
                                        scale.status(), threads.status()}))
    return rc;
  // An explicit value is used as given: 0 would otherwise read as
  // "unset" and silently run the default.
  if (const int rc = ExitStatus(
          flags,
          {flags.Has("trials") ? RequireInRange("trials", *trials, 1,
                                                kMaxTrials)
                               : Status::Ok(),
           Require(!flags.Has("scale") || (*scale > 0.0 && *scale <= 1.0),
                   "--scale must be in (0, 1]"),
           RequireInRange("threads", *threads, 0,
                          static_cast<int64_t>(kMaxThreads)),
           scenarios.status()}))
    return rc;
  if (*threads > 0) {
    // The pool is created lazily at first parallel work, so routing
    // the flag through LDPR_THREADS reaches every "0 = auto" caller.
    // 0 keeps the auto default (the `ldpr run` convention).
    setenv("LDPR_THREADS", std::to_string(*threads).c_str(), 1);
  }

  ScenarioRunOptions options;
  options.seed = static_cast<uint64_t>(*seed);
  options.trials = static_cast<size_t>(*trials);
  options.scale = *scale;
  ResultTreeWriter tree(out_dir);
  ResultTreeWriter* const tree_or_null = out_dir.empty() ? nullptr : &tree;
  for (const Scenario* scenario : *scenarios) {
    const std::string& id = scenario->spec.id;
    const Status status = RunOne(*scenario, options, tree_or_null);
    if (!status.ok()) {
      std::fprintf(stderr, "error: scenario %s: %s\n", id.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    if (tree_or_null != nullptr)
      std::printf("wrote %s/%s/{results.jsonl,manifest.json}\n\n",
                  out_dir.c_str(), id.c_str());
  }
  if (tree_or_null == nullptr) return 0;
  // The tree manifest makes the tree self-describing for `ldpr diff`:
  // which scenarios ran, under which knobs, into which files.
  if (const int rc = ExitStatus(flags, {tree.Finish()})) return rc;
  std::printf("wrote %s/manifest.json (%zu scenario%s)\n", out_dir.c_str(),
              tree.scenarios(), tree.scenarios() == 1 ? "" : "s");
  return 0;
}

}  // namespace cli
}  // namespace ldpr
