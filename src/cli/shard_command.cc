// `ldpr shard-worker` / `ldpr shard-merge`: the multi-process face of
// the sharded aggregation pipeline (src/shard/).
//
//   # Split one MGA trial across 4 worker processes, then merge
//   # (each command on one shell line; wrapped here for width):
//   for i in 0 1 2 3; do
//     ldpr shard-worker --protocol=OUE --attack=MGA --dataset=zipf
//         --seed=7 --workers=4 --worker=$i --out=part$i.jsonl
//   done
//   ldpr shard-merge --protocol=OUE --attack=MGA --dataset=zipf
//       --seed=7 --out=merged/ part0.jsonl part1.jsonl part2.jsonl
//       part3.jsonl
//
//   # The in-process reference tree for `ldpr diff`:
//   ldpr shard-merge --protocol=OUE --attack=MGA --dataset=zipf
//       --seed=7 --workers=4 --inprocess --out=reference/
//
// Both commands derive the trial from the same spec flags: the trial
// flags (cli.h; defaults --dataset=zipf, --attack=none) plus
// --users_per_chunk/--reports_per_chunk.  So the merger independently
// recomputes the chunk geometry the workers used and validates
// completeness against it.  Dataset must be a named generator (no
// --csv): every process has to be able to rebuild the population from
// the spec alone.
//
// shard-worker extras: --workers N, --worker I, --out FILE ("-" =
// stdout).  shard-merge extras: partial files as positional operands,
// --out DIR, --allow_missing (estimate from surviving coverage
// instead of failing), --inprocess + --workers N (compute the
// reference merge without reading files).
//
// shard-merge --out writes an ordinary result tree holding one
// one-row scenario, `shard_merge`:
//
//   DIR/manifest.json
//   DIR/shard_merge/{results.csv,results.jsonl,manifest.json}

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "shard/wire.h"
#include "sim/pipeline.h"

namespace ldpr {
namespace cli {
namespace {

// The spec of the trial the shared flags describe.  A worker and a
// merger launched with the same flags always agree on it (and
// therefore on chunk geometry).
StatusOr<ShardTaskSpec> ParseShardSpec(const FlagParser& flags) {
  const auto trial = ParseTrialFlags(flags, "zipf", "none");
  const auto upc = flags.GetNonNegativeInt("users_per_chunk", 0);
  const auto rpc = flags.GetNonNegativeInt("reports_per_chunk", 0);
  for (const Status& status : {trial.status(), upc.status(), rpc.status()}) {
    if (!status.ok()) return status;
  }
  if (!trial->csv.empty())
    return InvalidArgumentError(
        "shard commands need a named dataset generator, not --csv: every "
        "process must rebuild the population from the spec alone");
  ShardTaskSpec spec;
  spec.protocol = trial->protocol;
  spec.epsilon = trial->epsilon;
  spec.dataset = trial->dataset;
  spec.d_override = trial->d;
  spec.n_override = trial->n;
  spec.scale = trial->scale;
  spec.attack = trial->attack;
  spec.beta = trial->beta;
  spec.num_targets = trial->targets;
  spec.eta = trial->eta;
  spec.seed = trial->seed;
  if (*upc > 0) spec.chunking.users_per_chunk = static_cast<uint64_t>(*upc);
  if (*rpc > 0) spec.chunking.reports_per_chunk = static_cast<uint64_t>(*rpc);
  return spec;
}

StatusOr<ShardTaskPlan> ResolvePlan(const ShardTaskSpec& spec,
                                    Dataset* dataset_out) {
  auto dataset = ResolveBenchDataset(spec.dataset, spec.scale,
                                     static_cast<size_t>(spec.d_override),
                                     spec.n_override);
  if (!dataset.ok()) return dataset.status();
  auto plan = BuildShardTaskPlan(spec, *dataset);
  if (!plan.ok()) return plan.status();
  if (dataset_out != nullptr) *dataset_out = *std::move(dataset);
  return plan;
}

// A switch flag: absent, "false" or "0" is false; empty, "true" or
// "1" is true.  Any other value is an error: usually an operand the
// switch swallowed (`--allow_missing part0.jsonl`), which FlagParser
// reads as the switch's value.
StatusOr<bool> ParseSwitch(const FlagParser& flags, const std::string& name) {
  const std::string value = flags.GetString(name, "false");
  if (value.empty() || value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return InvalidArgumentError("flag --" + name +
                              " is a switch and takes no value, got: " +
                              value + " (write --" + name +
                              "=true before an operand)");
}

}  // namespace

int ShardWorkerCommand(const FlagParser& flags) {
  const auto spec = ParseShardSpec(flags);
  const auto workers = flags.GetInt("workers", 1);
  const auto worker = flags.GetInt("worker", 0);
  const std::string out_path = flags.GetString("out", "-");
  if (const int rc =
          ExitStatus(flags, {spec.status(), workers.status(), worker.status()}))
    return rc;
  const auto plan = ResolvePlan(*spec, nullptr);
  if (const int rc = ExitStatus(
          flags, {Require(flags.positional().empty(),
                          "shard-worker takes no positional operands"),
                  Require(*workers >= 1 && *worker >= 0 && *worker < *workers,
                          "need --workers >= 1 and 0 <= --worker < workers"),
                  plan.status()}))
    return rc;

  const std::vector<PartialRecord> records = ComputeWorkerPartials(
      *plan, static_cast<uint64_t>(*worker), static_cast<uint64_t>(*workers));
  if (const int rc = ExitStatus(flags, {WritePartialFile(out_path, records)}))
    return rc;
  if (out_path != "-") {
    std::fprintf(stderr,
                 "shard-worker %lld/%lld: %zu partial record(s) -> %s\n",
                 static_cast<long long>(*worker),
                 static_cast<long long>(*workers), records.size(),
                 out_path.c_str());
  }
  return 0;
}

int ShardMergeCommand(const FlagParser& flags) {
  const auto spec = ParseShardSpec(flags);
  const auto workers = flags.GetInt("workers", 1);
  const auto inprocess = ParseSwitch(flags, "inprocess");
  const auto allow_missing = ParseSwitch(flags, "allow_missing");
  const std::string out_dir = flags.GetString("out", "");
  if (const int rc =
          ExitStatus(flags, {spec.status(), workers.status(),
                             inprocess.status(), allow_missing.status()}))
    return rc;
  Dataset dataset;
  const auto plan = ResolvePlan(*spec, &dataset);
  if (const int rc = ExitStatus(
          flags,
          {Require(!*inprocess || flags.positional().empty(),
                   "--inprocess computes its own partials; drop the file "
                   "operands"),
           Require(*inprocess || !flags.positional().empty(),
                   "no partial files to merge (or --inprocess)"),
           Require(!*inprocess || *workers >= 1,
                   "--workers must be >= 1 for --inprocess"),
           plan.status()}))
    return rc;

  const StatusOr<MergedPartials> merged = [&]() -> StatusOr<MergedPartials> {
    if (*inprocess)
      return RunShardTaskInProcess(*plan, static_cast<uint64_t>(*workers));
    std::vector<std::string> lines;
    for (const std::string& path : flags.positional()) {
      auto file_lines = ReadPartialLines(path);
      if (!file_lines.ok()) return file_lines.status();
      for (std::string& line : *file_lines) lines.push_back(std::move(line));
    }
    MergeOptions options;
    options.allow_missing = *allow_missing;
    return MergeShardPartials(*plan, lines, options);
  }();
  if (const int rc = ExitStatus(flags, {merged.status()})) return rc;

  const ShardOutcome outcome = ComputeShardOutcome(*plan, dataset, *merged);
  const MergeStats& stats = merged->stats;
  std::printf(
      "shard-merge: %zu line(s), %zu used, %zu rejected, %zu duplicate(s) "
      "dropped\n"
      "coverage: %llu/%llu users, %llu/%llu reports, %llu chunk(s) lost\n"
      "poisoned MSE %.6e, recovered MSE %.6e\n",
      stats.lines_total, stats.records_used, stats.lines_rejected,
      stats.duplicates_dropped,
      static_cast<unsigned long long>(stats.users_covered),
      static_cast<unsigned long long>(plan->n),
      static_cast<unsigned long long>(stats.reports_covered),
      static_cast<unsigned long long>(plan->m),
      static_cast<unsigned long long>(stats.genuine_chunks_lost +
                                      stats.malicious_chunks_lost),
      outcome.poisoned_mse, outcome.recovered_mse);
  if (out_dir.empty()) return 0;

  // The outcome as the one-row `shard_merge` scenario of a result
  // tree, so a multi-process merge and its --inprocess reference
  // compare with `ldpr diff`.  The summary above is the console view.
  ScenarioSpec scenario;
  scenario.id = "shard_merge";
  scenario.title = "Sharded merge outcome";
  scenario.columns = {"PoisonedMSE", "RecoveredMSE", "Neff",
                      "Meff",        "GenDigest",    "MalDigest",
                      "ChunksLost",  "LinesRejected", "DupsDropped"};
  ScenarioRunReport run;
  run.info.seed = plan->spec.seed;
  run.info.scale = plan->spec.scale;
  run.info.trials = 1;
  run.info.threads = 1;
  ResultOutput output(std::move(scenario), out_dir, /*console=*/false);
  if (const int rc = ExitStatus(flags, {output.Open(run, dataset)})) return rc;
  output.WriteTable(
      "Shard merge (" + dataset.name + ")",
      {{std::string(ProtocolKindName(plan->spec.protocol)) + "/" +
            AttackKindName(plan->spec.attack),
        {outcome.poisoned_mse, outcome.recovered_mse,
         static_cast<double>(outcome.n_eff),
         static_cast<double>(outcome.m_eff), outcome.genuine_digest,
         outcome.malicious_digest,
         static_cast<double>(stats.genuine_chunks_lost +
                             stats.malicious_chunks_lost),
         static_cast<double>(stats.lines_rejected),
         static_cast<double>(stats.duplicates_dropped)}}});
  return ExitStatus(flags, {output.Finish()});
}

}  // namespace cli
}  // namespace ldpr
