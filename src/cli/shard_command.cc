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
// Both commands derive the trial from the same spec flags
// (--protocol/--epsilon/--dataset/--d/--n/--scale/--attack/--beta/
// --targets/--eta/--seed/--users_per_chunk/--reports_per_chunk), so
// the merger independently recomputes the chunk geometry the workers
// used and validates completeness against it.  Dataset must be a
// named generator (no --csv): every process has to be able to rebuild
// the population from the spec alone.
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
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "shard/wire.h"
#include "sim/pipeline.h"

namespace ldpr {
namespace cli {
namespace {

// Parses the shared spec flags.  Every flag has the library default,
// so a worker and a merger launched with the same explicit flags
// always agree on the spec (and therefore on chunk geometry).
StatusOr<ShardTaskSpec> ParseShardSpec(const FlagParser& flags) {
  ShardTaskSpec spec;
  const auto protocol = ParseProtocolKind(flags.GetString("protocol", "GRR"));
  if (!protocol.ok()) return protocol.status();
  spec.protocol = *protocol;
  const auto attack = ParseAttackKind(flags.GetString("attack", "none"));
  if (!attack.ok()) return attack.status();
  spec.attack = *attack;
  if (!flags.GetString("csv", "").empty())
    return InvalidArgumentError(
        "shard commands need a named dataset generator, not --csv: every "
        "process must rebuild the population from the spec alone");
  spec.dataset = flags.GetString("dataset", "zipf");
  const auto epsilon = flags.GetDouble("epsilon", spec.epsilon);
  if (!epsilon.ok()) return epsilon.status();
  spec.epsilon = *epsilon;
  const auto d = flags.GetNonNegativeInt("d", 0);
  if (!d.ok()) return d.status();
  spec.d_override = static_cast<uint64_t>(*d);
  const auto n = flags.GetNonNegativeInt("n", 0);
  if (!n.ok()) return n.status();
  spec.n_override = static_cast<uint64_t>(*n);
  const auto scale = flags.GetDouble("scale", 1.0);
  if (!scale.ok()) return scale.status();
  if (!(*scale > 0.0 && *scale <= 1.0))
    return InvalidArgumentError("--scale must be in (0, 1]");
  spec.scale = *scale;
  const auto beta = flags.GetDouble("beta", spec.beta);
  if (!beta.ok()) return beta.status();
  spec.beta = *beta;
  const auto targets = flags.GetInt("targets", 10);
  if (!targets.ok()) return targets.status();
  if (*targets < 1) return InvalidArgumentError("--targets must be >= 1");
  spec.num_targets = static_cast<uint64_t>(*targets);
  const auto eta = flags.GetDouble("eta", spec.eta);
  if (!eta.ok()) return eta.status();
  spec.eta = *eta;
  const auto seed = flags.GetNonNegativeInt("seed", 1);
  if (!seed.ok()) return seed.status();
  spec.seed = static_cast<uint64_t>(*seed);
  const auto upc = flags.GetNonNegativeInt("users_per_chunk", 0);
  if (!upc.ok()) return upc.status();
  if (*upc > 0) spec.chunking.users_per_chunk = static_cast<uint64_t>(*upc);
  const auto rpc = flags.GetNonNegativeInt("reports_per_chunk", 0);
  if (!rpc.ok()) return rpc.status();
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

// Writes the merge outcome as the one-row `shard_merge` scenario of a
// result tree rooted at `root`, so a multi-process merge and its
// --inprocess reference compare with `ldpr diff`.
Status WriteMergeTree(const std::string& root, const ShardTaskPlan& plan,
                      const Dataset& dataset, const ShardOutcome& outcome,
                      const MergeStats& stats) {
  ScenarioSpec spec;
  spec.id = "shard_merge";
  spec.title = "Sharded merge outcome";
  spec.artifact = "extension";
  spec.columns = {"PoisonedMSE", "RecoveredMSE", "Neff",
                  "Meff",        "GenDigest",    "MalDigest",
                  "ChunksLost",  "LinesRejected", "DupsDropped"};
  ScenarioRunReport report;
  report.tables = 1;
  report.rows = 1;
  report.info.id = spec.id;
  report.info.seed = plan.spec.seed;
  report.info.scale = plan.spec.scale;
  report.info.trials = 1;
  report.info.threads = 1;
  report.info.datasets.push_back(
      {dataset.name, dataset.domain_size(), dataset.num_users()});

  ResultTreeWriter tree(root);
  std::vector<std::unique_ptr<ResultSink>> sinks;
  Status status = tree.OpenScenario(spec.id, sinks);
  if (!status.ok()) return status;
  MultiSink sink(std::move(sinks));
  sink.BeginScenario(report.info);
  sink.BeginTable("Shard merge (" + dataset.name + ")", spec.columns);
  sink.AddRow(std::string(ProtocolKindName(plan.spec.protocol)) + "/" +
                  AttackKindName(plan.spec.attack),
              {outcome.poisoned_mse, outcome.recovered_mse,
               static_cast<double>(outcome.n_eff),
               static_cast<double>(outcome.m_eff), outcome.genuine_digest,
               outcome.malicious_digest,
               static_cast<double>(stats.genuine_chunks_lost +
                                   stats.malicious_chunks_lost),
               static_cast<double>(stats.lines_rejected),
               static_cast<double>(stats.duplicates_dropped)});
  sink.EndTable();
  status = sink.Finish();
  if (!status.ok()) return status;
  status = tree.CloseScenario(spec, report);
  if (!status.ok()) return status;
  return tree.Finish();
}

int FailUnusedFlags(const FlagParser& flags) {
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int ShardWorkerCommand(const FlagParser& flags) {
  auto spec = ParseShardSpec(flags);
  const auto workers = flags.GetInt("workers", 1);
  const auto worker = flags.GetInt("worker", 0);
  const std::string out_path = flags.GetString("out", "-");
  for (const Status& status :
       {spec.status(), workers.status(), worker.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (int rc = FailUnusedFlags(flags); rc != 0) return rc;
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "error: shard-worker takes no positional operands\n");
    return 1;
  }
  if (*workers < 1 || *worker < 0 || *worker >= *workers) {
    std::fprintf(stderr,
                 "error: need --workers >= 1 and 0 <= --worker < workers\n");
    return 1;
  }

  auto plan = ResolvePlan(*spec, nullptr);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  const std::vector<PartialRecord> records = ComputeWorkerPartials(
      *plan, static_cast<uint64_t>(*worker), static_cast<uint64_t>(*workers));
  const Status written = WritePartialFile(out_path, records);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
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
  auto spec = ParseShardSpec(flags);
  const auto workers = flags.GetInt("workers", 1);
  const bool inprocess = flags.GetBool("inprocess", false);
  const bool allow_missing = flags.GetBool("allow_missing", false);
  const std::string out_dir = flags.GetString("out", "");
  for (const Status& status :
       {spec.status(), workers.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (int rc = FailUnusedFlags(flags); rc != 0) return rc;
  if (inprocess && !flags.positional().empty()) {
    std::fprintf(stderr,
                 "error: --inprocess computes its own partials; drop the "
                 "file operands\n");
    return 1;
  }
  if (!inprocess && flags.positional().empty()) {
    std::fprintf(stderr, "error: no partial files to merge (or --inprocess)\n");
    return 1;
  }

  Dataset dataset;
  auto plan = ResolvePlan(*spec, &dataset);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  StatusOr<MergedPartials> merged = [&]() -> StatusOr<MergedPartials> {
    if (inprocess) {
      if (*workers < 1)
        return InvalidArgumentError("--workers must be >= 1 for --inprocess");
      return RunShardTaskInProcess(*plan, static_cast<uint64_t>(*workers));
    }
    std::vector<std::string> lines;
    for (const std::string& path : flags.positional()) {
      auto file_lines = ReadPartialLines(path);
      if (!file_lines.ok()) return file_lines.status();
      for (std::string& line : *file_lines) lines.push_back(std::move(line));
    }
    MergeOptions options;
    options.allow_missing = allow_missing;
    return MergeShardPartials(*plan, lines, options);
  }();
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().ToString().c_str());
    return 1;
  }

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

  if (!out_dir.empty()) {
    const Status written =
        WriteMergeTree(out_dir, *plan, dataset, outcome, stats);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s/manifest.json and %s/shard_merge/"
                "{results.csv,results.jsonl,manifest.json}\n",
                out_dir.c_str(), out_dir.c_str());
  }
  return 0;
}

}  // namespace cli
}  // namespace ldpr
