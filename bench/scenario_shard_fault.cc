// Shard-fault scenarios (extension): the multi-process sharded
// aggregation pipeline (src/shard/) run against its deterministic
// fault injector, measuring what partial-delivery failures do to
// estimate and recovery accuracy.  Two scenarios, one row per
// implemented protocol:
//
//   shard_fault_loss   estimate MSE vs the fraction of killed worker
//                      shards (0 / 25% / 50%), under a genuine-only
//                      load and under MGA, plus LDPRecover MSE at 0
//                      and 50% loss.  The merger estimates from the
//                      covered population (n_eff), so accuracy
//                      degrades through lost mass, not a wrong
//                      normalizer.
//   shard_fault_mixed  one cell per remaining fault type: duplicate
//                      delivery (DupDrift — max |counts difference|
//                      vs the clean merge, exactly 0.0 by
//                      idempotence), torn writes and payload bit
//                      flips (TornRej / FlipRej — the fraction of
//                      damaged lines the wire layer rejected, exactly
//                      1.0 by the checksum contract), stragglers
//                      (StragLoss — fraction of chunks lost), and a
//                      combined-fault estimate MSE.
//
// Chunking: the library defaults (2^16 users / 2^13 reports per
// chunk) would put a CI-scale population into a single chunk, so
// these scenarios shrink chunks to ~1/16 of the population — a pure
// function of n, so results stay a function of (spec, seed, scale,
// trials) only.  Worker fleet: 8 processes-worth of ranges, computed
// in-process (the multi-process smoke leg in CI exercises the real
// process boundary; here the wire bytes are what matters).
//
// Determinism: every fault plan derives from the trial seed
// (DeriveSeed streams), the (cell x trial) grid fans out through
// RunTrialTable, and merging is associativity-exact integer sums — no
// timing columns, full byte-compare determinism
// (tests/shard_scenario_test.cc, scenario_*_determinism ctest).

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "shard/fault.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "sim/pipeline.h"
#include "util/metrics.h"
#include "util/random.h"

namespace ldpr {
namespace bench {
namespace {

constexpr uint64_t kFaultWorkers = 8;

// ~16 genuine chunks / ~8 malicious chunks at any population size, so
// fractional shard loss is expressible even on CI-scale data.
ShardChunking FaultChunking(uint64_t n, uint64_t m) {
  ShardChunking chunking;
  chunking.users_per_chunk = std::max<uint64_t>(1, (n + 15) / 16);
  chunking.reports_per_chunk = std::max<uint64_t>(1, (m + 7) / 8);
  return chunking;
}

ShardTaskSpec MakeFaultSpec(const ScenarioSpec& spec, const Dataset& data,
                            ProtocolKind protocol, AttackKind attack,
                            double scale, uint64_t trial_seed) {
  ShardTaskSpec task;
  task.protocol = protocol;
  task.epsilon = spec.defaults.epsilon;
  task.dataset = "zipf";
  task.scale = scale;
  task.attack = attack;
  task.beta = spec.defaults.beta;
  task.num_targets = spec.defaults.num_targets;
  task.eta = spec.defaults.eta;
  task.seed = trial_seed;
  const uint64_t n = data.num_users();
  const uint64_t m = attack == AttackKind::kNone
                         ? 0
                         : MaliciousUserCount(spec.defaults.beta, n);
  task.chunking = FaultChunking(n, m);
  return task;
}

std::vector<std::vector<std::string>> WorkerLines(const ShardTaskPlan& plan) {
  std::vector<std::vector<std::string>> lines(kFaultWorkers);
  for (uint64_t w = 0; w < kFaultWorkers; ++w) {
    for (const PartialRecord& rec :
         ComputeWorkerPartials(plan, w, kFaultWorkers))
      lines[w].push_back(EncodePartialLine(rec));
  }
  return lines;
}

// Merge under a fault plan and return (outcome, stats, delivery);
// returns NaN MSEs when the merge cannot estimate at all (everything
// lost) so a row stays well-defined at any loss fraction.
struct FaultedMerge {
  StatusOr<MergedPartials> merged = InternalError("unset");
  FaultyDelivery delivery;
};

FaultedMerge MergeUnderFaults(const ShardTaskPlan& plan,
                              const std::vector<std::vector<std::string>>&
                                  worker_lines,
                              const FaultSpec& fault_spec) {
  FaultedMerge result;
  const FaultPlan fault_plan = MakeFaultPlan(fault_spec, kFaultWorkers);
  result.delivery = ApplyFaultPlan(fault_plan, worker_lines);
  MergeOptions options;
  options.allow_missing = true;
  result.merged = MergeShardPartials(plan, result.delivery.lines, options);
  return result;
}

double PoisonedMseOr(const ShardTaskPlan& plan, const Dataset& data,
                     const StatusOr<MergedPartials>& merged, double fallback) {
  if (!merged.ok()) return fallback;
  return ComputeShardOutcome(plan, data, *merged).poisoned_mse;
}

// One table with a row per spec protocol: fn(protocol, trial_seed)
// returns one trial's columns.
template <typename Fn>
void RunProtocolTable(ScenarioContext& ctx, const std::string& title,
                      const Fn& fn) {
  std::vector<std::string> labels;
  for (ProtocolKind kind : ctx.spec.protocols)
    labels.push_back(ProtocolKindName(kind));
  RunTrialTable(ctx, title, labels, ctx.seed,
                [&](size_t cell, size_t /*shards*/, uint64_t trial_seed) {
                  return fn(ctx.spec.protocols[cell], trial_seed);
                });
}

// ------------------------------------------------------------- loss

Status RunShardFaultLoss(ScenarioContext& ctx) {
  const ScenarioSpec& spec = ctx.spec;
  const Dataset& data = ctx.datasets[0];
  const double kill_fractions[3] = {0.0, 0.25, 0.5};

  RunProtocolTable(
      ctx,
      "Shard loss: estimate MSE vs killed-shard fraction (Zipf, 8 workers)",
      [&](ProtocolKind protocol, uint64_t trial_seed) {
        // Columns: GenL0..GenL50, MgaL0..MgaL50, RecL0, RecL50.
        std::vector<double> row(spec.columns.size(), 0.0);
        const ShardTaskSpec gen_spec = MakeFaultSpec(
            spec, data, protocol, AttackKind::kNone, ctx.scale, trial_seed);
        const ShardTaskSpec mga_spec = MakeFaultSpec(
            spec, data, protocol, AttackKind::kMga, ctx.scale, trial_seed);
        auto gen_plan = BuildShardTaskPlan(gen_spec, data);
        auto mga_plan = BuildShardTaskPlan(mga_spec, data);
        if (!gen_plan.ok() || !mga_plan.ok())
          return row;  // unreachable for the registered spec
        const auto gen_lines = WorkerLines(*gen_plan);
        const auto mga_lines = WorkerLines(*mga_plan);
        const double nan = std::nan("");
        for (int k = 0; k < 3; ++k) {
          FaultSpec fault;
          fault.kill_fraction = kill_fractions[k];
          fault.seed = DeriveSeed(trial_seed, 9000 + k);
          const FaultedMerge gen =
              MergeUnderFaults(*gen_plan, gen_lines, fault);
          const FaultedMerge mga =
              MergeUnderFaults(*mga_plan, mga_lines, fault);
          row[k] = PoisonedMseOr(*gen_plan, data, gen.merged, nan);
          row[3 + k] = PoisonedMseOr(*mga_plan, data, mga.merged, nan);
          if (k == 0 || k == 2) {
            double rec = nan;
            if (mga.merged.ok())
              rec = ComputeShardOutcome(*mga_plan, data, *mga.merged)
                        .recovered_mse;
            row[k == 0 ? 6 : 7] = rec;
          }
        }
        return row;
      });
  return Status::Ok();
}

// ------------------------------------------------------------ mixed

Status RunShardFaultMixed(ScenarioContext& ctx) {
  const ScenarioSpec& spec = ctx.spec;
  const Dataset& data = ctx.datasets[0];

  RunProtocolTable(
      ctx,
      "Shard faults: duplicates, torn writes, bit flips, stragglers (Zipf, "
      "8 workers, MGA)",
      [&](ProtocolKind protocol, uint64_t trial_seed) -> std::vector<double> {
        const std::vector<double> zeros(spec.columns.size(), 0.0);
        const ShardTaskSpec task_spec = MakeFaultSpec(
            spec, data, protocol, AttackKind::kMga, ctx.scale, trial_seed);
        auto plan = BuildShardTaskPlan(task_spec, data);
        if (!plan.ok()) return zeros;  // unreachable for the registered spec
        const auto lines = WorkerLines(*plan);
        const uint64_t total_chunks = plan->total_chunks();

        const auto clean = RunShardTaskInProcess(*plan, kFaultWorkers);
        if (!clean.ok()) return zeros;

        double dup_drift = 0, torn_rej = 0, flip_rej = 0, straggler_loss = 0;

        // Duplicate delivery must merge to the clean counts exactly.
        FaultSpec dup_fault;
        dup_fault.duplicate_fraction = 0.5;
        dup_fault.seed = DeriveSeed(trial_seed, 9100);
        const FaultedMerge dup = MergeUnderFaults(*plan, lines, dup_fault);
        if (dup.merged.ok()) {
          for (size_t v = 0; v < clean->genuine_counts.size(); ++v) {
            dup_drift = std::max(
                dup_drift, std::abs(dup.merged->genuine_counts[v] -
                                    clean->genuine_counts[v]) +
                               std::abs(dup.merged->malicious_counts[v] -
                                        clean->malicious_counts[v]));
          }
        }

        // Every torn line and every flipped line must be rejected by
        // the wire layer (fraction == 1.0).
        FaultSpec torn_fault;
        torn_fault.torn_fraction = 0.25;
        torn_fault.seed = DeriveSeed(trial_seed, 9200);
        const FaultedMerge torn = MergeUnderFaults(*plan, lines, torn_fault);
        if (torn.merged.ok() && torn.delivery.lines_torn > 0) {
          torn_rej = static_cast<double>(torn.merged->stats.lines_rejected) /
                     static_cast<double>(torn.delivery.lines_torn);
        }
        FaultSpec flip_fault;
        flip_fault.bitflip_fraction = 0.25;
        flip_fault.seed = DeriveSeed(trial_seed, 9300);
        const FaultedMerge flip = MergeUnderFaults(*plan, lines, flip_fault);
        if (flip.merged.ok() && flip.delivery.lines_flipped > 0) {
          flip_rej = static_cast<double>(flip.merged->stats.lines_rejected) /
                     static_cast<double>(flip.delivery.lines_flipped);
        }

        // Stragglers: coverage lost to late arrivals.
        FaultSpec straggler_fault;
        straggler_fault.straggler_fraction = 0.25;
        straggler_fault.seed = DeriveSeed(trial_seed, 9400);
        const FaultedMerge straggler =
            MergeUnderFaults(*plan, lines, straggler_fault);
        if (straggler.merged.ok() && total_chunks > 0) {
          straggler_loss =
              static_cast<double>(
                  straggler.merged->stats.genuine_chunks_lost +
                  straggler.merged->stats.malicious_chunks_lost) /
              static_cast<double>(total_chunks);
        }

        // Everything at once: the estimate should still come back.
        FaultSpec all_fault;
        all_fault.kill_fraction = 0.125;
        all_fault.straggler_fraction = 0.125;
        all_fault.duplicate_fraction = 0.25;
        all_fault.torn_fraction = 0.125;
        all_fault.bitflip_fraction = 0.125;
        all_fault.seed = DeriveSeed(trial_seed, 9500);
        const FaultedMerge all = MergeUnderFaults(*plan, lines, all_fault);
        return {dup_drift, torn_rej, flip_rej, straggler_loss,
                PoisonedMseOr(*plan, data, all.merged, std::nan(""))};
      });
  return Status::Ok();
}

Scenario MakeShardFaultScenario(const char* id, const char* title,
                                std::vector<std::string> columns) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = id;
  spec.title = title;
  spec.artifact = "extension";
  spec.metric_desc = "estimate MSE under shard faults";
  spec.datasets = {"zipf"};
  spec.protocols.assign(std::begin(kExtendedProtocolKinds),
                        std::end(kExtendedProtocolKinds));
  spec.attacks = {AttackKind::kMga};
  spec.columns = std::move(columns);
  spec.custom = true;
  return scenario;
}

}  // namespace

void RegisterShardFaultLoss(ScenarioRegistry& registry) {
  Scenario scenario = MakeShardFaultScenario(
      "shard_fault_loss",
      "shard_fault_loss: estimate MSE vs lost-shard fraction",
      {"GenL0", "GenL25", "GenL50", "MgaL0", "MgaL25", "MgaL50", "RecL0",
       "RecL50"});
  scenario.run = RunShardFaultLoss;
  registry.Register(std::move(scenario));
}

void RegisterShardFaultMixed(ScenarioRegistry& registry) {
  Scenario scenario = MakeShardFaultScenario(
      "shard_fault_mixed",
      "shard_fault_mixed: duplicate/torn/bit-flip/straggler delivery",
      {"DupDrift", "TornRej", "FlipRej", "StragLoss", "FaultMSE"});
  scenario.run = RunShardFaultMixed;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
