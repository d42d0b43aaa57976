#include "shard/shard_task.h"

#include <algorithm>

#include "ldp/factory.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "util/logging.h"
#include "util/random.h"

namespace ldpr {

std::pair<uint64_t, uint64_t> WorkerChunkRange(uint64_t total_chunks,
                                               uint64_t worker,
                                               uint64_t num_workers) {
  LDPR_CHECK(num_workers > 0);
  LDPR_CHECK(worker < num_workers);
  // Even-as-possible contiguous split; the first (total % W) workers
  // take one extra chunk.  Chunk counts are tiny (≤ millions), so the
  // multiplications cannot overflow.
  const uint64_t begin = total_chunks * worker / num_workers;
  const uint64_t end = total_chunks * (worker + 1) / num_workers;
  return {begin, end};
}

StatusOr<ShardTaskPlan> BuildShardTaskPlan(const ShardTaskSpec& spec,
                                           const Dataset& dataset) {
  if (spec.chunking.users_per_chunk == 0 ||
      spec.chunking.reports_per_chunk == 0)
    return InvalidArgumentError("chunk sizes must be positive");
  ExperimentConfig config;
  config.protocol = spec.protocol;
  config.epsilon = spec.epsilon;
  config.eta = spec.eta;
  config.pipeline.attack = spec.attack;
  config.pipeline.beta = spec.beta;
  config.pipeline.num_targets = spec.num_targets;
  // The same user-input checks `ldpr run` applies, so a bad spec is
  // an error status here rather than a CHECK abort below.
  if (const Status valid = ValidateExperimentInputs(config, dataset);
      !valid.ok())
    return valid;

  ShardTaskPlan plan;
  plan.spec = spec;
  plan.item_counts = dataset.item_counts;
  plan.protocol =
      MakeProtocol(spec.protocol, dataset.domain_size(), spec.epsilon);
  plan.n = dataset.num_users();
  plan.genuine_chunks = UserChunkCount(plan.n, spec.chunking.users_per_chunk);

  // The trial RNG sequence of RunPoisoningTrial: one Next() keys the
  // genuine fan-out, then the attack and its one CraftBatch call
  // consume the stream.  This is what makes the merged sharded result equal
  // the in-process trial bit for bit.
  Rng rng(spec.seed);
  plan.genuine_seed = rng.Next();
  if (spec.attack != AttackKind::kNone)
    plan.m = MaliciousUserCount(spec.beta, plan.n);
  if (plan.m > 0) {
    CraftMaliciousReports(*plan.protocol, config.pipeline, plan.m, rng,
                          plan.malicious_reports);
  }
  plan.malicious_chunks =
      ReportChunkCount(plan.m, spec.chunking.reports_per_chunk);
  return plan;
}

std::vector<double> GenuineChunkCounts(const ShardTaskPlan& plan,
                                       uint64_t chunk) {
  LDPR_CHECK(chunk < plan.genuine_chunks);
  return plan.protocol->SampleSupportCountsChunk(
      plan.item_counts, plan.genuine_seed, chunk,
      plan.spec.chunking.users_per_chunk);
}

std::vector<double> MaliciousChunkCounts(const ShardTaskPlan& plan,
                                         uint64_t chunk) {
  LDPR_CHECK(chunk < plan.malicious_chunks);
  const uint64_t rpc = plan.spec.chunking.reports_per_chunk;
  const uint64_t begin = chunk * rpc;
  const uint64_t end = std::min<uint64_t>(plan.m, begin + rpc);
  std::vector<double> counts(plan.protocol->domain_size(), 0.0);
  plan.protocol->AccumulateSupportsBatch(
      plan.malicious_reports.Slice(static_cast<size_t>(begin),
                                   static_cast<size_t>(end)),
      counts);
  return counts;
}

namespace {

void AddInto(std::vector<double>& acc, const std::vector<double>& part) {
  LDPR_CHECK(acc.size() == part.size());
  for (size_t v = 0; v < acc.size(); ++v) acc[v] += part[v];
}

}  // namespace

std::vector<PartialRecord> ComputeWorkerPartials(const ShardTaskPlan& plan,
                                                 uint64_t worker,
                                                 uint64_t num_workers) {
  const auto [begin, end] =
      WorkerChunkRange(plan.total_chunks(), worker, num_workers);
  const uint64_t g = plan.genuine_chunks;
  const size_t d = plan.protocol->domain_size();
  std::vector<PartialRecord> records;

  const uint64_t genuine_begin = std::min(begin, g);
  const uint64_t genuine_end = std::min(end, g);
  if (genuine_begin < genuine_end) {
    PartialRecord rec;
    rec.spec = plan.spec;
    rec.source = kShardSourceGenuine;
    rec.chunk_begin = genuine_begin;
    rec.chunk_end = genuine_end;
    const uint64_t upc = plan.spec.chunking.users_per_chunk;
    rec.unit_begin = std::min<uint64_t>(plan.n, genuine_begin * upc);
    rec.unit_end = std::min<uint64_t>(plan.n, genuine_end * upc);
    rec.counts.assign(d, 0.0);
    for (uint64_t c = genuine_begin; c < genuine_end; ++c)
      AddInto(rec.counts, GenuineChunkCounts(plan, c));
    records.push_back(std::move(rec));
  }

  const uint64_t malicious_begin = std::max(begin, g) - g;
  const uint64_t malicious_end = end > g ? end - g : 0;
  if (malicious_begin < malicious_end) {
    PartialRecord rec;
    rec.spec = plan.spec;
    rec.source = kShardSourceMalicious;
    rec.chunk_begin = malicious_begin;
    rec.chunk_end = malicious_end;
    const uint64_t rpc = plan.spec.chunking.reports_per_chunk;
    rec.unit_begin = std::min<uint64_t>(plan.m, malicious_begin * rpc);
    rec.unit_end = std::min<uint64_t>(plan.m, malicious_end * rpc);
    rec.counts.assign(d, 0.0);
    for (uint64_t c = malicious_begin; c < malicious_end; ++c)
      AddInto(rec.counts, MaliciousChunkCounts(plan, c));
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace ldpr
