#include "shard/merge.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "recover/ldprecover.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/xxhash.h"

namespace ldpr {
namespace {

// One source stream's expected geometry.
struct SourceGeometry {
  uint64_t chunks = 0;
  uint64_t units = 0;       // users or reports
  uint64_t units_per_chunk = 0;
};

// Validates a record's chunk/unit arithmetic against `geo`; the unit
// range must be exactly what the chunk range implies.
Status CheckGeometry(const PartialRecord& rec, const SourceGeometry& geo) {
  if (rec.chunk_end > geo.chunks || rec.chunk_begin >= rec.chunk_end)
    return InvalidArgumentError("partial chunk range outside chunk space");
  const uint64_t want_begin =
      std::min(geo.units, rec.chunk_begin * geo.units_per_chunk);
  const uint64_t want_end =
      std::min(geo.units, rec.chunk_end * geo.units_per_chunk);
  if (rec.unit_begin != want_begin || rec.unit_end != want_end)
    return InvalidArgumentError("partial unit range disagrees with chunks");
  return Status::Ok();
}

// Merges one source's accepted records: sorts by chunk range, drops
// byte-equal duplicates, rejects conflicts/overlaps, accumulates in
// ascending chunk order, and counts gap chunks.  Counts are exact
// integer-valued doubles, so the ascending-order sum is byte-equal to
// the in-process chunk-order merge no matter how records group
// chunks.
Status MergeSource(std::vector<const PartialRecord*>& records,
                   const SourceGeometry& geo, size_t d,
                   std::vector<double>& counts, uint64_t& chunks_lost,
                   uint64_t& units_covered, size_t& used,
                   size_t& duplicates_dropped) {
  std::sort(records.begin(), records.end(),
            [](const PartialRecord* a, const PartialRecord* b) {
              if (a->chunk_begin != b->chunk_begin)
                return a->chunk_begin < b->chunk_begin;
              return a->chunk_end < b->chunk_end;
            });
  counts.assign(d, 0.0);
  uint64_t cursor = 0;
  const PartialRecord* prev = nullptr;
  for (const PartialRecord* rec : records) {
    if (rec->counts.size() != d)
      return InvalidArgumentError("partial counts length disagrees with d");
    if (prev != nullptr && rec->chunk_begin == prev->chunk_begin &&
        rec->chunk_end == prev->chunk_end) {
      if (rec->counts != prev->counts)
        return InvalidArgumentError(
            "conflicting partials for the same chunk range");
      ++duplicates_dropped;  // at-least-once re-delivery: idempotent
      continue;
    }
    if (rec->chunk_begin < cursor)
      return InvalidArgumentError("overlapping partial chunk ranges");
    chunks_lost += rec->chunk_begin - cursor;
    for (size_t v = 0; v < d; ++v) counts[v] += rec->counts[v];
    units_covered += rec->unit_end - rec->unit_begin;
    cursor = rec->chunk_end;
    prev = rec;
    ++used;
  }
  chunks_lost += geo.chunks - cursor;
  return Status::Ok();
}

uint64_t CountsDigest(const std::vector<double>& counts) {
  const uint64_t h = XxHash64(counts.data(), counts.size() * sizeof(double),
                              kShardChecksumSeed);
  return (h ^ (h >> 32)) & 0xffffffffu;
}

}  // namespace

StatusOr<MergedPartials> MergeShardPartials(
    const ShardTaskPlan& plan, const std::vector<std::string>& lines,
    const MergeOptions& options) {
  const size_t d = plan.protocol->domain_size();
  const SourceGeometry genuine_geo{plan.genuine_chunks, plan.n,
                                   plan.spec.chunking.users_per_chunk};
  const SourceGeometry malicious_geo{plan.malicious_chunks, plan.m,
                                     plan.spec.chunking.reports_per_chunk};

  MergedPartials merged;
  merged.stats.lines_total = lines.size();

  std::vector<PartialRecord> accepted;
  accepted.reserve(lines.size());
  for (const std::string& line : lines) {
    auto record = DecodePartialLine(line);
    if (!record.ok()) {
      // Torn frame or flipped bit: the wire layer caught it; the
      // worker's chunks become lost coverage below.
      ++merged.stats.lines_rejected;
      continue;
    }
    if (!ShardTaskSpecsEqual(record->spec, plan.spec))
      return InvalidArgumentError(
          "partial from a different task spec (mixed runs?)");
    const SourceGeometry& geo =
        record->source == kShardSourceGenuine ? genuine_geo : malicious_geo;
    const Status geometry = CheckGeometry(*record, geo);
    if (!geometry.ok()) return geometry;
    accepted.push_back(*std::move(record));
  }

  std::vector<const PartialRecord*> genuine, malicious;
  for (const PartialRecord& rec : accepted) {
    (rec.source == kShardSourceGenuine ? genuine : malicious).push_back(&rec);
  }
  Status status = MergeSource(
      genuine, genuine_geo, d, merged.genuine_counts,
      merged.stats.genuine_chunks_lost, merged.stats.users_covered,
      merged.stats.records_used, merged.stats.duplicates_dropped);
  if (!status.ok()) return status;
  status = MergeSource(
      malicious, malicious_geo, d, merged.malicious_counts,
      merged.stats.malicious_chunks_lost, merged.stats.reports_covered,
      merged.stats.records_used, merged.stats.duplicates_dropped);
  if (!status.ok()) return status;

  if (merged.stats.users_covered == 0)
    return FailedPreconditionError(
        "no genuine users survived the merge; nothing to estimate from");
  if (!options.allow_missing) {
    if (merged.stats.lines_rejected > 0)
      return InvalidArgumentError("rejected " +
                                  std::to_string(merged.stats.lines_rejected) +
                                  " corrupt partial line(s) in strict mode");
    if (merged.stats.genuine_chunks_lost > 0 ||
        merged.stats.malicious_chunks_lost > 0)
      return FailedPreconditionError(
          "incomplete merge: " +
          std::to_string(merged.stats.genuine_chunks_lost +
                         merged.stats.malicious_chunks_lost) +
          " chunk(s) missing");
  }
  return merged;
}

StatusOr<MergedPartials> RunShardTaskInProcess(const ShardTaskPlan& plan,
                                               uint64_t num_workers) {
  if (num_workers == 0)
    return InvalidArgumentError("num_workers must be positive");
  std::vector<std::string> lines;
  for (uint64_t w = 0; w < num_workers; ++w) {
    for (const PartialRecord& rec : ComputeWorkerPartials(plan, w, num_workers))
      lines.push_back(EncodePartialLine(rec));
  }
  return MergeShardPartials(plan, lines, MergeOptions{});
}

ShardOutcome ComputeShardOutcome(const ShardTaskPlan& plan,
                                 const Dataset& dataset,
                                 const MergedPartials& merged) {
  const size_t d = plan.protocol->domain_size();
  ShardOutcome outcome;
  outcome.n_eff = merged.stats.users_covered;
  outcome.m_eff = merged.stats.reports_covered;

  std::vector<double> combined(d, 0.0);
  for (size_t v = 0; v < d; ++v)
    combined[v] = merged.genuine_counts[v] + merged.malicious_counts[v];
  outcome.poisoned_freqs = plan.protocol->EstimateFrequencies(
      combined, static_cast<size_t>(outcome.n_eff + outcome.m_eff));

  RecoverOptions recover_options;
  recover_options.eta = plan.spec.eta;
  const LdpRecover recover(*plan.protocol, recover_options);
  outcome.recovered_freqs = recover.Recover(outcome.poisoned_freqs);

  const std::vector<double> true_freqs = dataset.TrueFrequencies();
  outcome.poisoned_mse = Mse(outcome.poisoned_freqs, true_freqs);
  outcome.recovered_mse = Mse(outcome.recovered_freqs, true_freqs);
  outcome.genuine_digest =
      static_cast<double>(CountsDigest(merged.genuine_counts));
  outcome.malicious_digest =
      static_cast<double>(CountsDigest(merged.malicious_counts));
  return outcome;
}

}  // namespace ldpr
