#include "ldp/protocol.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace ldpr {

std::vector<uint64_t> RestrictItemCountsToUsers(
    const std::vector<uint64_t>& item_counts, uint64_t user_begin,
    uint64_t user_end) {
  LDPR_CHECK(user_begin <= user_end);
  std::vector<uint64_t> restricted(item_counts.size(), 0);
  uint64_t offset = 0;  // canonical index of the first user of item v
  for (size_t v = 0; v < item_counts.size() && offset < user_end; ++v) {
    restricted[v] =
        UsersOfItemInRange(offset, item_counts[v], user_begin, user_end);
    offset += item_counts[v];
  }
  return restricted;
}

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kGrr:
      return "GRR";
    case ProtocolKind::kOue:
      return "OUE";
    case ProtocolKind::kOlh:
      return "OLH";
    case ProtocolKind::kSue:
      return "SUE";
    case ProtocolKind::kBlh:
      return "BLH";
  }
  return "UNKNOWN";
}

FrequencyProtocol::FrequencyProtocol(size_t d, double epsilon)
    : d_(d), epsilon_(epsilon) {
  LDPR_CHECK(d >= 2);
  LDPR_CHECK(epsilon > 0.0);
}

Report FrequencyProtocol::Perturb(ItemId item, Rng& rng) const {
  ReportBatch one;
  ReportBatch::Builder builder(one);
  AppendGenuineReports(item, 1, rng, builder);
  Report report;
  one.ExtractReport(0, report);
  return report;
}

std::vector<double> FrequencyProtocol::AdjustCounts(
    const std::vector<double>& support_counts, size_t n) const {
  LDPR_CHECK(support_counts.size() == d_);
  const double pp = p();
  const double qq = q();
  LDPR_CHECK(pp > qq);
  std::vector<double> est(d_);
  const double nq = static_cast<double>(n) * qq;
  const double denom = pp - qq;
  for (size_t v = 0; v < d_; ++v) est[v] = (support_counts[v] - nq) / denom;
  return est;
}

std::vector<double> FrequencyProtocol::EstimateFrequencies(
    const std::vector<double>& support_counts, size_t n) const {
  LDPR_CHECK(n > 0);
  std::vector<double> est = AdjustCounts(support_counts, n);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (double& e : est) e *= inv_n;
  return est;
}

double FrequencyProtocol::FrequencyVariance(double f, size_t n) const {
  LDPR_CHECK(n > 0);
  const double nd = static_cast<double>(n);
  return CountVariance(f, n) / (nd * nd);
}

void FrequencyProtocol::SampleReportsBatch(
    const std::vector<uint64_t>& item_counts, Rng& rng,
    ReportBatch::Builder& out) const {
  LDPR_CHECK(item_counts.size() == d_);
  for (ItemId item = 0; item < d_; ++item) {
    AppendGenuineReports(item, item_counts[item], rng, out);
  }
}

void FrequencyProtocol::GenerateGenuineTiles(
    const std::vector<uint64_t>& item_counts, Rng& rng,
    const std::function<void(const ReportBatch&)>& on_tile) const {
  LDPR_CHECK(item_counts.size() == d_);
  // Reports are generated straight into an SoA flush buffer; the
  // perturbation draws stay in per-user order, so the tiling leaves
  // the RNG stream unchanged.
  ReportBatch buffer;
  ReportBatch::Builder builder(buffer);
  for (ItemId item = 0; item < d_; ++item) {
    uint64_t remaining = item_counts[item];
    while (remaining > 0) {
      const uint64_t room = kBatchFlushReports - buffer.size();
      const uint64_t take = remaining < room ? remaining : room;
      AppendGenuineReports(item, take, rng, builder);
      remaining -= take;
      if (buffer.size() >= kBatchFlushReports) {
        on_tile(buffer);
        buffer.Clear();
      }
    }
  }
  if (!buffer.empty()) on_tile(buffer);
}

std::vector<double> FrequencyProtocol::ExactSupportCounts(
    const std::vector<uint64_t>& item_counts, Rng& rng) const {
  std::vector<double> counts(d_, 0.0);
  // Integer support sums make the tiling byte-identical to
  // per-report accumulation.
  GenerateGenuineTiles(item_counts, rng, [&](const ReportBatch& tile) {
    AccumulateSupportsBatch(tile, counts);
  });
  return counts;
}

std::vector<double> FrequencyProtocol::SampleSupportCountsRange(
    const std::vector<uint64_t>& item_counts, uint64_t user_begin,
    uint64_t user_end, Rng& rng) const {
  LDPR_CHECK(item_counts.size() == d_);
  LDPR_CHECK(user_begin <= user_end);
  const double p_own = p();
  const double q_rest = q();
  const uint64_t chunk_n = user_end - user_begin;
  std::vector<double> counts(d_);
  uint64_t offset = 0;
  for (size_t v = 0; v < d_; ++v) {
    const uint64_t own =
        UsersOfItemInRange(offset, item_counts[v], user_begin, user_end);
    offset += item_counts[v];
    const uint64_t from_own = rng.Binomial(own, p_own);
    const uint64_t from_rest = rng.Binomial(chunk_n - own, q_rest);
    counts[v] = static_cast<double>(from_own + from_rest);
  }
  return counts;
}

std::vector<double> FrequencyProtocol::SampleSupportCounts(
    const std::vector<uint64_t>& item_counts, Rng& rng) const {
  uint64_t n = 0;
  for (uint64_t c : item_counts) n += c;
  return SampleSupportCountsRange(item_counts, 0, n, rng);
}

std::vector<double> ShardedSupportCounts(
    uint64_t n, size_t d, uint64_t seed, size_t shards,
    const std::function<std::vector<double>(uint64_t, uint64_t, Rng&)>&
        per_chunk) {
  const uint64_t per_shard = kUsersPerAggregationShard;
  const size_t num_chunks = static_cast<size_t>(UserChunkCount(n));

  std::vector<std::vector<double>> partials(num_chunks);
  ParallelFor(shards, num_chunks, [&](size_t chunk) {
    Rng rng(DeriveSeed(seed, chunk));
    const uint64_t begin = static_cast<uint64_t>(chunk) * per_shard;
    const uint64_t end = std::min(n, begin + per_shard);
    partials[chunk] = per_chunk(begin, end, rng);
  });

  // In-order merge.  (Partial counts are integer-valued doubles, so
  // the sum is exact; the fixed order is belt and braces for any
  // future non-integer partials.)
  std::vector<double> counts(d, 0.0);
  for (const std::vector<double>& partial : partials) {
    LDPR_CHECK(partial.size() == d);
    for (size_t v = 0; v < d; ++v) counts[v] += partial[v];
  }
  return counts;
}

std::vector<double> FrequencyProtocol::SampleSupportCountsSharded(
    const std::vector<uint64_t>& item_counts, uint64_t seed,
    size_t shards) const {
  LDPR_CHECK(item_counts.size() == d_);
  uint64_t n = 0;
  for (uint64_t c : item_counts) n += c;
  return ShardedSupportCounts(
      n, d_, seed, shards,
      [&](uint64_t begin, uint64_t end, Rng& rng) {
        return SampleSupportCountsRange(item_counts, begin, end, rng);
      });
}

std::vector<double> FrequencyProtocol::SampleSupportCountsChunk(
    const std::vector<uint64_t>& item_counts, uint64_t seed, uint64_t chunk,
    uint64_t users_per_chunk) const {
  LDPR_CHECK(item_counts.size() == d_);
  LDPR_CHECK(users_per_chunk > 0);
  uint64_t n = 0;
  for (uint64_t c : item_counts) n += c;
  LDPR_CHECK(chunk < UserChunkCount(n, users_per_chunk));
  // Mirrors ShardedSupportCounts' per-chunk setup exactly: the chunk
  // RNG is keyed by (seed, chunk index), never by the worker running
  // it.
  Rng rng(DeriveSeed(seed, chunk));
  const uint64_t begin = chunk * users_per_chunk;
  const uint64_t end = std::min(n, begin + users_per_chunk);
  return SampleSupportCountsRange(item_counts, begin, end, rng);
}

Aggregator::Aggregator(const FrequencyProtocol& protocol)
    : protocol_(protocol), counts_(protocol.domain_size(), 0.0) {}

void Aggregator::AddAll(const ReportBatch& batch) {
  protocol_.AccumulateSupportsBatch(batch, counts_);
  report_count_ += batch.size();
}

void Aggregator::AddAllSharded(const ReportBatch& batch, size_t shards) {
  const size_t per_chunk = kReportsPerAggregationShard;
  const size_t num_chunks = static_cast<size_t>(ReportChunkCount(batch.size()));
  if (num_chunks <= 1) {
    AddAll(batch);
    return;
  }
  std::vector<std::vector<double>> partials(num_chunks);
  ParallelFor(shards, num_chunks, [&](size_t chunk) {
    std::vector<double> partial(counts_.size(), 0.0);
    const size_t begin = chunk * per_chunk;
    const size_t end = std::min(batch.size(), begin + per_chunk);
    protocol_.AccumulateSupportsBatch(batch.Slice(begin, end), partial);
    partials[chunk] = std::move(partial);
  });
  for (const std::vector<double>& partial : partials) {
    for (size_t v = 0; v < counts_.size(); ++v) counts_[v] += partial[v];
  }
  report_count_ += batch.size();
}

void Aggregator::AddAllSharded(const std::vector<Report>& reports,
                               size_t shards) {
  ReportBatch batch;
  for (const Report& report : reports) batch.Append(report);
  AddAllSharded(batch, shards);
}

void Aggregator::AddSampledCounts(const std::vector<double>& counts,
                                  size_t n) {
  LDPR_CHECK(counts.size() == counts_.size());
  for (size_t v = 0; v < counts_.size(); ++v) counts_[v] += counts[v];
  report_count_ += n;
}

std::vector<double> Aggregator::EstimateFrequencies() const {
  return EstimateFrequencies(report_count_);
}

std::vector<double> Aggregator::EstimateFrequencies(size_t n_override) const {
  LDPR_CHECK(n_override > 0);
  return protocol_.EstimateFrequencies(counts_, n_override);
}

}  // namespace ldpr
