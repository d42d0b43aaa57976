// bench_aggregation_batch: measures the batched report-aggregation
// hot path (FrequencyProtocol::AccumulateSupportsBatch) on
// MGA-crafted reports — the report-heavy malicious stream every
// poisoning trial accumulates — in the builder-mode SoA batch the
// generation pipeline produces everywhere.
//
// Usage:
//   bench_aggregation_batch [--d N] [--epsilon E] [--targets R]
//       [--reports N] [--reps K] [--protocol GRR|OUE|OLH|SUE|BLH]
//
// --reports 0 (default) picks a per-protocol count sized for a few
// hundred milliseconds per measurement.  Each protocol gets one
// untimed warmup pass (first-touch paging, frequency ramp) and then
// exactly --reps timed back-to-back passes; min and median of those
// rates are printed ("users/s": reports accumulated per second, the
// scaling scenarios' throughput unit).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/mga.h"
#include "ldp/factory.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "util/flags.h"
#include "util/random.h"

namespace ldpr {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RateStats {
  double min = 0.0;
  double median = 0.0;
};

// One untimed warmup pass, then exactly `reps` timed back-to-back
// passes of `run`; returns min and median of the per-pass rates.
template <typename Fn>
RateStats MeasureRates(int reps, size_t n, Fn&& run) {
  run();  // warmup
  std::vector<double> rates(static_cast<size_t>(reps));
  for (double& rate : rates) {
    const auto start = std::chrono::steady_clock::now();
    run();
    rate = static_cast<double>(n) / SecondsSince(start);
  }
  std::sort(rates.begin(), rates.end());
  RateStats stats;
  stats.min = rates.front();
  const size_t mid = rates.size() / 2;
  stats.median = (rates.size() % 2 == 1)
                     ? rates[mid]
                     : 0.5 * (rates[mid - 1] + rates[mid]);
  return stats;
}

size_t DefaultReports(ProtocolKind kind, size_t d) {
  // The support-set protocols pay O(d) per report; keep total
  // (report, item) pairs comparable across protocols.
  if (kind == ProtocolKind::kGrr) return 4u << 20;
  return (64u << 20) / (d == 0 ? 1 : d);
}

int Run(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const auto d = flags.GetInt("d", 1024);
  const auto epsilon = flags.GetDouble("epsilon", 1.0);
  const auto targets = flags.GetInt("targets", 10);
  const auto reports_flag = flags.GetInt("reports", 0);
  const auto reps = flags.GetInt("reps", 3);
  const std::string protocol_filter = flags.GetString("protocol", "");
  for (const Status& status :
       {d.status(), epsilon.status(), targets.status(), reports_flag.status(),
        reps.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }
  if (*d < 2) {
    std::fprintf(stderr, "error: INVALID_ARGUMENT: --d must be >= 2\n");
    return 1;
  }
  if (*targets < 1 || *targets > *d) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --targets must be in [1, d]\n");
    return 1;
  }
  if (*reps < 1) {
    std::fprintf(stderr, "error: INVALID_ARGUMENT: --reps must be >= 1\n");
    return 1;
  }
  if (*reports_flag < 0) {
    std::fprintf(stderr, "error: INVALID_ARGUMENT: --reports must be >= 0\n");
    return 1;
  }
  const bool filter_active = !protocol_filter.empty();
  ProtocolKind filter_kind = ProtocolKind::kGrr;
  if (filter_active) {
    const auto parsed = ParseProtocolKind(protocol_filter);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    filter_kind = *parsed;
  }

  std::printf("batched aggregation, d=%lld eps=%g r=%lld "
              "(MGA-crafted reports)\n",
              static_cast<long long>(*d), *epsilon,
              static_cast<long long>(*targets));

  for (ProtocolKind kind : kExtendedProtocolKinds) {
    if (filter_active && kind != filter_kind) continue;
    const auto proto =
        MakeProtocol(kind, static_cast<size_t>(*d), *epsilon);
    const size_t n = *reports_flag > 0
                         ? static_cast<size_t>(*reports_flag)
                         : DefaultReports(kind, static_cast<size_t>(*d));
    constexpr uint64_t kCraftSeed = 1;  // same crafted reports every run
    Rng rng(kCraftSeed);
    const MgaAttack mga(MgaAttack::SampleTargets(
        static_cast<size_t>(*d), static_cast<size_t>(*targets), rng));
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    mga.CraftBatch(*proto, n, rng, builder);

    std::vector<double> scratch(proto->domain_size());
    const RateStats batched = MeasureRates(*reps, n, [&] {
      std::fill(scratch.begin(), scratch.end(), 0.0);
      proto->AccumulateSupportsBatch(batch, scratch);
    });
    std::printf("%-4s reports=%-8zu batched min %11.0f med %11.0f\n",
                proto->Name().c_str(), n, batched.min, batched.median);
  }
  return 0;
}

}  // namespace
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::Run(argc, argv); }
