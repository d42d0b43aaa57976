// Spans for the traced replay.  Every call the replay makes into a
// layer's public function is wrapped in Timed(), which appends one
// span (layer, start, end) to the calling trial's own TrialTrace.
// Each trial's trace is written by exactly one worker, so no span
// recording takes a lock; traces stay in memory and are written out
// once the run ends (WriteSpans).

#ifndef LDPR_PERF_TRACE_H_
#define LDPR_PERF_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ldpr {
namespace perf {

/// The layer boundaries the replay times, named `<module>.<call>`.
enum class Layer {
  kDataResolve,           // ResolveBenchDataset, MakeProtocol
  kLdpSampleGenuine,      // SampleSupportCountsSharded, per-user Perturb
  kLdpAggregate,          // Aggregator::AddAllSharded
  kLdpEstimate,           // EstimateFrequencies
  kAttackCraft,           // MakeAttack + Attack::CraftBatch / Craft
  kRecoverLdprecover,     // LdpRecover::Recover + malicious estimate
  kRecoverStar,           // the same for LDPRecover*
  kRecoverDetectGenuine,  // DetectionFilter::OfferSampledGenuineSharded
  kRecoverDetectFilter,   // DetectionFilter::OfferAll + Estimate
  kRecoverKmeans,         // RunKMeansDefense, LdpRecoverKm
  kStreamArrival,         // ReplayStream (ArrivalStream::Next per report)
  kStreamRun,             // RunStream
  kShardPlan,             // BuildShardTaskPlan
  kShardPartials,         // ComputeWorkerPartials, RunShardTaskInProcess
  kShardEncode,           // EncodePartialLine
  kShardDecode,           // DecodePartialLine
  kShardFault,            // MakeFaultPlan + ApplyFaultPlan
  kShardMerge,            // MergeShardPartials
  kShardOutcome,          // ComputeShardOutcome
  kBenchmarkProbe,        // the benchmark's own counting (simplex passes)
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// "ldp.aggregate" etc.; the metric is LayerName + "_s".
const char* LayerName(Layer layer);

/// Seconds on the steady clock since the first call in the process.
double Now();

struct Span {
  Layer layer;
  double start;
  double end;
};

/// Work counts recorded at the same boundaries as the spans.
struct Counters {
  uint64_t reports_crafted = 0;
  uint64_t aggregate_reports = 0;
  uint64_t aggregate_bytes = 0;
  uint64_t simplex_iters = 0;
  uint64_t detect_offered = 0;
  uint64_t detect_kept = 0;
  uint64_t arrival_reports = 0;
  uint64_t stream_windows = 0;
  uint64_t stream_reports = 0;
  uint64_t wire_bytes = 0;
  uint64_t lines_total = 0;
  uint64_t lines_rejected = 0;

  void Add(const Counters& other);
};

inline constexpr size_t kNoTrial = std::numeric_limits<size_t>::max();

/// One replayed trial (or, with index kNoTrial, a scenario's set-up
/// calls outside any trial): the interval it ran in plus the spans
/// and counts of the layer calls it made.
struct TrialTrace {
  std::string scenario;
  size_t index = kNoTrial;
  /// The grid cell (config, or custom-scenario cell) the trial
  /// belongs to, numbered within the scenario.
  size_t cell = 0;
  double start = 0;
  double end = 0;
  std::vector<Span> spans;
  Counters counters;
};

/// Runs fn() and records its interval as a `layer` span of `trace`;
/// returns what fn returns.
template <typename Fn>
decltype(auto) Timed(TrialTrace& trace, Layer layer, Fn&& fn) {
  const double start = Now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    std::forward<Fn>(fn)();
    trace.spans.push_back({layer, start, Now()});
  } else {
    auto result = std::forward<Fn>(fn)();
    trace.spans.push_back({layer, start, Now()});
    return result;
  }
}

/// Writes every span as one JSON line
/// {"scenario":..,"trial":..,"layer":..,"start":..,"end":..}, trial
/// intervals included under layer "sim.trial".
Status WriteSpans(const std::string& path,
                  const std::vector<TrialTrace>& traces);

}  // namespace perf
}  // namespace ldpr

#endif  // LDPR_PERF_TRACE_H_
