// Windowed streaming ingest engine.
//
// Reports arrive in time order from an ArrivalStream (stream/arrival.h)
// and are consumed under tumbling or sliding windows:
//
//   * The stream splits into *panes* of `stride` reports (a sliding
//     window of W reports advancing by S is P = W/S consecutive
//     panes; a tumbling window is the P = 1 case).
//   * Arrivals append into one SoA flush buffer that drains through
//     FrequencyProtocol::AccumulateSupportsBatch — the PR 6 batched
//     SIMD kernels — every kBatchFlushReports reports and at pane
//     boundaries, and simultaneously through
//     DetectionFilter::OfferAll, whose per-window counters are
//     closed with ResetWindow at each pane boundary.
//   * At each pane boundary the engine snapshots its cumulative
//     totals (support counts, genuine item tally, attacker /
//     suspicious counts).  A window closes once P panes beyond its
//     start snapshot exist; its aggregate is the difference of two
//     snapshots — exact, because support counts are integer sums
//     (ldp/report_batch.h) and integer-valued doubles below 2^53
//     subtract exactly.
//   * Each closing window emits an incremental frequency estimate, an
//     LDPRecover re-run on that estimate, the window's MSE against
//     its own genuine ground truth, and a detection verdict
//     (suspicious fraction above the configured threshold).
//
// Memory bound: the engine never materializes a window.  Live state
// is the flush buffer (<= kBatchFlushReports reports — the "flush
// slack") plus P+1 boundary snapshots of O(d) each: O(d * W/S)
// doubles total, independent of the stream length.  The stress test
// (tests/streaming_stress_test.cc) asserts the buffered-report bound;
// peak_buffered_reports in the summary is the witness.
//
// Determinism: the engine adds no randomness of its own — all draws
// happen inside ArrivalStream, serially in arrival order — and every
// aggregate is an exact integer sum, so StreamSummary is a pure
// function of (protocol, spec, options, seed), byte-identical at any
// thread count and identical to the batch path on the same seed: a
// single window spanning the whole stream reproduces
// Aggregator::AddAllSharded on the replayed batch bit for bit
// (tests/streaming_engine_test.cc).

#ifndef LDPR_STREAM_STREAMING_ENGINE_H_
#define LDPR_STREAM_STREAMING_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "recover/ldprecover.h"
#include "stream/arrival.h"

namespace ldpr {

/// Sentinel of StreamSummary::windows_to_detection: no attack was
/// scheduled, or no window ever crossed the detection threshold.
inline constexpr ptrdiff_t kNoDetection = -1;

/// Server-side per-window processing knobs.
struct StreamEngineOptions {
  /// A window is flagged as under attack when its filter-suspicious
  /// fraction exceeds this.  Calibrate above the genuine-only
  /// suspicion rate (ApproxGenuineSuspicionRate below) — genuine
  /// perturbed reports trip the target filter at a protocol-dependent
  /// base rate even with no attacker present.
  double detect_fraction = 0.5;
  /// Options of the per-window LDPRecover re-run.
  RecoverOptions recover;
  /// Skip the recovery re-run (mse_recovered = 0) — for equivalence
  /// tests that only exercise the aggregation path.
  bool run_recovery = true;
};

/// One closed window's aggregate.
struct WindowResult {
  size_t index = 0;         ///< emission order, 0-based
  size_t first_report = 0;  ///< stream index of the window's first report
  size_t report_count = 0;  ///< reports in the window (genuine + attacker)
  size_t attackers = 0;     ///< scheduled attacker slots (ground truth)
  size_t suspicious = 0;    ///< reports the DetectionFilter flagged
  bool detected = false;    ///< suspicious fraction above threshold
  /// MSE of the window's frequency estimate against the window's own
  /// genuine item distribution (0 when the window has no genuine
  /// reports).
  double mse_estimate = 0.0;
  /// Same after the LDPRecover re-run (0 when run_recovery is off).
  double mse_recovered = 0.0;
  /// The window's raw support counts and estimated frequencies.
  std::vector<double> support_counts;
  std::vector<double> estimate;
  /// The window's genuine item tally (ground truth).
  std::vector<uint64_t> genuine_tally;
};

/// The whole stream's result.
struct StreamSummary {
  std::vector<WindowResult> windows;
  size_t total_reports = 0;
  size_t total_attackers = 0;
  /// Whole-stream support counts: every pane accumulated exactly
  /// once, in arrival order — byte-identical to the batch path on the
  /// same replayed reports.
  std::vector<double> final_support_counts;
  /// Whole-stream genuine item tally.
  std::vector<uint64_t> final_genuine_tally;
  /// Means over the emitted windows (0 when no window emitted).
  double mean_mse_estimate = 0.0;
  double mean_mse_recovered = 0.0;
  /// Detection latency in windows: 1 means the earliest-closing
  /// window containing the attack onset already detected it;
  /// kNoDetection (-1) when no attack was scheduled or no window at
  /// or after onset detected.
  ptrdiff_t windows_to_detection = kNoDetection;
  /// High-water mark of the SoA flush buffer — the memory-bound
  /// witness (never exceeds kBatchFlushReports).
  size_t peak_buffered_reports = 0;
};

/// Runs one StreamSpec end to end.  Pure function of its arguments
/// (see the header comment); `protocol` must outlive the call and
/// match the spec's domain.
StreamSummary RunStream(const FrequencyProtocol& protocol,
                        const StreamSpec& spec,
                        const StreamEngineOptions& options, uint64_t seed);

/// Approximate probability that a *genuine* report trips a
/// DetectionFilter over r random targets — the no-attack base rate a
/// detect_fraction threshold must clear.  Uses the protocol's (p, q)
/// and the filter's protocol-specific threshold, treating target
/// supports as independent (exact for GRR and the unary family;
/// for OLH/BLH a binomial approximation of the shared-seed law,
/// computed iteratively with no libm special functions).
double ApproxGenuineSuspicionRate(const FrequencyProtocol& protocol,
                                  size_t num_targets);

}  // namespace ldpr

#endif  // LDPR_STREAM_STREAMING_ENGINE_H_
