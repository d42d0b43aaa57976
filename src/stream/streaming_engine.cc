#include "stream/streaming_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "recover/detection.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace ldpr {

namespace {

// Cumulative engine totals at one pane boundary.  Window aggregates
// are snapshot differences: support counts are integer-valued doubles
// far below 2^53, so the subtraction is exact and per-window counts
// sum back to the stream totals bit for bit.
struct PaneSnapshot {
  std::vector<double> counts;
  std::vector<uint64_t> tally;
  size_t reports = 0;
  size_t attackers = 0;
  size_t suspicious = 0;
};

WindowResult CloseWindow(const FrequencyProtocol& protocol,
                         const StreamEngineOptions& options,
                         const LdpRecover& recover, const PaneSnapshot& start,
                         const PaneSnapshot& end, size_t index) {
  const size_t d = protocol.domain_size();
  WindowResult w;
  w.index = index;
  w.first_report = start.reports;
  w.report_count = end.reports - start.reports;
  w.attackers = end.attackers - start.attackers;
  w.suspicious = end.suspicious - start.suspicious;

  w.support_counts.resize(d);
  w.genuine_tally.resize(d);
  for (size_t v = 0; v < d; ++v) {
    w.support_counts[v] = end.counts[v] - start.counts[v];
    w.genuine_tally[v] = end.tally[v] - start.tally[v];
  }
  w.estimate = protocol.EstimateFrequencies(w.support_counts, w.report_count);

  const size_t genuine = w.report_count - w.attackers;
  if (genuine > 0) {
    std::vector<double> true_freqs(d);
    for (size_t v = 0; v < d; ++v) {
      true_freqs[v] = static_cast<double>(w.genuine_tally[v]) /
                      static_cast<double>(genuine);
    }
    w.mse_estimate = Mse(true_freqs, w.estimate);
    if (options.run_recovery) {
      w.mse_recovered = Mse(true_freqs, recover.Recover(w.estimate));
    }
  }
  w.detected =
      w.report_count > 0 &&
      static_cast<double>(w.suspicious) >
          options.detect_fraction * static_cast<double>(w.report_count);
  return w;
}

}  // namespace

StreamSummary RunStream(const FrequencyProtocol& protocol,
                        const StreamSpec& spec,
                        const StreamEngineOptions& options, uint64_t seed) {
  const size_t window = spec.window_reports;
  const size_t stride = spec.stride_reports == 0 ? window : spec.stride_reports;
  const size_t panes_per_window = window / stride;
  const size_t d = protocol.domain_size();

  ArrivalStream stream(protocol, spec, seed);
  const LdpRecover recover(protocol, options.recover);

  // The server-side filter watches the same target set the attack
  // promotes (the Detection baseline's knowledge model).  Streams
  // without targets run unfiltered.
  std::unique_ptr<DetectionFilter> filter;
  if (!stream.targets().empty()) {
    filter = std::make_unique<DetectionFilter>(protocol, stream.targets());
  }

  StreamSummary summary;
  std::vector<double> cum_counts(d, 0.0);
  size_t cum_attackers = 0;
  size_t cum_suspicious = 0;

  std::deque<PaneSnapshot> snaps;
  snaps.push_back(PaneSnapshot{std::vector<double>(d, 0.0),
                               std::vector<uint64_t>(d, 0), 0, 0, 0});
  size_t last_emitted_end = 0;

  // The one SoA flush buffer: arrivals append here, and the buffer
  // drains through the batched SIMD accumulation kernels plus the
  // filter's streaming offer — so live report storage never exceeds
  // kBatchFlushReports (the flush slack), whatever the window size.
  ReportBatch buffer;
  ReportBatch::Builder builder(buffer);
  const auto flush = [&] {
    if (buffer.empty()) return;
    protocol.AccumulateSupportsBatch(buffer, cum_counts);
    if (filter) filter->OfferAll(buffer);
    buffer.Clear();
  };

  while (!stream.done()) {
    if (stream.Next(builder)) ++cum_attackers;
    summary.peak_buffered_reports =
        std::max(summary.peak_buffered_reports, buffer.size());
    if (buffer.size() >= kBatchFlushReports) flush();

    const size_t pos = stream.position();
    if (pos % stride == 0 || stream.done()) {
      // Pane boundary (the final pane may be partial): drain the
      // buffer, close the filter's window, snapshot the totals.
      flush();
      if (filter) {
        cum_suspicious += filter->offered() - filter->kept();
        filter->ResetWindow();
      }
      snaps.push_back(PaneSnapshot{cum_counts, stream.genuine_item_tally(),
                                   pos, cum_attackers, cum_suspicious});
      if (snaps.size() == panes_per_window + 1) {
        summary.windows.push_back(CloseWindow(protocol, options, recover,
                                              snaps.front(), snaps.back(),
                                              summary.windows.size()));
        last_emitted_end = snaps.back().reports;
        snaps.pop_front();
      }
    }
  }

  // Sliding-window tail: when the stream ends before the last panes
  // fill a whole window (or before any window at all), emit one final
  // shortened window over the uncovered tail panes.
  if (snaps.back().reports != last_emitted_end) {
    summary.windows.push_back(CloseWindow(protocol, options, recover,
                                          snaps.front(), snaps.back(),
                                          summary.windows.size()));
  }

  summary.total_reports = stream.position();
  summary.total_attackers = cum_attackers;
  summary.final_support_counts = std::move(cum_counts);
  summary.final_genuine_tally = stream.genuine_item_tally();

  if (!summary.windows.empty()) {
    double sum_est = 0.0;
    double sum_rec = 0.0;
    for (const WindowResult& w : summary.windows) {
      // lint: fp-order-ok(serial loop in window order; never sharded)
      sum_est += w.mse_estimate;
      sum_rec += w.mse_recovered;  // lint: fp-order-ok(same serial loop)
    }
    const double n = static_cast<double>(summary.windows.size());
    summary.mean_mse_estimate = sum_est / n;
    summary.mean_mse_recovered = sum_rec / n;
  }

  // Detection latency: windows emit in closing order, so the first
  // window containing the onset report is the earliest-closing one.
  const size_t onset = AttackOnsetReport(spec);
  if (onset < spec.total_reports) {
    ptrdiff_t onset_window = -1;
    for (const WindowResult& w : summary.windows) {
      if (w.first_report <= onset && onset < w.first_report + w.report_count) {
        onset_window = static_cast<ptrdiff_t>(w.index);
        break;
      }
    }
    if (onset_window >= 0) {
      for (size_t i = static_cast<size_t>(onset_window);
           i < summary.windows.size(); ++i) {
        if (summary.windows[i].detected) {
          summary.windows_to_detection =
              static_cast<ptrdiff_t>(i) - onset_window + 1;
          break;
        }
      }
    }
  }
  return summary;
}

double ApproxGenuineSuspicionRate(const FrequencyProtocol& protocol,
                                  size_t num_targets) {
  if (num_targets == 0) return 0.0;
  const double r = static_cast<double>(num_targets);
  const double p = protocol.p();
  const double q = protocol.q();
  // Probability the reporter's own item is a target, under a uniform
  // prior over the domain — a base-rate approximation, not a per-item
  // law.
  const double f_t =
      std::min(1.0, r / static_cast<double>(protocol.domain_size()));
  switch (protocol.kind()) {
    case ProtocolKind::kGrr:
      // The report supports exactly its carried value; threshold 1.
      return f_t * (p + (r - 1.0) * q) + (1.0 - f_t) * r * q;
    case ProtocolKind::kOue:
    case ProtocolKind::kSue: {
      // All r target bits must be set; bits are independent.
      const double q_pow = std::pow(q, r - 1.0);
      return f_t * p * q_pow + (1.0 - f_t) * q_pow * q;
    }
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh: {
      // Majority rule over r targets, each hashing into the reported
      // bucket with probability ~q = 1/g (independence approximation
      // of the shared-seed law).  Binomial tail via the iterative pmf
      // recurrence — no libm special functions (glibc lgamma writes
      // the global signgam; see util/random.h).
      const size_t threshold =
          SuspicionThreshold(protocol.kind(), num_targets);
      double pmf = std::pow(1.0 - q, r);
      double tail = 0.0;
      for (size_t k = 0; k <= num_targets; ++k) {
        // lint: fp-order-ok(serial pmf recurrence, ascending k is the contract)
        if (k >= threshold) tail += pmf;
        if (k < num_targets) {
          pmf *= (r - static_cast<double>(k)) /
                 (static_cast<double>(k) + 1.0) * (q / (1.0 - q));
        }
      }
      return std::min(1.0, tail);
    }
  }
  return 0.0;
}

}  // namespace ldpr
