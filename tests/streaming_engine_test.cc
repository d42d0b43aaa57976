// Batch-equivalence lock on the streaming ingest engine: a single
// window spanning the whole stream must reproduce the batch path —
// Aggregator::AddAllSharded on the replayed report batch — byte for
// byte, because both sides add the same integer support indicators
// in regroupable order (ldp/report_batch.h).  Also locks the
// sliding-window pane decomposition (every emitted window equals a
// naive recompute over its report range), the window metadata
// sequences, the bounded-memory witness, and the engine-level
// detection verdicts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "sim/experiment.h"
#include "stream/streaming_engine.h"
#include "util/random.h"

namespace ldpr {
namespace {

// A small skewed histogram over d items summing to `total` reports'
// worth of genuine mass (the attacker quota displaces arrivals, not
// histogram mass — arrivals *draw from* this distribution).
std::vector<uint64_t> SkewedCounts(size_t d) {
  std::vector<uint64_t> counts(d);
  for (size_t v = 0; v < d; ++v) counts[v] = 1 + (d - v) * (d - v);
  return counts;
}

StreamSpec SingleWindowSpec(size_t total, size_t d) {
  StreamSpec spec;
  spec.total_reports = total;
  spec.window_reports = total;
  spec.item_counts = SkewedCounts(d);
  spec.wave = WaveShape::kConstant;
  spec.attacker_fraction = 0.05;
  spec.num_targets = 5;
  return spec;
}

// The ISSUE's equivalence matrix: five factory protocols x shard
// counts 1/2/8 x stream totals straddling the 8192-report aggregation
// shard edge.
TEST(StreamingEngineTest, SingleWindowMatchesAddAllShardedByteExact) {
  const size_t kTotals[] = {8191, 8192, 8193};
  const size_t kShards[] = {1, 2, 8};
  const size_t d = 24;
  const double epsilon = 1.0;

  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const std::unique_ptr<FrequencyProtocol> protocol =
        MakeProtocol(kind, d, epsilon);
    for (size_t total : kTotals) {
      const StreamSpec spec = SingleWindowSpec(total, d);
      const uint64_t seed = DeriveSeed(20240808, total);

      StreamEngineOptions options;
      options.run_recovery = false;
      const StreamSummary summary = RunStream(*protocol, spec, options, seed);
      ASSERT_EQ(summary.total_reports, total);
      ASSERT_EQ(summary.windows.size(), 1u);
      EXPECT_EQ(summary.windows[0].first_report, 0u);
      EXPECT_EQ(summary.windows[0].report_count, total);

      // The batch side: replay the identical arrival schedule and
      // aggregate through the sharded batch path.
      const StreamReplay replay = ReplayStream(*protocol, spec, seed);
      ASSERT_EQ(replay.reports.size(), total);
      for (size_t shards : kShards) {
        Aggregator aggregator(*protocol);
        aggregator.AddAllSharded(replay.reports, shards);
        const std::vector<double>& batch = aggregator.support_counts();
        ASSERT_EQ(batch.size(), d);
        for (size_t v = 0; v < d; ++v) {
          // Byte-identical, not approximately equal: exact integer
          // sums admit no tolerance.
          EXPECT_EQ(summary.final_support_counts[v], batch[v])
              << ProtocolKindName(kind) << " total=" << total
              << " shards=" << shards << " item=" << v;
          EXPECT_EQ(summary.windows[0].support_counts[v], batch[v]);
        }
      }
      // The replay's ground truth matches the engine's.
      uint64_t attackers = 0;
      for (uint8_t flag : replay.is_attacker) attackers += flag;
      EXPECT_EQ(summary.total_attackers, attackers);
      EXPECT_EQ(summary.final_genuine_tally, replay.genuine_item_counts);
    }
  }
}

TEST(StreamingEngineTest, SlidingWindowsMatchNaiveRangeRecompute) {
  const size_t d = 16;
  const size_t total = 5000;
  StreamSpec spec = SingleWindowSpec(total, d);
  spec.window_reports = 1000;
  spec.stride_reports = 500;
  const uint64_t seed = 12345;

  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const std::unique_ptr<FrequencyProtocol> protocol =
        MakeProtocol(kind, d, 1.0);
    StreamEngineOptions options;
    options.run_recovery = false;
    const StreamSummary summary = RunStream(*protocol, spec, options, seed);
    const StreamReplay replay = ReplayStream(*protocol, spec, seed);

    // W=1000, S=500 over 5000 reports: windows [0,1000), [500,1500),
    // ..., [4000,5000) — 9 windows, last snapshot covered, no tail.
    ASSERT_EQ(summary.windows.size(), 9u);
    for (size_t w = 0; w < summary.windows.size(); ++w) {
      const WindowResult& window = summary.windows[w];
      EXPECT_EQ(window.first_report, w * 500);
      EXPECT_EQ(window.report_count, 1000u);

      // Naive recompute: aggregate exactly the window's report range.
      Aggregator naive(*protocol);
      naive.AddAll(replay.reports.Slice(window.first_report,
                                        window.first_report +
                                            window.report_count));
      for (size_t v = 0; v < d; ++v) {
        EXPECT_EQ(window.support_counts[v], naive.support_counts()[v])
            << ProtocolKindName(kind) << " window=" << w << " item=" << v;
      }
      // Attacker count per window matches the replay flags.
      size_t attackers = 0;
      for (size_t i = window.first_report;
           i < window.first_report + window.report_count; ++i) {
        attackers += replay.is_attacker[i];
      }
      EXPECT_EQ(window.attackers, attackers);
    }
  }
}

TEST(StreamingEngineTest, TumblingWindowsPartitionTheStreamExactly) {
  const size_t d = 12;
  StreamSpec spec = SingleWindowSpec(2750, d);  // partial final window
  spec.window_reports = 500;
  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kOue, d, 0.8);
  StreamEngineOptions options;
  options.run_recovery = false;
  const StreamSummary summary = RunStream(*protocol, spec, options, 777);

  ASSERT_EQ(summary.windows.size(), 6u);  // 5 full + 1 partial (250)
  size_t covered = 0;
  std::vector<double> summed(d, 0.0);
  size_t attackers = 0;
  for (const WindowResult& w : summary.windows) {
    EXPECT_EQ(w.first_report, covered);
    covered += w.report_count;
    attackers += w.attackers;
    for (size_t v = 0; v < d; ++v) summed[v] += w.support_counts[v];
  }
  EXPECT_EQ(covered, 2750u);
  EXPECT_EQ(summary.windows.back().report_count, 250u);
  EXPECT_EQ(attackers, summary.total_attackers);
  // Per-window counts sum back to the stream totals bit for bit.
  for (size_t v = 0; v < d; ++v) {
    EXPECT_EQ(summed[v], summary.final_support_counts[v]);
  }
}

TEST(StreamingEngineTest, BufferedReportsNeverExceedFlushSlack) {
  const size_t d = 8;
  StreamSpec spec = SingleWindowSpec(20000, d);  // windows >> flush size
  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kGrr, d, 1.0);
  StreamEngineOptions options;
  options.run_recovery = false;
  const StreamSummary summary = RunStream(*protocol, spec, options, 5);
  EXPECT_GT(summary.peak_buffered_reports, 0u);
  EXPECT_LE(summary.peak_buffered_reports, kBatchFlushReports);
}

TEST(StreamingEngineTest, WaveIsDetectedAndCleanStreamReportsSentinel) {
  const size_t d = 64;
  const size_t total = 4000;
  StreamSpec clean;
  clean.total_reports = total;
  clean.window_reports = 400;
  clean.item_counts = SkewedCounts(d);
  clean.wave = WaveShape::kNone;
  clean.num_targets = 10;

  StreamSpec wave = clean;
  wave.wave = WaveShape::kWave;
  wave.attacker_fraction = 0.3;
  wave.wave_start = total / 2;
  wave.wave_end = total;

  // OUE's all-targets rule has a ~q^10 genuine base rate: essentially
  // zero, so the wave windows separate cleanly at any seed.
  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kOue, d, 0.5);
  StreamEngineOptions options;
  options.detect_fraction =
      ApproxGenuineSuspicionRate(*protocol, clean.num_targets) + 0.15;
  options.run_recovery = false;

  const StreamSummary clean_run = RunStream(*protocol, clean, options, 99);
  EXPECT_EQ(clean_run.windows_to_detection, kNoDetection);
  EXPECT_EQ(clean_run.total_attackers, 0u);

  const StreamSummary wave_run = RunStream(*protocol, wave, options, 99);
  EXPECT_GT(wave_run.total_attackers, 0u);
  ASSERT_NE(wave_run.windows_to_detection, kNoDetection);
  // Onset at report 2000 = window 5; MGA at 30% trips the very first
  // attacked window.
  EXPECT_EQ(wave_run.windows_to_detection, 1);
  // Pre-onset windows are quiet, attacked windows flagged.
  for (const WindowResult& w : wave_run.windows) {
    if (w.first_report + w.report_count <= wave.wave_start) {
      EXPECT_FALSE(w.detected) << "window " << w.index;
    } else {
      EXPECT_TRUE(w.detected) << "window " << w.index;
    }
  }
}

TEST(StreamingEngineTest, SpecValidationRejectsStructuralNonsense) {
  StreamSpec spec = SingleWindowSpec(100, 8);
  EXPECT_TRUE(ValidateStreamSpec(spec).ok());

  StreamSpec bad = spec;
  bad.total_reports = 0;
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.stride_reports = 30;  // does not divide window=100
  bad.window_reports = 100;
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.stride_reports = 200;  // exceeds window
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.attacker_fraction = 1.0;
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.wave = WaveShape::kWave;
  bad.wave_start = 60;
  bad.wave_end = 150;  // past the stream end
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.num_targets = 9;  // exceeds the domain of 8
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  bad = spec;
  bad.item_counts.clear();  // no item source at all
  EXPECT_FALSE(ValidateStreamSpec(bad).ok());

  // Drifting-zipf mode validates its own fields.
  StreamSpec drift;
  drift.total_reports = 100;
  drift.window_reports = 10;
  drift.domain_size = 16;
  drift.zipf_segments = 4;
  drift.zipf_s_start = 1.5;
  drift.zipf_s_end = 0.5;
  EXPECT_TRUE(ValidateStreamSpec(drift).ok());
  drift.item_counts = {1, 2, 3};  // both modes at once
  EXPECT_FALSE(ValidateStreamSpec(drift).ok());
}

// A unary stream draws total_reports·d bits; kMaxStreamUnaryBits caps
// that product, which the per-axis checks leave open.
TEST(StreamingEngineTest, StreamValidationBoundsUnaryBits) {
  StreamSpec spec;
  spec.window_reports = 1000;
  spec.domain_size = 100000;
  spec.zipf_segments = 1;
  const auto oue = MakeProtocol(ProtocolKind::kOue, spec.domain_size, 1.0);
  const auto olh = MakeProtocol(ProtocolKind::kOlh, spec.domain_size, 1.0);
  spec.total_reports = static_cast<size_t>(kMaxStreamUnaryBits) / 100000;
  EXPECT_TRUE(ValidateStream(*oue, spec).ok());
  spec.total_reports += 1;
  const Status past = ValidateStream(*oue, spec);
  EXPECT_FALSE(past.ok());
  EXPECT_NE(past.message().find("past the 1.07e+09-bit cap"),
            std::string::npos)
      << past.message();
  EXPECT_TRUE(ValidateStream(*olh, spec).ok());  // not unary

  const auto small = MakeProtocol(ProtocolKind::kOlh, 16, 1.0);
  EXPECT_FALSE(ValidateStream(*small, spec).ok());  // domain mismatch
  spec.total_reports = 0;
  EXPECT_FALSE(ValidateStream(*olh, spec).ok());  // the spec's own checks
}

}  // namespace
}  // namespace ldpr
