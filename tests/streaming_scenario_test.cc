// Determinism + wave-injection locks on the streaming_* scenarios:
// the same in-process run executed twice is byte-identical (the
// same-process half of the 1-vs-3-thread ctest determinism gate), an
// injected mid-stream MGA wave yields a finite windows-to-detection
// while the clean cell reports the -1 sentinel, and the ramping /
// drifting arrival schedules are locked against naive reference
// replays of the quota arithmetic and of ReplayStream.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "runner/result_sink.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "stream/streaming_engine.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

class StreamingScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterAllScenarios(); }
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs one scenario into a JSONL file and returns the file's bytes.
std::string RunToJsonl(const Scenario& scenario, const std::string& path) {
  JsonlSink sink(path);
  ScenarioRunOptions options;
  options.seed = 424242;
  options.trials = 2;
  options.scale = 0.01;
  const auto report = RunScenario(scenario, options, sink);
  EXPECT_TRUE(report.ok()) << scenario.spec.id << ": "
                           << report.status().ToString();
  EXPECT_TRUE(sink.Finish().ok());
  return ReadFileOrDie(path);
}

TEST_F(StreamingScenarioTest, DoubleRunIsByteIdentical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ldpr_streaming_det")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  for (const char* id : {"streaming_equiv", "streaming_wave",
                         "streaming_ramp", "streaming_drift"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(id);
    ASSERT_NE(scenario, nullptr) << id;
    const std::string first = RunToJsonl(*scenario, dir + "/a.jsonl");
    const std::string second = RunToJsonl(*scenario, dir + "/b.jsonl");
    EXPECT_FALSE(first.empty()) << id;
    EXPECT_EQ(first, second) << id << " is not run-to-run deterministic";
  }
  std::filesystem::remove_all(dir);
}

// Collects rows in memory so assertions can see the raw doubles
// instead of parsing a rendered file.
class RecordingSink : public ResultSink {
 public:
  struct Row {
    std::string label;
    std::vector<double> values;
  };

  void BeginTable(const std::string& /*title*/,
                  const std::vector<std::string>& columns) override {
    columns_ = columns;
  }
  void AddRow(const std::string& label,
              const std::vector<double>& values) override {
    rows_.push_back({label, values});
  }
  Status Finish() override { return Status::Ok(); }

  double Value(const Row& row, const std::string& column) const {
    const auto it = std::find(columns_.begin(), columns_.end(), column);
    EXPECT_NE(it, columns_.end()) << column;
    return row.values[static_cast<size_t>(it - columns_.begin())];
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

TEST_F(StreamingScenarioTest, WaveCellDetectedCleanCellReportsSentinel) {
  const Scenario* scenario =
      ScenarioRegistry::Global().Find("streaming_wave");
  ASSERT_NE(scenario, nullptr);

  RecordingSink sink;
  ScenarioRunOptions options;
  options.seed = 7;
  options.trials = 2;
  options.scale = 0.02;  // 2000-report streams, 200-report windows
  const auto report = RunScenario(*scenario, options, sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(sink.rows().size(), 5u);  // one row per extended protocol
  for (const RecordingSink::Row& row : sink.rows()) {
    // No-attack cell: the -1 sentinel, averaged over trials, stays -1.
    EXPECT_EQ(sink.Value(row, "CleanDetect"), -1.0) << row.label;
    // Attacked cell: every trial caught the wave within a couple of
    // windows of onset.
    EXPECT_EQ(sink.Value(row, "DetectRate"), 1.0) << row.label;
    const double latency = sink.Value(row, "WaveDetect");
    EXPECT_GE(latency, 1.0) << row.label;
    EXPECT_LE(latency, 4.0) << row.label;
    // Poisoned windows push the estimate off the genuine truth.
    EXPECT_GT(sink.Value(row, "WaveMSE"), 0.0) << row.label;
  }
}

// Reference replay of the attacker-quota arithmetic in
// ArrivalStream::Next: slot i is an attacker slot iff the running
// integral of AttackerFractionAt crosses a new integer.  Consumes no
// randomness, so it can be recomputed here independently.
std::vector<uint8_t> NaiveQuotaFlags(const StreamSpec& spec) {
  std::vector<uint8_t> flags(spec.total_reports, 0);
  double integral = 0.0;
  uint64_t used = 0;
  for (size_t i = 0; i < spec.total_reports; ++i) {
    integral += AttackerFractionAt(spec, i);
    const uint64_t quota = static_cast<uint64_t>(std::floor(integral));
    if (quota > used && spec.num_targets > 0) {
      flags[i] = 1;
      ++used;
    }
  }
  return flags;
}

TEST_F(StreamingScenarioTest, RampScheduleIsMonotoneAndMatchesNaiveQuota) {
  const size_t d = 32;
  StreamSpec spec;
  spec.total_reports = 3000;
  spec.window_reports = 300;
  spec.item_counts.assign(d, 1);
  spec.wave = WaveShape::kRamp;
  spec.attacker_fraction = 0.3;
  spec.num_targets = 5;

  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kGrr, d, 1.0);
  StreamEngineOptions options;
  options.run_recovery = false;
  const StreamSummary summary = RunStream(*protocol, spec, options, 31337);
  const StreamReplay replay = ReplayStream(*protocol, spec, 31337);
  const std::vector<uint8_t> expected = NaiveQuotaFlags(spec);

  // The engine's arrival schedule is exactly the quota replay.
  ASSERT_EQ(replay.is_attacker.size(), expected.size());
  EXPECT_EQ(replay.is_attacker, expected);

  // Per-window attacker counts follow the replay and ramp
  // monotonically from (near) zero to the peak-rate windows.
  ASSERT_EQ(summary.windows.size(), 10u);
  size_t prev = 0;
  for (const WindowResult& w : summary.windows) {
    size_t from_flags = 0;
    for (size_t i = w.first_report; i < w.first_report + w.report_count; ++i)
      from_flags += expected[i];
    EXPECT_EQ(w.attackers, from_flags) << "window " << w.index;
    EXPECT_GE(w.attackers, prev) << "window " << w.index;
    prev = w.attackers;
  }
  // Linear 0 -> 0.3 ramp: the last window sits near the 0.3 rate, the
  // first near zero.
  EXPECT_LE(summary.windows.front().attackers, 10u);
  EXPECT_GT(summary.windows.back().attackers, 70u);
  EXPECT_LT(summary.windows.back().attackers, 100u);
}

TEST_F(StreamingScenarioTest, WaveScheduleConfinesAttackersToTheWave) {
  StreamSpec spec;
  spec.total_reports = 2000;
  spec.window_reports = 200;
  spec.item_counts.assign(16, 1);
  spec.wave = WaveShape::kWave;
  spec.attacker_fraction = 0.25;
  spec.wave_start = 600;
  spec.wave_end = 1400;
  spec.num_targets = 4;

  const std::vector<uint8_t> expected = NaiveQuotaFlags(spec);
  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kOlh, 16, 1.0);
  const StreamReplay replay = ReplayStream(*protocol, spec, 5);
  EXPECT_EQ(replay.is_attacker, expected);

  size_t inside = 0, outside = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (i >= spec.wave_start && i < spec.wave_end) {
      inside += expected[i];
    } else {
      outside += expected[i];
    }
  }
  // 25% of the 800-slot wave, zero elsewhere (the integral is flat
  // outside the wave so no new integer can be crossed).
  EXPECT_EQ(outside, 0u);
  EXPECT_EQ(inside, 200u);
}

TEST_F(StreamingScenarioTest, DriftingZipfShiftsMassAndSumsToReplay) {
  const size_t d = 64;
  StreamSpec spec;
  spec.total_reports = 4000;
  spec.window_reports = 400;
  spec.domain_size = d;
  spec.zipf_s_start = 1.8;
  spec.zipf_s_end = 0.4;
  spec.zipf_segments = 8;

  const std::unique_ptr<FrequencyProtocol> protocol =
      MakeProtocol(ProtocolKind::kGrr, d, 1.0);
  StreamEngineOptions options;
  options.run_recovery = false;
  const StreamSummary summary = RunStream(*protocol, spec, options, 2024);
  const StreamReplay replay = ReplayStream(*protocol, spec, 2024);

  // Per-window genuine tallies partition the replay's ground truth.
  std::vector<uint64_t> summed(d, 0);
  for (const WindowResult& w : summary.windows) {
    ASSERT_EQ(w.genuine_tally.size(), d);
    EXPECT_EQ(w.attackers, 0u);
    for (size_t v = 0; v < d; ++v) summed[v] += w.genuine_tally[v];
  }
  EXPECT_EQ(summed, replay.genuine_item_counts);

  // The drift is real: Zipf(1.8) concentrates mass that Zipf(0.4)
  // spreads out, so the first and last windows' genuine frequency
  // vectors are far apart in L1...
  const auto freqs = [](const std::vector<uint64_t>& tally) {
    uint64_t n = 0;
    for (uint64_t c : tally) n += c;
    std::vector<double> f(tally.size());
    for (size_t v = 0; v < f.size(); ++v)
      f[v] = static_cast<double>(tally[v]) / static_cast<double>(n);
    return f;
  };
  const std::vector<double> first = freqs(summary.windows.front().genuine_tally);
  const std::vector<double> last = freqs(summary.windows.back().genuine_tally);
  EXPECT_GT(L1Distance(first, last), 0.5);

  // ...and the peak frequency decays monotonically in expectation;
  // lock the endpoints rather than every noisy intermediate window.
  const double first_peak = *std::max_element(first.begin(), first.end());
  const double last_peak = *std::max_element(last.begin(), last.end());
  EXPECT_GT(first_peak, 2.0 * last_peak);
}

}  // namespace
}  // namespace bench
}  // namespace ldpr
