// Streaming scenarios (extension): the windowed streaming ingest
// engine (src/stream/) evaluated on arrival schedules batch mode
// cannot express.  Four scenarios, one row per implemented protocol:
//
//   streaming_equiv   single window spanning the whole stream under a
//                     constant attacker trickle; its CountDrift
//                     column is the max absolute difference between
//                     the streaming engine's support counts and
//                     Aggregator::AddAllSharded on the replayed batch
//                     — exactly 0.0 by the batch-equivalence
//                     contract, so `ldpr diff` gates the equivalence
//                     from day one.
//   streaming_wave    a mid-stream MGA wave (on at 30%, off at 70% of
//                     the stream) vs a clean run of the same
//                     schedule: per-window MSE and windows-to-
//                     detection latency (clean cell reports the -1
//                     sentinel).  Runs sliding windows (stride =
//                     window/2) to exercise the pane path.
//   streaming_ramp    attacker fraction ramping 0 -> 0.3; first/last
//                     window attacker counts witness the monotone
//                     quota schedule.
//   streaming_drift   genuine distribution drifting Zipf(1.6) ->
//                     Zipf(0.6) across 8 segments with a wave on
//                     top; TrueDrift is the L1 distance between the
//                     first and last windows' genuine ground truth.
//
// Determinism: RunStream is serial per trial and the (cell x trial)
// grid fans out through RunTrialTable with per-trial derived seeds, so
// every column is a pure function of (spec, seed, scale, trials) —
// no timing columns, full byte-compare determinism
// (tests/streaming_scenario_test.cc, scenario_*_determinism ctest).
//
// Detection thresholds: genuine perturbed reports trip the target
// filter at a protocol-dependent base rate b (e.g. ~q*r for GRR,
// ~0.62 for BLH's majority rule at r=10), so each row's
// detect_fraction sits halfway between b and the suspicious fraction
// a full-strength MGA window would produce, b + a*(1-b)/2.

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "stream/streaming_engine.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

// ~10 tumbling windows over the scaled stream, clamped so CI-scale
// streams (tens of reports) still form at least one window.
size_t DefaultWindowReports(size_t total) {
  return std::max<size_t>(1, total / 10);
}

StreamEngineOptions OptionsFor(const FrequencyProtocol& protocol,
                               size_t num_targets, double peak_fraction) {
  StreamEngineOptions options;
  const double base = ApproxGenuineSuspicionRate(protocol, num_targets);
  options.detect_fraction = base + peak_fraction * (1.0 - base) / 2.0;
  return options;
}

double DetectColumn(const StreamSummary& summary) {
  return static_cast<double>(summary.windows_to_detection);
}

// Shared registration boilerplate of the four scenarios.
Scenario MakeStreamingScenario(const char* id, const char* title,
                               std::vector<std::string> columns) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = id;
  spec.title = title;
  spec.artifact = "extension";
  spec.metric_desc = "per-window MSE / detection latency";
  spec.datasets = {"zipf"};
  spec.protocols.assign(std::begin(kExtendedProtocolKinds),
                        std::end(kExtendedProtocolKinds));
  spec.attacks = {AttackKind::kMga};
  spec.columns = std::move(columns);
  spec.custom = true;
  return scenario;
}

// Runs one table with a row per spec protocol: fn(protocol, shards,
// trial_seed) returns one trial's columns.
template <typename Fn>
void RunProtocolTable(ScenarioContext& ctx, const std::string& title,
                      const Fn& fn) {
  const ScenarioSpec& spec = ctx.spec;
  std::vector<std::string> labels;
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (ProtocolKind kind : spec.protocols) {
    labels.push_back(ProtocolKindName(kind));
    protocols.push_back(MakeProtocol(kind, ctx.datasets[0].domain_size(),
                                     spec.defaults.epsilon));
  }
  RunTrialTable(ctx, title, labels, ctx.seed,
                [&](size_t cell, size_t shards, uint64_t trial_seed) {
                  return fn(*protocols[cell], shards, trial_seed);
                });
}

// ------------------------------------------------------------ equiv

Status RunStreamingEquiv(ScenarioContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  StreamSpec stream;
  stream.total_reports = data.num_users();
  stream.window_reports = stream.total_reports;  // one window = the batch
  stream.item_counts = data.item_counts;
  stream.wave = WaveShape::kConstant;
  stream.attacker_fraction = 0.05;
  stream.num_targets = ctx.spec.defaults.num_targets;

  RunProtocolTable(
      ctx, "Streaming vs batch equivalence (Zipf)",
      [&](const FrequencyProtocol& protocol, size_t shards,
          uint64_t trial_seed) -> std::vector<double> {
        StreamEngineOptions options =
            OptionsFor(protocol, stream.num_targets, stream.attacker_fraction);
        options.run_recovery = false;
        const StreamSummary summary =
            RunStream(protocol, stream, options, trial_seed);

        // The batch path on the very same reports: replay the arrival
        // schedule (identical draws) and aggregate through
        // AddAllSharded.
        const StreamReplay replay = ReplayStream(protocol, stream, trial_seed);
        Aggregator aggregator(protocol);
        aggregator.AddAllSharded(replay.reports, shards);

        uint64_t genuine = 0;
        for (uint64_t c : replay.genuine_item_counts) genuine += c;
        std::vector<double> true_freqs(replay.genuine_item_counts.size());
        for (size_t v = 0; v < true_freqs.size(); ++v)
          true_freqs[v] = static_cast<double>(replay.genuine_item_counts[v]) /
                          static_cast<double>(genuine);
        const std::vector<double>& batch_counts = aggregator.support_counts();
        double drift = 0;
        for (size_t v = 0; v < batch_counts.size(); ++v) {
          drift = std::max(
              drift, std::abs(summary.final_support_counts[v] - batch_counts[v]));
        }
        return {summary.mean_mse_estimate,
                Mse(true_freqs, aggregator.EstimateFrequencies()), drift,
                DetectColumn(summary)};
      });
  return Status::Ok();
}

// ------------------------------------------------------------- wave

Status RunStreamingWave(ScenarioContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const size_t total = data.num_users();
  const size_t window = DefaultWindowReports(total);
  // Sliding windows: stride = half a window (pane path), degrading to
  // tumbling when the window is a single report.
  const size_t stride = std::max<size_t>(1, window / 2);
  const double peak = 0.25;

  StreamSpec clean;
  clean.total_reports = total;
  clean.window_reports = stride * (window / stride);
  clean.stride_reports = stride;
  clean.item_counts = data.item_counts;
  clean.wave = WaveShape::kNone;
  clean.num_targets = ctx.spec.defaults.num_targets;

  StreamSpec wave = clean;
  wave.wave = WaveShape::kWave;
  wave.attacker_fraction = peak;
  wave.wave_start = total * 3 / 10;
  wave.wave_end = total * 7 / 10;

  RunProtocolTable(
      ctx, "Streaming MGA wave (Zipf): clean vs attacked",
      [&](const FrequencyProtocol& protocol, size_t /*shards*/,
          uint64_t trial_seed) -> std::vector<double> {
        const StreamEngineOptions options =
            OptionsFor(protocol, clean.num_targets, peak);
        const StreamSummary clean_run =
            RunStream(protocol, clean, options, trial_seed);
        const StreamSummary wave_run =
            RunStream(protocol, wave, options, trial_seed);
        return {clean_run.mean_mse_estimate,
                wave_run.mean_mse_estimate,
                wave_run.mean_mse_recovered,
                DetectColumn(clean_run),
                DetectColumn(wave_run),
                wave_run.windows_to_detection != kNoDetection ? 1.0 : 0.0};
      });
  return Status::Ok();
}

// ------------------------------------------------------------- ramp

Status RunStreamingRamp(ScenarioContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  StreamSpec stream;
  stream.total_reports = data.num_users();
  stream.window_reports = DefaultWindowReports(stream.total_reports);
  stream.item_counts = data.item_counts;
  stream.wave = WaveShape::kRamp;
  stream.attacker_fraction = 0.3;
  stream.num_targets = ctx.spec.defaults.num_targets;

  RunProtocolTable(
      ctx, "Streaming ramping attacker fraction (Zipf)",
      [&](const FrequencyProtocol& protocol, size_t /*shards*/,
          uint64_t trial_seed) -> std::vector<double> {
        const StreamEngineOptions options = OptionsFor(
            protocol, stream.num_targets, stream.attacker_fraction);
        const StreamSummary summary =
            RunStream(protocol, stream, options, trial_seed);
        double first_atk = 0, last_atk = 0;
        if (!summary.windows.empty()) {
          first_atk = static_cast<double>(summary.windows.front().attackers);
          last_atk = static_cast<double>(summary.windows.back().attackers);
        }
        return {summary.mean_mse_estimate, summary.mean_mse_recovered,
                first_atk, last_atk, DetectColumn(summary)};
      });
  return Status::Ok();
}

// ------------------------------------------------------------ drift

Status RunStreamingDrift(ScenarioContext& ctx) {
  const Dataset& data = ctx.datasets[0];
  const size_t total = data.num_users();
  StreamSpec stream;
  stream.total_reports = total;
  stream.window_reports = DefaultWindowReports(total);
  stream.domain_size = data.domain_size();
  stream.zipf_s_start = 1.6;
  stream.zipf_s_end = 0.6;
  stream.zipf_segments = 8;
  stream.wave = WaveShape::kWave;
  stream.attacker_fraction = 0.2;
  stream.wave_start = total * 4 / 10;
  stream.wave_end = total * 7 / 10;
  stream.num_targets = ctx.spec.defaults.num_targets;

  RunProtocolTable(
      ctx, "Streaming drifting Zipf + wave",
      [&](const FrequencyProtocol& protocol, size_t /*shards*/,
          uint64_t trial_seed) -> std::vector<double> {
        const StreamEngineOptions options = OptionsFor(
            protocol, stream.num_targets, stream.attacker_fraction);
        const StreamSummary summary =
            RunStream(protocol, stream, options, trial_seed);
        double true_drift = 0;
        if (summary.windows.size() >= 2) {
          const auto freqs = [](const WindowResult& w) {
            uint64_t genuine = 0;
            for (uint64_t c : w.genuine_tally) genuine += c;
            std::vector<double> f(w.genuine_tally.size(), 0.0);
            if (genuine > 0) {
              for (size_t v = 0; v < f.size(); ++v)
                f[v] = static_cast<double>(w.genuine_tally[v]) /
                       static_cast<double>(genuine);
            }
            return f;
          };
          true_drift = L1Distance(freqs(summary.windows.front()),
                                  freqs(summary.windows.back()));
        }
        return {summary.mean_mse_estimate, summary.mean_mse_recovered,
                true_drift, DetectColumn(summary)};
      });
  return Status::Ok();
}

}  // namespace

void RegisterStreamingEquiv(ScenarioRegistry& registry) {
  Scenario scenario = MakeStreamingScenario(
      "streaming_equiv",
      "streaming_equiv: single-window streaming vs batch equivalence",
      {"StreamMSE", "BatchMSE", "CountDrift", "Detect"});
  scenario.run = RunStreamingEquiv;
  registry.Register(std::move(scenario));
}

void RegisterStreamingWave(ScenarioRegistry& registry) {
  Scenario scenario = MakeStreamingScenario(
      "streaming_wave",
      "streaming_wave: mid-stream MGA wave, detection latency",
      {"CleanMSE", "WaveMSE", "WaveRec", "CleanDetect", "WaveDetect",
       "DetectRate"});
  scenario.run = RunStreamingWave;
  registry.Register(std::move(scenario));
}

void RegisterStreamingRamp(ScenarioRegistry& registry) {
  Scenario scenario = MakeStreamingScenario(
      "streaming_ramp",
      "streaming_ramp: ramping attacker fraction, monotone quota",
      {"MSE", "Rec", "AtkFirstWin", "AtkLastWin", "Detect"});
  scenario.run = RunStreamingRamp;
  registry.Register(std::move(scenario));
}

void RegisterStreamingDrift(ScenarioRegistry& registry) {
  Scenario scenario = MakeStreamingScenario(
      "streaming_drift",
      "streaming_drift: drifting Zipf genuine distribution + wave",
      {"MSE", "Rec", "TrueDrift", "Detect"});
  scenario.run = RunStreamingDrift;
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
