// `ldpr stream`: replay the dataset as a time-ordered arrival stream
// through the windowed streaming engine (src/stream/) and print one
// row per closed window.
//
//   # A mid-stream MGA wave over sliding windows:
//   ldpr stream --protocol=OUE --dataset=zipf
//       --wave=wave --beta=0.25 --window=10000 --stride=5000
//
// Flags: the trial flags (cli.h) with the `ldpr run` defaults, minus
// --attack (the attack is the MGA wave); --beta is the (peak)
// attacker fraction and --targets the MGA target count.  Extra knobs:
// --window [n/10 reports], --stride [0 = tumbling], --wave [constant]
// (none|constant|wave|ramp; `wave` switches the MGA cohort on over
// the middle [0.3n, 0.7n) of the stream), and --out DIR (a result
// tree with the one scenario `cli-stream`).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "stream/streaming_engine.h"

namespace ldpr {
namespace cli {
namespace {

StatusOr<WaveShape> ParseWaveShape(const std::string& name) {
  if (name == "none") return WaveShape::kNone;
  if (name == "constant") return WaveShape::kConstant;
  if (name == "wave") return WaveShape::kWave;
  if (name == "ramp") return WaveShape::kRamp;
  return InvalidArgumentError("unknown wave shape: " + name);
}

}  // namespace

int StreamCommand(const FlagParser& flags) {
  const auto trial = ParseTrialFlags(flags, "ipums", /*default_attack=*/"");
  const auto window = flags.GetNonNegativeInt("window", 0);
  const auto stride = flags.GetNonNegativeInt("stride", 0);
  const auto wave_or = ParseWaveShape(flags.GetString("wave", "constant"));
  const std::string out_dir = flags.GetString("out", "");
  if (const int rc = ExitStatus(flags, {trial.status(), window.status(),
                                        stride.status(), wave_or.status()}))
    return rc;
  const auto dataset_or = ResolveTrialDataset(*trial);
  if (const int rc = ExitStatus(flags, {dataset_or.status()})) return rc;
  const Dataset& dataset = *dataset_or;

  StreamSpec spec;
  spec.total_reports = dataset.num_users();
  spec.window_reports = *window > 0
                            ? static_cast<size_t>(*window)
                            : std::max<size_t>(1, spec.total_reports / 10);
  spec.stride_reports = static_cast<size_t>(*stride);
  spec.item_counts = dataset.item_counts;
  spec.wave = *wave_or;
  spec.attacker_fraction = spec.wave == WaveShape::kNone ? 0.0 : trial->beta;
  spec.num_targets = static_cast<size_t>(trial->targets);
  if (spec.wave == WaveShape::kWave) {
    spec.wave_start = spec.total_reports * 3 / 10;
    spec.wave_end = spec.total_reports * 7 / 10;
  }
  const auto protocol =
      MakeProtocol(trial->protocol, dataset.domain_size(), trial->epsilon);
  if (const int rc = ExitStatus(flags, {ValidateStream(*protocol, spec)}))
    return rc;
  StreamEngineOptions options;
  options.recover.eta = trial->eta;
  const double base = ApproxGenuineSuspicionRate(*protocol, spec.num_targets);
  const double peak =
      spec.attacker_fraction > 0.0 ? spec.attacker_fraction : 0.25;
  options.detect_fraction = base + peak * (1.0 - base) / 2.0;

  ScenarioSpec scenario;
  scenario.id = "cli-stream";
  char title[160];
  std::snprintf(title, sizeof(title),
                "ldpr stream: %s, eps=%g, wave=%s, beta=%g, window=%zu, "
                "stride=%zu",
                ProtocolKindName(trial->protocol), trial->epsilon,
                WaveShapeName(spec.wave), spec.attacker_fraction,
                spec.window_reports, spec.stride_reports);
  scenario.title = title;
  scenario.columns = {"Reports", "Attackers", "MSE", "RecMSE", "Detected"};
  ScenarioRunReport run;
  run.info.seed = trial->seed;
  run.info.scale = trial->scale;
  run.info.trials = 1;
  run.info.threads = 1;  // the streaming engine is serial
  ResultOutput output(std::move(scenario), out_dir);
  if (const int rc = ExitStatus(flags, {output.Open(run, dataset)})) return rc;

  const StreamSummary summary =
      RunStream(*protocol, spec, options, trial->seed);

  std::vector<TableRow> rows;
  for (const WindowResult& w : summary.windows) {
    rows.push_back({"win" + std::to_string(w.index),
                    {static_cast<double>(w.report_count),
                     static_cast<double>(w.attackers), w.mse_estimate,
                     w.mse_recovered, w.detected ? 1.0 : 0.0}});
  }
  output.WriteTable("Streaming windows", rows);

  if (summary.windows_to_detection == kNoDetection) {
    std::printf("windows to detection: none flagged\n");
  } else {
    std::printf("windows to detection: %lld after attack onset\n",
                static_cast<long long>(summary.windows_to_detection));
  }
  std::printf("total: %zu reports (%zu attackers), peak buffer %zu "
              "reports, mean window MSE %.3e (recovered %.3e)\n",
              summary.total_reports, summary.total_attackers,
              summary.peak_buffered_reports, summary.mean_mse_estimate,
              summary.mean_mse_recovered);

  return ExitStatus(flags, {output.Finish()});
}

}  // namespace cli
}  // namespace ldpr
