// `ldpr stream`: replay the dataset as a time-ordered arrival stream
// through the windowed streaming engine (src/stream/) and print one
// row per closed window.
//
//   # A mid-stream MGA wave over sliding windows:
//   ldpr stream --protocol=OUE --dataset=zipf
//       --wave=wave --beta=0.25 --window=10000 --stride=5000
//
// Extra knobs over the shared layer: --window [n/10 reports],
// --stride [0 = tumbling], --wave [constant]
// (none|constant|wave|ramp; `wave` switches the MGA cohort on over
// the middle [0.3n, 0.7n) of the stream), with --beta as the (peak)
// attacker fraction and --targets as the MGA target count.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
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
  const auto protocol_or =
      ParseProtocolKind(flags.GetString("protocol", "GRR"));
  auto dataset_or = ParseDatasetFlags(flags);
  const auto epsilon = flags.GetDouble("epsilon", 0.5);
  const auto beta = flags.GetDouble("beta", 0.05);
  const auto eta = flags.GetDouble("eta", 0.2);
  const auto targets = flags.GetNonNegativeInt("targets", 10);
  const auto seed = flags.GetNonNegativeInt("seed", 1);
  const auto scale = flags.GetDouble("scale", 1.0);
  const auto window = flags.GetNonNegativeInt("window", 0);
  const auto stride = flags.GetNonNegativeInt("stride", 0);
  const auto wave_or = ParseWaveShape(flags.GetString("wave", "constant"));
  const std::string out_path = flags.GetString("out", "");

  for (const Status& status :
       {protocol_or.status(), dataset_or.status(), epsilon.status(),
        beta.status(), eta.status(), targets.status(), seed.status(),
        scale.status(), window.status(), stride.status(),
        wave_or.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }
  if (!(*scale > 0.0 && *scale <= 1.0)) {
    std::fprintf(stderr,
                 "error: INVALID_ARGUMENT: --scale must be in (0, 1]\n");
    return 1;
  }
  const Dataset dataset = ScaleDataset(*dataset_or, *scale);

  StreamSpec spec;
  spec.total_reports = dataset.num_users();
  spec.window_reports = *window > 0
                            ? static_cast<size_t>(*window)
                            : std::max<size_t>(1, spec.total_reports / 10);
  spec.stride_reports = static_cast<size_t>(*stride);
  spec.item_counts = dataset.item_counts;
  spec.wave = *wave_or;
  spec.attacker_fraction = spec.wave == WaveShape::kNone ? 0.0 : *beta;
  spec.num_targets = static_cast<size_t>(*targets);
  if (spec.wave == WaveShape::kWave) {
    spec.wave_start = spec.total_reports * 3 / 10;
    spec.wave_end = spec.total_reports * 7 / 10;
  }
  if (const Status valid = ValidateStreamSpec(spec); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 1;
  }

  auto sink_or = MakeRunSink(out_path, "cli-stream");
  if (!sink_or.ok()) {
    std::fprintf(stderr, "error: %s\n", sink_or.status().ToString().c_str());
    return 1;
  }
  ResultSink& sink = **sink_or;

  const auto protocol =
      MakeProtocol(*protocol_or, dataset.domain_size(), *epsilon);
  StreamEngineOptions options;
  options.recover.eta = *eta;
  const double base = ApproxGenuineSuspicionRate(*protocol, spec.num_targets);
  const double peak =
      spec.attacker_fraction > 0.0 ? spec.attacker_fraction : 0.25;
  options.detect_fraction = base + peak * (1.0 - base) / 2.0;

  std::printf("ldpr stream: %s on %s (d=%zu, n=%llu), eps=%g, "
              "wave=%s, beta=%g, window=%zu, stride=%zu\n\n",
              ProtocolKindName(*protocol_or), dataset.name.c_str(),
              dataset.domain_size(),
              static_cast<unsigned long long>(spec.total_reports), *epsilon,
              WaveShapeName(spec.wave), spec.attacker_fraction,
              spec.window_reports, spec.stride_reports);

  const StreamSummary summary =
      RunStream(*protocol, spec, options, static_cast<uint64_t>(*seed));

  sink.BeginTable("Streaming windows",
                  {"Reports", "Attackers", "MSE", "RecMSE", "Detected"});
  for (const WindowResult& w : summary.windows) {
    sink.AddRow("win" + std::to_string(w.index),
                {static_cast<double>(w.report_count),
                 static_cast<double>(w.attackers), w.mse_estimate,
                 w.mse_recovered, w.detected ? 1.0 : 0.0});
  }
  sink.EndTable();

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

  const Status finish = sink.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "error: %s\n", finish.ToString().c_str());
    return 1;
  }
  if (!out_path.empty()) std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace cli
}  // namespace ldpr
