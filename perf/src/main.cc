// ldpr_perf: the repository benchmark.  One run measures one workload
// (workloads.h) for --seconds seconds and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}:
//
//   --trace 0   untraced run: the workload's scenarios through
//               RunScenario, repeated until --seconds pass; the
//               end-to-end metrics are medians over those passes.
//   --trace 1   two untraced passes, then the traced replay (replay.h)
//               repeated until --seconds pass; the per-layer metrics
//               are medians over the replays.
//
// Every untraced pass's rows are checked exactly against the reference
// tree recorded for the workload's scenario seed (perf/reference/);
// every replay's rows against the untraced pass's.  A results file
// with the run's provenance goes to --out.  perf/METRICS.md documents
// every metric.
//
//   ldpr_perf --workload paper_grid --seed 3 --seconds 20 --trace 0
//       [--smoke] [--reference perf/reference] [--out .bench_build/results]
//   ldpr_perf --list        # the workloads, one JSON line each

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "ldp/factory.h"
#include "replay.h"
#include "runner/manifest.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "trace.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ldpr {
namespace perf {
namespace {

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 101;

// Every scenario a workload runs, for the runner.<id>_s metrics: each
// run emits all of them (0 for scenarios outside its workload) so the
// metric set is the same on every workload.
std::vector<std::string> AllWorkloadScenarios() {
  std::vector<std::string> ids;
  for (const Workload& workload : AllWorkloads())
    ids.insert(ids.end(), workload.scenarios.begin(),
               workload.scenarios.end());
  return ids;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Run {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint64_t scenario_seed = 0;
  double scale = 0;
  size_t threads = 1;
  double seconds = 1;
  bool trace = false;
  std::vector<const Scenario*> scenarios;
  std::vector<ScenarioResults> reference;
};

// One RunScenario pass over the workload: wall/CPU seconds, per
// scenario seconds, and the rows each scenario emitted.
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::map<std::string, double> scenario_s;
  std::vector<ScenarioResults> rows;
};

StatusOr<Pass> RunPass(const Run& run) {
  ScenarioRunOptions options;
  options.seed = run.scenario_seed;
  options.trials = run.workload->trials;
  options.scale = run.scale;
  Pass pass;
  const double cpu0 = CpuSeconds();
  const double wall0 = Now();
  for (const Scenario* scenario : run.scenarios) {
    CollectingSink sink(scenario->spec.timing_columns);
    const double start = Now();
    auto report = RunScenario(*scenario, options, sink);
    if (!report.ok()) return report.status();
    pass.scenario_s[scenario->spec.id] = Now() - start;
    pass.rows.push_back(sink.results());
  }
  pass.wall_s = Now() - wall0;
  pass.cpu_s = CpuSeconds() - cpu0;
  return pass;
}

// Resolves every dataset and builds every protocol the workload's
// scenarios declare, and starts and stops a pool of the workload's
// width: what a run does before its first trial.
double SetupOnce(const Run& run) {
  const double start = Now();
  for (const Scenario* scenario : run.scenarios) {
    const ScenarioSpec& spec = scenario->spec;
    std::vector<ProtocolKind> kinds = spec.protocols;
    for (const ScenarioCell& cell : spec.cells) kinds.push_back(cell.protocol);
    for (const std::string& name : spec.datasets) {
      auto dataset = ResolveBenchDataset(name, run.scale);
      if (!dataset.ok()) continue;
      for (ProtocolKind kind : kinds)
        (void)MakeProtocol(kind, dataset->domain_size(),
                           spec.defaults.epsilon);
    }
  }
  { ThreadPool pool(run.threads); }
  return Now() - start;
}

RowCheck CheckAgainst(const std::vector<ScenarioResults>& expected,
                      const std::vector<ScenarioResults>& actual) {
  RowCheck check;
  for (size_t i = 0; i < expected.size() && i < actual.size(); ++i)
    check.Add(CompareRows(expected[i], actual[i]));
  return check;
}

// Per-layer metrics of one traced replay of the workload.
struct ReplayPass {
  std::map<std::string, double> metrics;
  std::vector<TrialTrace> traces;
};

StatusOr<ReplayPass> RunReplay(const Run& run, const Pass& untraced,
                               bool check_trials) {
  ReplayPass pass;
  size_t mismatches = 0;
  double check_s = 0;
  const double wall0 = Now();
  for (size_t s = 0; s < run.scenarios.size(); ++s) {
    auto replay = ReplayScenario(*run.scenarios[s], run.scenario_seed,
                                 run.scale, run.workload->trials, run.threads,
                                 check_trials);
    if (!replay.ok()) return replay.status();
    const RowCheck rows = CompareRows(untraced.rows[s], replay->rows);
    for (const std::string& note : rows.notes)
      std::fprintf(stderr, "replay mismatch: %s\n", note.c_str());
    mismatches += rows.failed + replay->trial_mismatches;
    check_s += replay->check_s;
    std::move(replay->traces.begin(), replay->traces.end(),
              std::back_inserter(pass.traces));
  }
  const double traced_wall = Now() - wall0 - check_s;

  double layer_s[kLayerCount] = {};
  Counters counters;
  std::vector<double> trial_s;
  double in_trials = 0, spans_in_trials = 0;
  std::map<std::pair<std::string, size_t>, double> cell_s;
  for (const TrialTrace& trace : pass.traces) {
    double spans = 0;
    for (const Span& span : trace.spans) {
      layer_s[static_cast<size_t>(span.layer)] += span.end - span.start;
      spans += span.end - span.start;
    }
    counters.Add(trace.counters);
    if (trace.index == kNoTrial) continue;
    const double duration = trace.end - trace.start;
    trial_s.push_back(duration);
    in_trials += duration;
    spans_in_trials += spans;
    cell_s[{trace.scenario, trace.cell}] += duration;
  }
  double straggler = 0;
  for (const auto& entry : cell_s)
    straggler = std::max(straggler, entry.second);

  std::map<std::string, double>& m = pass.metrics;
  for (size_t l = 0; l < kLayerCount; ++l) {
    if (static_cast<Layer>(l) == Layer::kBenchmarkProbe) continue;
    m[std::string(LayerName(static_cast<Layer>(l))) + "_s"] = layer_s[l];
  }
  const auto layer = [&](Layer l) { return layer_s[static_cast<size_t>(l)]; };
  m["ldp.aggregate_reports_per_s"] =
      Ratio(counters.aggregate_reports, layer(Layer::kLdpAggregate));
  m["ldp.aggregate_bytes"] = counters.aggregate_bytes;
  m["attack.craft_ns_per_report"] =
      Ratio(1e9 * layer(Layer::kAttackCraft), counters.reports_crafted);
  m["attack.reports_crafted"] = counters.reports_crafted;
  m["recover.simplex_iters"] = counters.simplex_iters;
  m["recover.detect_kept_frac"] =
      Ratio(counters.detect_kept, counters.detect_offered);
  m["stream.arrival_ns_per_report"] =
      Ratio(1e9 * layer(Layer::kStreamArrival), counters.arrival_reports);
  m["stream.windows"] = counters.stream_windows;
  m["stream.reports_per_s"] =
      Ratio(counters.stream_reports, layer(Layer::kStreamRun));
  m["shard.wire_bytes"] = counters.wire_bytes;
  m["shard.lines_rejected_frac"] =
      Ratio(counters.lines_rejected, counters.lines_total);
  m["sim.trial_s_p50"] = Percentile(trial_s, 0.5);
  m["sim.trial_s_p90"] = Percentile(trial_s, 0.9);
  m["sim.trials"] = static_cast<double>(trial_s.size());
  m["sim.replay_mismatch"] = static_cast<double>(mismatches);
  m["sim.untraced_frac"] = Ratio(in_trials - spans_in_trials, in_trials);
  m["sim.traced_wall_s"] = traced_wall;
  m["runner.straggler_s"] = straggler;
  return pass;
}

// The per-layer metric units; anything not listed is in seconds.
std::string UnitOf(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      {"ldp.aggregate_reports_per_s", "1/s"},
      {"ldp.aggregate_bytes", "bytes"},
      {"attack.craft_ns_per_report", "ns"},
      {"attack.reports_crafted", "count"},
      {"recover.simplex_iters", "count"},
      {"recover.detect_kept_frac", "fraction"},
      {"stream.arrival_ns_per_report", "ns"},
      {"stream.windows", "count"},
      {"stream.reports_per_s", "1/s"},
      {"shard.wire_bytes", "bytes"},
      {"shard.lines_rejected_frac", "fraction"},
      {"sim.trials", "count"},
      {"sim.replay_mismatch", "count"},
      {"sim.untraced_frac", "fraction"},
      {"runner.busy_frac", "fraction"},
      {"fail_frac", "fraction"},
  };
  const auto it = units.find(name);
  return it != units.end() ? it->second : "s";
}

void WriteMetrics(JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& metric : metrics) {
    json.Key(metric.name);
    json.BeginObject();
    json.Key("value");
    json.Number(metric.value);
    json.Key("unit");
    json.String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
}

// The results file: provenance (two files compare only when it
// matches), the metrics, and the per-pass samples behind the medians.
Status WriteResultsFile(const std::string& path, const Run& run,
                        const std::vector<Metric>& metrics,
                        const std::map<std::string, std::vector<double>>&
                            samples,
                        const RowCheck& check) {
  JsonWriter json;
  json.BeginObject();
  json.Key("provenance");
  json.BeginObject();
  json.Key("simd");
  json.String(ActiveSimdBackendName());
  json.Key("git_describe");
  json.String(GitDescribe());
  json.Key("build_type");
  json.String(LDPR_PERF_BUILD_TYPE);
  json.Key("nproc");
  json.UInt(std::thread::hardware_concurrency());
  json.Key("threads");
  json.UInt(run.threads);
  json.Key("seed");
  json.UInt(run.seed);
  json.Key("scenario_seed");
  json.UInt(run.scenario_seed);
  json.Key("workload");
  json.String(run.workload->name);
  json.Key("scale");
  json.Number(run.scale);
  json.Key("trials");
  json.UInt(run.workload->trials);
  json.Key("seconds");
  json.Number(run.seconds);
  json.Key("trace");
  json.Bool(run.trace);
  json.EndObject();
  json.Key("attempted");
  json.UInt(check.attempted);
  json.Key("failed");
  json.UInt(check.failed);
  json.Key("metrics");
  WriteMetrics(json, metrics);
  json.Key("samples");
  json.BeginObject();
  for (const auto& [name, values] : samples) {
    json.Key(name);
    json.BeginArray();
    for (double v : values) json.Number(v);
    json.EndArray();
  }
  json.EndObject();
  json.EndObject();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return InternalError("cannot open " + path);
  std::fputs((json.str() + "\n").c_str(), file);
  const bool failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || failed)
    return InternalError("write failed: " + path);
  return Status::Ok();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "ldpr_perf: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  const double process_start = Now();
  const FlagParser flags(argc, argv);
  const std::string workload_name = flags.GetString("workload", "");
  const auto seed = flags.GetInt("seed", 0);
  const auto seconds = flags.GetDouble("seconds", 10);
  const auto trace = flags.GetInt("trace", 0);
  const bool smoke = flags.GetBool("smoke", false);
  const std::string reference_root =
      flags.GetString("reference", "perf/reference");
  const std::string out_dir = flags.GetString("out", ".bench_build/results");
  const bool list = flags.GetBool("list", false);
  for (const Status& status :
       {seed.ok() ? Status::Ok() : seed.status(),
        seconds.ok() ? Status::Ok() : seconds.status(),
        trace.ok() ? Status::Ok() : trace.status()}) {
    if (!status.ok()) return Fail(status.ToString());
  }
  for (const std::string& unused : flags.unused_flags())
    return Fail("unknown flag --" + unused);

  if (list) {
    // One JSON line per workload: what perf/record_reference.py runs.
    for (const Workload& workload : AllWorkloads()) {
      JsonWriter json;
      json.BeginObject();
      json.Key("name");
      json.String(workload.name);
      json.Key("scenarios");
      json.BeginArray();
      for (const std::string& id : workload.scenarios) json.String(id);
      json.EndArray();
      json.Key("scale");
      json.Number(workload.scale);
      json.Key("smoke_scale");
      json.Number(kSmokeScale);
      json.Key("trials");
      json.UInt(workload.trials);
      json.Key("reference_seeds");
      json.UInt(kReferenceSeeds);
      json.Key("scenario_seed_base");
      json.UInt(ScenarioSeed(0));
      json.EndObject();
      std::printf("%s\n", json.str().c_str());
    }
    return 0;
  }

  Run run;
  run.workload = FindWorkload(workload_name);
  if (run.workload == nullptr)
    return Fail("unknown workload '" + workload_name + "'");
  if (*seed < 0) return Fail("--seed must be >= 0");
  if (*trace != 0 && *trace != 1) return Fail("--trace must be 0 or 1");
  run.seed = static_cast<uint64_t>(*seed);
  run.scenario_seed = ScenarioSeed(run.seed);
  run.scale = smoke ? kSmokeScale : run.workload->scale;
  run.seconds = std::max(0.0, *seconds);
  run.trace = *trace == 1;
  const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  run.threads = std::min(run.workload->threads, cores);
  // The global pool reads LDPR_THREADS once, at first parallel work.
  setenv("LDPR_THREADS", std::to_string(run.threads).c_str(), 1);

  // --- set-up: the first repetition pays the one-time costs, every
  // repetition the per-run ones.
  std::vector<double> setup_s;
  {
    const double start = Now();
    bench::RegisterAllScenarios();
    for (const std::string& id : run.workload->scenarios) {
      const Scenario* scenario = ScenarioRegistry::Global().Find(id);
      if (scenario == nullptr) return Fail("scenario not registered: " + id);
      run.scenarios.push_back(scenario);
    }
    (void)GlobalThreadPool();
    setup_s.push_back(Now() - start + SetupOnce(run));
  }
  for (int i = 1; i < kSetupRepeats; ++i) setup_s.push_back(SetupOnce(run));

  const std::string reference_dir =
      reference_root + "/" + run.workload->name + "/" +
      (smoke ? "smoke" : "full") + "/seed-" +
      std::to_string(run.seed % kReferenceSeeds);
  auto reference = LoadResultTree(reference_dir);
  if (!reference.ok())
    return Fail("reference tree: " + reference.status().ToString());
  for (const Scenario* scenario : run.scenarios) {
    ScenarioResults expected;
    expected.id = scenario->spec.id;
    for (const ScenarioResults& s : reference->scenarios) {
      if (s.id == scenario->spec.id) expected = s;
    }
    run.reference.push_back(std::move(expected));
  }

  uint64_t users = 0;
  for (const Scenario* scenario : run.scenarios) {
    auto count = ScenarioUsers(*scenario, run.scale, run.workload->trials);
    if (!count.ok()) return Fail(count.status().ToString());
    users += *count;
  }

  std::fprintf(stderr,
               "ldpr_perf: workload=%s seed=%llu scenario_seed=%llu "
               "scale=%g threads=%zu trace=%d simd=%s\n",
               run.workload->name.c_str(),
               static_cast<unsigned long long>(run.seed),
               static_cast<unsigned long long>(run.scenario_seed), run.scale,
               run.threads, run.trace ? 1 : 0, ActiveSimdBackendName());

  // --- measurement.
  const double measure_start = Now();
  RowCheck check;
  std::vector<Pass> passes;
  do {
    auto pass = RunPass(run);
    if (!pass.ok()) return Fail(pass.status().ToString());
    const RowCheck rows = CheckAgainst(run.reference, pass->rows);
    for (const std::string& note : rows.notes)
      std::fprintf(stderr, "reference mismatch: %s\n", note.c_str());
    check.Add(rows);
    passes.push_back(std::move(*pass));
    // A traced run keeps its second, warm pass as the untraced
    // reference for the replay.
  } while (run.trace ? passes.size() < 2
                     : Now() - measure_start < run.seconds);

  std::map<std::string, std::vector<double>> samples;
  std::vector<Metric> metrics;
  if (!run.trace) {
    for (const Pass& pass : passes) {
      samples["wall_s"].push_back(pass.wall_s);
      samples["cpu_s"].push_back(pass.cpu_s);
      samples["users_per_s"].push_back(Ratio(users, pass.wall_s));
    }
    samples["setup_s"] = setup_s;
    metrics = {
        {"wall_s", "s", Median(samples["wall_s"])},
        {"users_per_s", "1/s", Median(samples["users_per_s"])},
        {"cpu_s", "s", Median(samples["cpu_s"])},
        {"setup_s", "s", Median(setup_s)},
        {"peak_rss_mb", "MB", PeakRssMb()},
    };
  } else {
    const Pass& untraced = passes.back();
    std::vector<ReplayPass> replays;
    do {
      auto replay = RunReplay(run, untraced, replays.empty());
      if (!replay.ok()) return Fail(replay.status().ToString());
      replays.push_back(std::move(*replay));
    } while (Now() - measure_start < run.seconds);

    for (const ReplayPass& replay : replays) {
      for (const auto& [name, value] : replay.metrics)
        samples[name].push_back(value);
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : samples) layer[name] = Median(values);
    for (const std::string& id : AllWorkloadScenarios()) {
      const auto it = untraced.scenario_s.find(id);
      layer["runner." + id + "_s"] =
          it != untraced.scenario_s.end() ? it->second : 0.0;
    }
    layer["runner.busy_frac"] =
        Ratio(untraced.cpu_s,
              static_cast<double>(run.threads) * untraced.wall_s);
    layer["sim.untraced_wall_s"] = untraced.wall_s;
    layer["fail_frac"] = Ratio(check.failed, check.attempted);
    for (const auto& [name, value] : layer)
      metrics.push_back({name, UnitOf(name), value});

    // Which layer held the largest share of the replay.
    std::string top;
    double top_s = -1;
    for (size_t l = 0; l < kLayerCount; ++l) {
      const std::string name =
          std::string(LayerName(static_cast<Layer>(l))) + "_s";
      if (layer.count(name) && layer[name] > top_s) {
        top_s = layer[name];
        top = name;
      }
    }
    std::fprintf(stderr,
                 "ldpr_perf: largest layer %s = %.3f s of %.3f s traced\n",
                 top.c_str(), top_s, layer["sim.traced_wall_s"]);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const Status spans = WriteSpans(
        out_dir + "/" + run.workload->name + "-seed" +
            std::to_string(run.seed) + ".spans.jsonl",
        replays.back().traces);
    if (!spans.ok()) return Fail(spans.ToString());
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const Status written = WriteResultsFile(
      out_dir + "/" + run.workload->name + "-seed" + std::to_string(run.seed) +
          "-trace" + std::to_string(run.trace ? 1 : 0) + ".json",
      run, metrics, samples, check);
  if (!written.ok()) return Fail(written.ToString());

  const bool replay_ok =
      !run.trace || samples["sim.replay_mismatch"].empty() ||
      *std::max_element(samples["sim.replay_mismatch"].begin(),
                        samples["sim.replay_mismatch"].end()) == 0;
  std::fprintf(stderr,
               "ldpr_perf: %zu pass(es), rows %zu attempted / %zu failed, "
               "%.1f s total\n",
               passes.size(), check.attempted, check.failed,
               Now() - process_start);

  JsonWriter json;
  json.BeginObject();
  json.Key("correct");
  json.Bool(check.failed == 0 && check.attempted > 0 && replay_ok);
  json.Key("attempted");
  json.UInt(check.attempted);
  json.Key("failed");
  json.UInt(check.failed);
  json.Key("metrics");
  WriteMetrics(json, metrics);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::perf::Main(argc, argv); }
