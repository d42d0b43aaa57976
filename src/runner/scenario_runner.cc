#include "runner/scenario_runner.h"

#include <map>
#include <string>
#include <tuple>

#include "data/synthetic.h"
#include "sim/experiment.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace ldpr {

namespace {

// The registered bench dataset generators.  A generator owns its
// default shape; the resizable synthetic families additionally accept
// per-row d/n overrides (the scaling-law dataset axes), while the
// paper's fixed-shape stand-ins reject them.
struct BenchDatasetGenerator {
  const char* name;
  const char* display;
  bool resizable;
  size_t default_d;
  uint64_t default_n;
  Dataset (*make)(size_t d, uint64_t n);
};

constexpr size_t kSyntheticDefaultD = 102;
constexpr uint64_t kSyntheticDefaultN = 100000;

Dataset MakeIpumsBench(size_t, uint64_t) { return MakeIpumsLike(); }
Dataset MakeFireBench(size_t, uint64_t) { return MakeFireLike(); }
Dataset MakeZipfBench(size_t d, uint64_t n) {
  return MakeZipfDataset("zipf", d, n, /*s=*/1.0, /*shuffle_seed=*/17);
}
Dataset MakeUniformBench(size_t d, uint64_t n) {
  return MakeUniformDataset("uniform", d, n);
}

constexpr BenchDatasetGenerator kBenchDatasetGenerators[] = {
    {"ipums", "IPUMS-like", false, 0, 0, MakeIpumsBench},
    {"fire", "Fire-like", false, 0, 0, MakeFireBench},
    {"zipf", "zipf", true, kSyntheticDefaultD, kSyntheticDefaultN,
     MakeZipfBench},
    {"uniform", "uniform", true, kSyntheticDefaultD, kSyntheticDefaultN,
     MakeUniformBench},
};

const BenchDatasetGenerator* FindBenchDatasetGenerator(
    const std::string& name) {
  for (const BenchDatasetGenerator& gen : kBenchDatasetGenerators) {
    if (name == gen.name) return &gen;
  }
  return nullptr;
}

}  // namespace

StatusOr<Dataset> ResolveBenchDataset(const std::string& name, double scale,
                                      size_t d_override,
                                      uint64_t n_override) {
  if (!(scale > 0.0 && scale <= 1.0))
    return InvalidArgumentError("dataset scale out of (0, 1]");
  const BenchDatasetGenerator* gen = FindBenchDatasetGenerator(name);
  if (gen == nullptr)
    return InvalidArgumentError("unknown scenario dataset: " + name);
  if ((d_override != 0 || n_override != 0) && !gen->resizable)
    return InvalidArgumentError(
        "dataset '" + name +
        "' has a fixed shape and accepts no d/n overrides (use a "
        "synthetic generator for dataset-axis sweeps)");
  const size_t d = d_override != 0 ? d_override : gen->default_d;
  const uint64_t n = n_override != 0 ? n_override : gen->default_n;
  return ScaleDataset(gen->make(d, n), scale);
}

std::string BenchDatasetDisplayName(const std::string& name) {
  const BenchDatasetGenerator* gen = FindBenchDatasetGenerator(name);
  return gen != nullptr ? gen->display : name;
}

namespace {

// Records the thread split the shared fan-out applies to `units`.
void RecordThreadSplit(size_t units, ScenarioRunReport& report) {
  const ThreadBudget budget = SplitThreadBudget(0, units);
  report.outer_workers = budget.outer;
  report.shards = budget.inner;
}

// Runs a lowered grid scenario: every config of every table runs in
// one flat (config x trial) fan-out.  Rows with n/d overrides (the
// dataset-axis sweeps) run on their dataset variant, resolved once
// per distinct (dataset, n, d); the other rows share the pre-resolved
// datasets.  Results come back in lowering order, row by row.
Status RunGridScenario(const Scenario& scenario, const LoweredScenario& lowered,
                       const std::vector<Dataset>& datasets,
                       ScenarioContext& ctx) {
  std::map<std::tuple<size_t, uint64_t, size_t>, Dataset> variants;
  std::vector<ExperimentCell> cells;
  for (const LoweredTable& table : lowered.tables) {
    for (const LoweredRow& row : table.rows) {
      const Dataset* dataset = &datasets[table.dataset_index];
      if (row.n_override != 0 || row.d_override != 0) {
        const auto key = std::make_tuple(table.dataset_index, row.n_override,
                                         row.d_override);
        auto variant = variants.find(key);
        if (variant == variants.end()) {
          auto resolved =
              ResolveBenchDataset(ctx.spec.datasets[table.dataset_index],
                                  ctx.scale, row.d_override, row.n_override);
          if (!resolved.ok()) return resolved.status();
          variant = variants.emplace(key, std::move(*resolved)).first;
        }
        dataset = &variant->second;
      }
      for (const ExperimentConfig& config : row.configs)
        cells.push_back({&config, dataset});
    }
  }
  const std::vector<ExperimentResult> results =
      RunExperiments(cells, /*threads=*/0);
  RecordThreadSplit(cells.size() * ctx.trials, ctx.report);

  const std::vector<std::string>& columns = scenario.spec.columns;
  auto next = results.begin();
  for (const LoweredTable& table : lowered.tables) {
    ctx.sink.BeginTable(table.title, columns);
    for (const LoweredRow& row : table.rows) {
      const std::vector<double> values = scenario.format_row(
          std::vector<ExperimentResult>(next, next + row.configs.size()));
      next += row.configs.size();
      LDPR_CHECK(values.size() == columns.size());
      ctx.sink.AddRow(row.label, values);
      ++ctx.report.rows;
    }
    ctx.sink.EndTable();
    ++ctx.report.tables;
  }
  return Status::Ok();
}

}  // namespace

void RunTrialTable(ScenarioContext& ctx, const std::string& title,
                   const std::vector<std::string>& row_labels, uint64_t seed,
                   const TrialColumnsFn& fn, size_t group) {
  const size_t cells = row_labels.size();
  const size_t trials = ctx.trials;
  const std::vector<std::vector<double>> runs =
      FanOutTrials<std::vector<double>>(
          /*num_threads=*/0, cells, trials,
          [&](size_t cell, size_t trial, size_t shards) {
            return fn(cell, shards, DeriveSeed(seed, cell * trials + trial));
          });
  RecordThreadSplit(cells * trials, ctx.report);

  const std::vector<std::string>& columns = ctx.spec.columns;
  ctx.sink.BeginTable(title, columns);
  for (size_t cell = 0; cell < cells; ++cell) {
    std::vector<RunningStat> stats(columns.size());
    for (size_t t = 0; t < trials; ++t) {
      const std::vector<double>& values = runs[cell * trials + t];
      LDPR_CHECK(values.size() == columns.size());
      for (size_t k = 0; k < values.size(); ++k) stats[k].Add(values[k]);
    }
    std::vector<double> means;
    for (const RunningStat& stat : stats) means.push_back(stat.mean());
    ctx.sink.AddRow(row_labels[cell], means);
    ++ctx.report.rows;
    if (group != 0 && (cell + 1) % group == 0 && cell + 1 < cells)
      ctx.sink.AddSeparator();
  }
  ctx.sink.EndTable();
  ++ctx.report.tables;
}

StatusOr<ScenarioRunReport> RunScenario(const Scenario& scenario,
                                        const ScenarioRunOptions& options,
                                        ResultSink& sink) {
  const ScenarioSpec& spec = scenario.spec;
  Status valid = ValidateScenarioSpec(spec);
  if (!valid.ok()) return valid;

  const uint64_t seed = options.seed != 0 ? options.seed : spec.defaults.seed;
  const size_t trials = options.trials != 0 ? options.trials : 3;
  const double scale = options.scale != 0 ? options.scale : 0.05;
  if (trials > kMaxTrials)
    return InvalidArgumentError("trials must be in [1, " +
                                std::to_string(kMaxTrials) + "]");

  // Grid scenarios lower before the banner renders: a dataset whose
  // every row overrides the shape (the dataset-axis sweeps) never
  // runs at its default size, and the banner/manifest should say so
  // rather than present the default as a run shape.
  LoweredScenario lowered;
  std::vector<bool> runs_default_shape(spec.datasets.size(), true);
  if (!spec.custom) {
    auto lowered_or = LowerScenario(spec, trials, seed);
    if (!lowered_or.ok()) return lowered_or.status();
    lowered = std::move(*lowered_or);
    runs_default_shape.assign(spec.datasets.size(), false);
    for (const LoweredTable& table : lowered.tables) {
      for (const LoweredRow& row : table.rows) {
        if (row.n_override == 0 && row.d_override == 0)
          runs_default_shape[table.dataset_index] = true;
      }
    }
  }

  // Resolve every declared dataset up front — the banner reports
  // their scaled sizes and the grid engine runs against them (rows
  // with shape overrides resolve their variants later).
  std::vector<Dataset> datasets;
  ScenarioRunInfo info;
  info.id = spec.id;
  info.title = spec.title;
  info.seed = seed;
  info.scale = scale;
  info.trials = trials;
  info.threads = DefaultThreadCount();
  for (size_t ds = 0; ds < spec.datasets.size(); ++ds) {
    auto dataset = ResolveBenchDataset(spec.datasets[ds], scale);
    if (!dataset.ok()) return dataset.status();
    std::string display = BenchDatasetDisplayName(spec.datasets[ds]);
    if (!runs_default_shape[ds]) display += " (shape swept per row)";
    info.datasets.push_back(
        {std::move(display), dataset->domain_size(), dataset->num_users()});
    datasets.push_back(std::move(*dataset));
  }
  sink.BeginScenario(info);

  ScenarioRunReport report;
  report.info = info;
  ScenarioContext ctx{spec, seed, trials, scale, datasets, sink, report};

  const Status status = spec.custom
                            ? scenario.run(ctx)
                            : RunGridScenario(scenario, lowered, datasets, ctx);
  if (!status.ok()) return status;
  return report;
}

}  // namespace ldpr
