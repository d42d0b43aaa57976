#include "cli/cli.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "ldp/factory.h"
#include "runner/scenario_runner.h"

namespace ldpr {
namespace cli {

StatusOr<TrialFlags> ParseTrialFlags(const FlagParser& flags,
                                     const std::string& default_dataset,
                                     const std::string& default_attack) {
  TrialFlags trial;
  const auto protocol = ParseProtocolKind(flags.GetString("protocol", "GRR"));
  if (!protocol.ok()) return protocol.status();
  trial.protocol = *protocol;
  if (!default_attack.empty()) {
    const auto attack =
        ParseAttackKind(flags.GetString("attack", default_attack));
    if (!attack.ok()) return attack.status();
    trial.attack = *attack;
  }
  trial.csv = flags.GetString("csv", "");
  if (!trial.csv.empty() &&
      (flags.Has("dataset") || flags.Has("d") || flags.Has("n")))
    return InvalidArgumentError(
        "--csv fixes the population; drop --dataset/--d/--n");
  trial.dataset = flags.GetString("dataset", default_dataset);
  const auto d = flags.GetInt("d", 0);
  const auto n = flags.GetInt("n", 0);
  const auto scale = flags.GetDouble("scale", trial.scale);
  const auto epsilon = flags.GetDouble("epsilon", trial.epsilon);
  const auto beta = flags.GetDouble("beta", trial.beta);
  const auto eta = flags.GetDouble("eta", trial.eta);
  const auto targets = flags.GetNonNegativeInt("targets", 10);
  const auto seed = flags.GetNonNegativeInt("seed", 1);
  for (const Status& status :
       {d.status(), n.status(), scale.status(), beta.status(), eta.status(),
        targets.status(), seed.status()}) {
    if (!status.ok()) return status;
  }
  if (flags.Has("d")) {
    const Status in_range = RequireInRange("d", *d, 2, kMaxDomainSize);
    if (!in_range.ok()) return in_range;
  }
  if (flags.Has("n")) {
    const Status in_range = RequireInRange("n", *n, 1, kMaxUsers);
    if (!in_range.ok()) return in_range;
  }
  if (!(*scale > 0.0 && *scale <= 1.0))
    return InvalidArgumentError("--scale must be in (0, 1]");
  // Any unusable --epsilon (NaN and inf included) names the range.
  if (!epsilon.ok() || !(*epsilon > 0.0 && *epsilon <= kMaxEpsilon)) {
    char message[48];
    std::snprintf(message, sizeof(message), "--epsilon must be in (0, %g]",
                  kMaxEpsilon);
    return InvalidArgumentError(message);
  }
  trial.d = static_cast<size_t>(*d);
  trial.n = static_cast<uint64_t>(*n);
  trial.scale = *scale;
  trial.epsilon = *epsilon;
  trial.beta = *beta;
  trial.eta = *eta;
  trial.targets = static_cast<uint64_t>(*targets);
  trial.seed = static_cast<uint64_t>(*seed);
  return trial;
}

StatusOr<Dataset> ResolveTrialDataset(const TrialFlags& trial) {
  if (trial.csv.empty())
    return ResolveBenchDataset(trial.dataset, trial.scale, trial.d, trial.n);
  auto loaded = LoadItemCsv(trial.csv);
  if (!loaded.ok()) return loaded.status();
  Dataset dataset = ScaleDataset(loaded->dataset, trial.scale);
  Status in_range = RequireInRange(
      "csv distinct items", static_cast<int64_t>(dataset.domain_size()), 2,
      kMaxDomainSize);
  if (in_range.ok())
    in_range = RequireInRange(
        "csv users", static_cast<int64_t>(dataset.num_users()), 1, kMaxUsers);
  if (!in_range.ok()) return in_range;
  return dataset;
}

Status Require(bool condition, const std::string& message) {
  return condition ? Status::Ok() : InvalidArgumentError(message);
}

Status RequireInRange(const char* flag, int64_t value, int64_t lo,
                      int64_t hi) {
  char message[96];
  std::snprintf(message, sizeof(message), "--%s must be in [%lld, %lld]",
                flag, static_cast<long long>(lo), static_cast<long long>(hi));
  return Require(value >= lo && value <= hi, message);
}

int ExitStatus(const FlagParser& flags,
               std::initializer_list<Status> statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& unused : flags.unused_flags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unused.c_str());
    return 1;
  }
  return 0;
}

ResultOutput::ResultOutput(ScenarioSpec spec, std::string out_dir,
                           bool console)
    : spec_(std::move(spec)),
      out_dir_(std::move(out_dir)),
      console_(console),
      tree_(out_dir_) {
  spec_.artifact = "extension";
}

Status ResultOutput::Open(const ScenarioRunReport& run,
                          const Dataset& dataset) {
  report_ = run;
  report_.info.id = spec_.id;
  report_.info.title = spec_.title;
  report_.info.datasets.push_back(
      {dataset.name, dataset.domain_size(), dataset.num_users()});
  std::vector<std::unique_ptr<ResultSink>> sinks;
  if (console_) sinks.push_back(std::make_unique<ConsoleSink>());
  if (!out_dir_.empty()) {
    const Status opened = tree_.OpenScenario(spec_.id, sinks);
    if (!opened.ok()) return opened;
  }
  sink_ = std::make_unique<MultiSink>(std::move(sinks));
  sink_->BeginScenario(report_.info);
  return Status::Ok();
}

void ResultOutput::WriteTable(const std::string& title,
                              const std::vector<TableRow>& rows) {
  sink_->BeginTable(title, spec_.columns);
  for (const auto& [label, values] : rows) sink_->AddRow(label, values);
  sink_->EndTable();
  ++report_.tables;
  report_.rows += rows.size();
}

Status ResultOutput::Finish() {
  Status status = sink_->Finish();
  if (!status.ok() || out_dir_.empty()) return status;
  status = tree_.CloseScenario(spec_, report_);
  if (!status.ok()) return status;
  status = tree_.Finish();
  if (!status.ok()) return status;
  std::printf("wrote %s/manifest.json and %s/%s/"
              "{results.jsonl,manifest.json}\n",
              out_dir_.c_str(), out_dir_.c_str(), spec_.id.c_str());
  return Status::Ok();
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldpr <command> [--flags]\n"
               "\n"
               "commands:\n"
               "  run     batch poisoning + recovery pipeline\n"
               "  stream  windowed streaming ingest replay\n"
               "  bench   registered scenarios (paper figures and tables)\n"
               "  diff    compare two result trees\n"
               "  list    subcommands and registered scenarios\n"
               "\n"
               "run `ldpr list` for the shared flags of each command.\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  if (!command.empty() && command[0] == '-') {
    std::fprintf(stderr,
                 "error: expected a subcommand before flags (got %s)\n",
                 command.c_str());
    PrintUsage(stderr);
    return 1;
  }
  // The subcommand's FlagParser sees argv[1] as its program name, so
  // the tree operands of diff land in positional().
  const FlagParser flags(argc - 1, argv + 1);
  if (command == "run") return RunCommand(flags);
  if (command == "stream") return StreamCommand(flags);
  if (command == "bench") return BenchCommand(flags);
  if (command == "diff") return DiffCommand(flags);
  if (command == "list") return ListCommand(flags);
  std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
  PrintUsage(stderr);
  return 1;
}

}  // namespace cli
}  // namespace ldpr
