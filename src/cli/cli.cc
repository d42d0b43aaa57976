#include "cli/cli.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "data/synthetic.h"

namespace ldpr {
namespace cli {

StatusOr<Dataset> ParseDatasetFlags(const FlagParser& flags) {
  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    auto loaded = LoadItemCsv(csv);
    if (!loaded.ok()) return loaded.status();
    return std::move(loaded).value().dataset;
  }
  const std::string name = flags.GetString("dataset", "ipums");
  const auto d = flags.GetInt("d", 102);
  const auto n = flags.GetInt("n", 100000);
  const auto s = flags.GetDouble("zipf_s", 1.0);
  if (!d.ok()) return d.status();
  if (!n.ok()) return n.status();
  if (!s.ok()) return s.status();
  if (*d < 2) return InvalidArgumentError("--d must be >= 2");
  if (*n < 1) return InvalidArgumentError("--n must be >= 1");
  if (name == "ipums") return MakeIpumsLike();
  if (name == "fire") return MakeFireLike();
  if (name == "zipf") {
    return MakeZipfDataset("zipf", static_cast<size_t>(*d),
                           static_cast<uint64_t>(*n), *s, /*shuffle_seed=*/17);
  }
  if (name == "uniform") {
    return MakeUniformDataset("uniform", static_cast<size_t>(*d),
                              static_cast<uint64_t>(*n));
  }
  return InvalidArgumentError("unknown dataset: " + name);
}

StatusOr<std::unique_ptr<ResultSink>> MakeRunSink(
    const std::string& out_path, const std::string& scenario_id) {
  // The console table and the optional --out file are two sinks over
  // one row stream, so the file always mirrors what was printed.
  // Opened before the run so a bad path fails in milliseconds, not
  // after a paper-scale experiment.
  std::vector<std::unique_ptr<ResultSink>> sinks;
  sinks.push_back(std::make_unique<ConsoleSink>());
  if (!out_path.empty()) {
    const bool jsonl = out_path.size() >= 6 &&
                       out_path.compare(out_path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl) {
      auto out_sink = std::make_unique<JsonlSink>(out_path);
      if (!out_sink->ok())
        return NotFoundError("cannot write " + out_path);
      sinks.push_back(std::move(out_sink));
    } else {
      auto out_sink = std::make_unique<CsvSink>(out_path);
      if (!out_sink->ok())
        return NotFoundError("cannot write " + out_path);
      sinks.push_back(std::move(out_sink));
    }
  }
  auto sink = std::make_unique<MultiSink>(std::move(sinks));
  ScenarioRunInfo info;
  info.id = scenario_id;
  sink->BeginScenario(info);
  return StatusOr<std::unique_ptr<ResultSink>>(std::move(sink));
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldpr <command> [--flags]\n"
               "\n"
               "commands:\n"
               "  run           batch poisoning + recovery pipeline\n"
               "  stream        windowed streaming ingest replay\n"
               "  shard-worker  compute one worker's partial support counts\n"
               "  shard-merge   merge worker partials into a result tree\n"
               "  diff          compare two result trees\n"
               "  list          subcommands and registered scenarios\n"
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
  // file operands of shard-merge and diff land in positional().
  const FlagParser flags(argc - 1, argv + 1);
  if (command == "run") return RunCommand(flags);
  if (command == "stream") return StreamCommand(flags);
  if (command == "shard-worker") return ShardWorkerCommand(flags);
  if (command == "shard-merge") return ShardMergeCommand(flags);
  if (command == "diff") return DiffCommand(flags);
  if (command == "list") return ListCommand(flags);
  std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
  PrintUsage(stderr);
  return 1;
}

}  // namespace cli
}  // namespace ldpr
