#include "runner/manifest.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "util/json_writer.h"
#include "util/simd.h"

namespace ldpr {

std::string GitDescribe() {
#ifdef LDPR_GIT_DESCRIBE
  return LDPR_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

/// Manifest schema version.  v2 added `schema_version` itself, the
/// spec's `columns`/`timing_columns` (so comparators know which
/// columns are wall-clock measurements), and the tree manifest.
constexpr int kManifestSchemaVersion = 2;

// Result files of one scenario, relative to its directory.
const char* const kResultFiles[] = {"results.jsonl"};

void StringArray(JsonWriter& w, const std::vector<std::string>& items) {
  w.BeginArray();
  for (const std::string& item : items) w.String(item);
  w.EndArray();
}

std::string RunManifestJson(const ScenarioSpec& spec,
                            const ScenarioRunReport& report) {
  const ScenarioRunInfo& info = report.info;
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kManifestSchemaVersion);
  w.Key("scenario");
  w.String(spec.id);
  w.Key("artifact");
  w.String(spec.artifact);
  w.Key("title");
  w.String(spec.title);
  w.Key("seed");
  w.UInt(info.seed);
  w.Key("scale");
  w.Number(info.scale);
  w.Key("trials");
  w.UInt(info.trials);
  w.Key("threads");
  w.UInt(info.threads);
  w.Key("outer_workers");
  w.UInt(report.outer_workers);
  w.Key("shards");
  w.UInt(report.shards);
  w.Key("tables");
  w.UInt(report.tables);
  w.Key("rows");
  w.UInt(report.rows);
  w.Key("simd");
  w.String(ActiveSimdBackendName());
  w.Key("git_describe");
  w.String(GitDescribe());
  w.Key("datasets");
  w.BeginArray();
  for (const auto& ds : info.datasets) {
    w.BeginObject();
    w.Key("name");
    w.String(ds.display);
    w.Key("domain_size");
    w.UInt(ds.domain_size);
    w.Key("num_users");
    w.UInt(ds.num_users);
    w.EndObject();
  }
  w.EndArray();
  w.Key("columns");
  StringArray(w, spec.columns);
  w.Key("timing_columns");
  StringArray(w, spec.timing_columns);
  w.Key("files");
  w.BeginArray();
  for (const char* file : kResultFiles) w.String(file);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string TreeManifestJson(const std::vector<ScenarioRunInfo>& scenarios) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kManifestSchemaVersion);
  w.Key("kind");
  w.String("ldpr_result_tree");
  w.Key("git_describe");
  w.String(GitDescribe());
  w.Key("scenarios");
  w.BeginArray();
  for (const ScenarioRunInfo& info : scenarios) {
    w.BeginObject();
    w.Key("id");
    w.String(info.id);
    w.Key("seed");
    w.UInt(info.seed);
    w.Key("scale");
    w.Number(info.scale);
    w.Key("trials");
    w.UInt(info.trials);
    w.Key("files");
    w.BeginArray();
    for (const char* file : kResultFiles) w.String(info.id + "/" + file);
    w.String(info.id + "/manifest.json");
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status WriteJsonLine(const std::string& path, const std::string& body) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr)
    return InternalError("cannot open for writing: " + path);
  const std::string json = body + "\n";
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  const bool flushed = std::fflush(file) == 0 && std::ferror(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !flushed || !closed)
    return InternalError("partial manifest write: " + path);
  return Status::Ok();
}

}  // namespace

Status ResultTreeWriter::OpenScenario(
    const std::string& id, std::vector<std::unique_ptr<ResultSink>>& sinks) {
  if (std::find(opened_.begin(), opened_.end(), id) != opened_.end())
    return InvalidArgumentError("scenario '" + id + "' already written to " +
                                root_);
  const std::string dir = root_ + "/" + id;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return InternalError("cannot create " + dir + ": " + ec.message());
  const std::string path = dir + "/" + kResultFiles[0];
  auto jsonl = std::make_unique<JsonlSink>(path);
  if (!jsonl->ok()) return InternalError("cannot open for writing: " + path);
  sinks.push_back(std::move(jsonl));
  opened_.push_back(id);
  return Status::Ok();
}

Status ResultTreeWriter::CloseScenario(const ScenarioSpec& spec,
                                       const ScenarioRunReport& report) {
  const Status written = WriteJsonLine(root_ + "/" + spec.id + "/manifest.json",
                                       RunManifestJson(spec, report));
  if (!written.ok()) return written;
  closed_.push_back(report.info);
  closed_.back().id = spec.id;
  return Status::Ok();
}

Status ResultTreeWriter::Finish() {
  return WriteJsonLine(root_ + "/manifest.json", TreeManifestJson(closed_));
}

}  // namespace ldpr
