#include "trace.h"

#include <cstdio>

#include "util/json_writer.h"

namespace ldpr {
namespace perf {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDataResolve:
      return "data.resolve";
    case Layer::kLdpSampleGenuine:
      return "ldp.sample_genuine";
    case Layer::kLdpAggregate:
      return "ldp.aggregate";
    case Layer::kLdpEstimate:
      return "ldp.estimate";
    case Layer::kAttackCraft:
      return "attack.craft";
    case Layer::kRecoverLdprecover:
      return "recover.ldprecover";
    case Layer::kRecoverStar:
      return "recover.star";
    case Layer::kRecoverDetectGenuine:
      return "recover.detect_genuine";
    case Layer::kRecoverDetectFilter:
      return "recover.detect_filter";
    case Layer::kRecoverKmeans:
      return "recover.kmeans";
    case Layer::kStreamArrival:
      return "stream.arrival";
    case Layer::kStreamRun:
      return "stream.run";
    case Layer::kShardPlan:
      return "shard.plan";
    case Layer::kShardPartials:
      return "shard.partials";
    case Layer::kShardEncode:
      return "shard.encode";
    case Layer::kShardDecode:
      return "shard.decode";
    case Layer::kShardFault:
      return "shard.fault";
    case Layer::kShardMerge:
      return "shard.merge";
    case Layer::kShardOutcome:
      return "shard.outcome";
    case Layer::kBenchmarkProbe:
      return "perf.probe";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void Counters::Add(const Counters& other) {
  reports_crafted += other.reports_crafted;
  aggregate_reports += other.aggregate_reports;
  aggregate_bytes += other.aggregate_bytes;
  simplex_iters += other.simplex_iters;
  detect_offered += other.detect_offered;
  detect_kept += other.detect_kept;
  arrival_reports += other.arrival_reports;
  stream_windows += other.stream_windows;
  stream_reports += other.stream_reports;
  wire_bytes += other.wire_bytes;
  lines_total += other.lines_total;
  lines_rejected += other.lines_rejected;
}

namespace {

std::string SpanLine(const TrialTrace& trace, const char* layer, double start,
                     double end) {
  JsonWriter json;
  json.BeginObject();
  json.Key("scenario");
  json.String(trace.scenario);
  json.Key("trial");
  if (trace.index == kNoTrial) {
    json.Null();
  } else {
    json.UInt(trace.index);
  }
  json.Key("layer");
  json.String(layer);
  json.Key("start");
  json.Number(start);
  json.Key("end");
  json.Number(end);
  json.EndObject();
  return json.str() + "\n";
}

}  // namespace

Status WriteSpans(const std::string& path,
                  const std::vector<TrialTrace>& traces) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return InternalError("cannot open " + path);
  for (const TrialTrace& trace : traces) {
    if (trace.index != kNoTrial)
      std::fputs(SpanLine(trace, "sim.trial", trace.start, trace.end).c_str(),
                 file);
    for (const Span& span : trace.spans)
      std::fputs(
          SpanLine(trace, LayerName(span.layer), span.start, span.end).c_str(),
          file);
  }
  const bool failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || failed)
    return InternalError("write failed: " + path);
  return Status::Ok();
}

}  // namespace perf
}  // namespace ldpr
