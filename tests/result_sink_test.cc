// Golden-file coverage for the machine-readable result sink: the
// exact bytes JsonlSink emits for a fixed row stream are part of the
// --out contract (`ldpr diff` and the determinism harness read them),
// so they are pinned here, along with the partial-write error model
// and the JSON emitter underneath.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/result_sink.h"
#include "util/json_writer.h"

namespace ldpr {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ScenarioRunInfo TestInfo() {
  ScenarioRunInfo info;
  info.id = "golden";
  info.title = "golden scenario";
  return info;
}

TEST(JsonlSinkTest, GoldenBytes) {
  const std::string path = TempPath("ldpr_sink_golden.jsonl");
  JsonlSink sink(path);
  ASSERT_TRUE(sink.ok());
  sink.BeginScenario(TestInfo());
  sink.BeginTable("Table A", {"MSE", "FG"});
  sink.AddRow("MGA-GRR", {0.5, 1.0 / 3.0});
  sink.AddRow("AA, OUE", {6.25e-05, -0.125});
  sink.EndTable();
  sink.BeginTable("Table B", {"MSE", "FG"});
  sink.AddRow("beta=0.05", {1e300, 0.0});
  sink.EndTable();
  sink.BeginTable("Table C", {"Before"});
  sink.AddRow("row \"q\"", {2.0});  // escaped in the JSON string
  sink.EndTable();
  ASSERT_TRUE(sink.Finish().ok());

  EXPECT_EQ(
      ReadAll(path),
      "{\"scenario\":\"golden\",\"table\":\"Table A\",\"row\":\"MGA-GRR\","
      "\"values\":{\"MSE\":0.5,\"FG\":0.3333333333333333}}\n"
      "{\"scenario\":\"golden\",\"table\":\"Table A\",\"row\":\"AA, OUE\","
      "\"values\":{\"MSE\":6.25e-05,\"FG\":-0.125}}\n"
      "{\"scenario\":\"golden\",\"table\":\"Table B\",\"row\":\"beta=0.05\","
      "\"values\":{\"MSE\":1e+300,\"FG\":0}}\n"
      "{\"scenario\":\"golden\",\"table\":\"Table C\",\"row\":\"row "
      "\\\"q\\\"\",\"values\":{\"Before\":2}}\n");
  std::filesystem::remove(path);
}

TEST(ResultSinkTest, FinishFailsWhenFileCannotOpen) {
  JsonlSink jsonl("/nonexistent-dir/x/results.jsonl");
  EXPECT_FALSE(jsonl.ok());
  EXPECT_FALSE(jsonl.Finish().ok());
}

TEST(ResultSinkTest, MultiSinkFansOutAndAggregatesErrors) {
  const std::string path = TempPath("ldpr_sink_multi.jsonl");
  {
    std::vector<std::unique_ptr<ResultSink>> sinks;
    sinks.push_back(std::make_unique<JsonlSink>(path));
    sinks.push_back(std::make_unique<JsonlSink>("/nonexistent-dir/x.jsonl"));
    MultiSink sink(std::move(sinks));
    sink.BeginScenario(TestInfo());
    sink.BeginTable("T", {"v"});
    sink.AddRow("r", {1.0});
    sink.EndTable();
    // The healthy child wrote; the broken child surfaces the error.
    EXPECT_FALSE(sink.Finish().ok());
  }
  EXPECT_EQ(ReadAll(path),
            "{\"scenario\":\"golden\",\"table\":\"T\",\"row\":\"r\","
            "\"values\":{\"v\":1}}\n");
  std::filesystem::remove(path);
}

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\nd\te");
  w.Key("arr");
  w.BeginArray();
  w.Number(1.5);
  w.Int(-3);
  w.UInt(18446744073709551615ull);
  w.Bool(true);
  w.Null();
  w.BeginObject();
  w.Key("k");
  w.Number(0.1);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\",\"arr\":[1.5,-3,"
            "18446744073709551615,true,null,{\"k\":0.1}]}");
}

TEST(JsonWriterTest, NumbersRoundTripShortest) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(JsonNumber(-0.0), "-0");
  EXPECT_EQ(JsonNumber(1e300), "1e+300");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

}  // namespace
}  // namespace ldpr
