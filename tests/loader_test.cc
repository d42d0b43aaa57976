#include "data/loader.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

class LoaderTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/ldpr_loader_test.csv";
  void Write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(LoaderTest, BuildsHistogramInFirstAppearanceOrder) {
  Write("unit\nE01\nE02\nE01\nE03\nE01\n");
  const auto loaded = LoadItemCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dataset.domain_size(), 3u);
  EXPECT_EQ(loaded->dataset.num_users(), 5u);
  EXPECT_EQ(loaded->item_labels[0], "E01");
  EXPECT_EQ(loaded->dataset.item_counts[0], 3u);  // E01
  EXPECT_EQ(loaded->dataset.item_counts[1], 1u);  // E02
}

// Regression guard for the R2 determinism audit in loader.cc: the
// internal unordered_map is keyed-access only, so label -> id
// assignment must be pure first-appearance row order — never hash
// order.  Uses enough distinct labels that any accidental dependence
// on unordered_map element order would scramble the sequence, and
// labels chosen so first-appearance order differs from sorted order.
TEST_F(LoaderTest, HashOrderNeverReachesOutput) {
  std::string csv = "unit\n";
  std::vector<std::string> first_appearance;
  for (int i = 0; i < 64; ++i) {
    // z47, y46, ... — reverse-sorted prefixes, so lexicographic order,
    // insertion order, and typical hash order all disagree.
    std::string label;
    label += static_cast<char>('z' - (i % 26));
    label += std::to_string(i);
    first_appearance.push_back(label);
    csv += label + "\n";
    csv += label + "\n";  // count 2 each
  }
  // Revisit every label once more in reverse: counts become 3, and the
  // revisit must not disturb the already-assigned ids.
  for (int i = 63; i >= 0; --i) csv += first_appearance[i] + "\n";
  Write(csv);

  const auto loaded = LoadItemCsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->item_labels.size(), first_appearance.size());
  for (size_t i = 0; i < first_appearance.size(); ++i) {
    EXPECT_EQ(loaded->item_labels[i], first_appearance[i]) << "id " << i;
    EXPECT_EQ(loaded->dataset.item_counts[i], 3u) << "id " << i;
  }
}

TEST_F(LoaderTest, SelectsColumn) {
  Write("id,city\n1,Springfield\n2,Shelbyville\n3,Springfield\n");
  LoadOptions opts;
  opts.column = 1;
  const auto loaded = LoadItemCsv(path_, opts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->item_labels[0], "Springfield");
  EXPECT_EQ(loaded->dataset.item_counts[0], 2u);
}

TEST_F(LoaderTest, NoHeaderMode) {
  Write("a\nb\na\n");
  LoadOptions opts;
  opts.has_header = false;
  const auto loaded = LoadItemCsv(path_, opts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dataset.num_users(), 3u);
}

TEST_F(LoaderTest, QuotedFieldsWithCommas) {
  Write("city\n\"San Francisco, CA\"\n\"San Francisco, CA\"\nOakland\n");
  const auto loaded = LoadItemCsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->item_labels[0], "San Francisco, CA");
  EXPECT_EQ(loaded->dataset.item_counts[0], 2u);
}

// A CRLF file's blank line is skipped as an LF file's is, not loaded
// as an item with an empty label.
TEST_F(LoaderTest, CrlfFileLoadsLikeLfFile) {
  for (const char* newline : {"\n", "\r\n"}) {
    SCOPED_TRACE(newline[0] == '\r' ? "CRLF" : "LF");
    std::string content;
    for (const char* line : {"item", "a", "b", "a", "", "b"})
      content += std::string(line) + newline;
    Write(content);
    const auto loaded = LoadItemCsv(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->dataset.domain_size(), 2u);
    EXPECT_EQ(loaded->dataset.num_users(), 4u);
    EXPECT_EQ(loaded->item_labels, (std::vector<std::string>{"a", "b"}));
  }
}

TEST_F(LoaderTest, MissingColumnIsError) {
  Write("a\nb\nc\n");
  LoadOptions opts;
  opts.column = 5;
  const auto loaded = LoadItemCsv(path_, opts);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LoaderTest, SingleDistinctItemIsError) {
  Write("x\nsame\nsame\nsame\n");
  const auto loaded = LoadItemCsv(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoaderErrorTest, MissingFile) {
  const auto loaded = LoadItemCsv("/nonexistent/x.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ldpr
