#include "util/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(SplitCsvLineTest, PlainFields) {
  const auto f = SplitCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(SplitCsvLineTest, EmptyFields) {
  const auto f = SplitCsvLine(",x,");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "");
  EXPECT_EQ(f[2], "");
}

TEST(SplitCsvLineTest, QuotedCommaAndQuotes) {
  const auto f = SplitCsvLine(R"("a,b","say ""hi""",plain)");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
  EXPECT_EQ(f[2], "plain");
}

TEST(SplitCsvLineTest, StripsCarriageReturn) {
  const auto f = SplitCsvLine("a,b\r");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "b");
}

class CsvFileTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/ldpr_csv_test.csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvFileTest, ReadsQuotedFields) {
  {
    std::ofstream out(path_);
    out << "city,count\n\"San Francisco, CA\",42\nmse,0.0015,2\n";
  }
  auto rows_or = ReadCsvFile(path_);
  ASSERT_TRUE(rows_or.ok());
  const auto& rows = rows_or.value();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "city");
  EXPECT_EQ(rows[1][0], "San Francisco, CA");  // quoted comma kept
  EXPECT_EQ(rows[2][0], "mse");
  EXPECT_EQ(rows[2].size(), 3u);
}

TEST_F(CsvFileTest, SkipsEmptyLines) {
  {
    std::ofstream out(path_);
    out << "a,b\n\n\nc,d\n";
  }
  auto rows_or = ReadCsvFile(path_);
  ASSERT_TRUE(rows_or.ok());
  EXPECT_EQ(rows_or.value().size(), 2u);
}

TEST(CsvFileErrorTest, MissingFileIsNotFound) {
  auto rows_or = ReadCsvFile("/nonexistent/dir/file.csv");
  ASSERT_FALSE(rows_or.ok());
  EXPECT_EQ(rows_or.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ldpr
