#include "util/csv.h"

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace comx {
namespace {

TEST(CsvWriterTest, PlainFields) {
  std::ostringstream os;
  CsvWriter w(&os);
  w.WriteRow({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvWriterTest, QuotesSeparatorsAndQuotes) {
  std::ostringstream os;
  CsvWriter w(&os);
  w.WriteRow({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriterTest, NumericRowFullPrecision) {
  std::ostringstream os;
  CsvWriter w(&os);
  w.WriteNumericRow({1.5, 0.1});
  const std::string line = os.str();
  EXPECT_NE(line.find("1.5"), std::string::npos);
  EXPECT_NE(line.find("0.1"), std::string::npos);
}

TEST(ParseCsvLineTest, Simple) {
  const auto fields = ParseCsvLineStrict("x,y,z").value();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "x");
  EXPECT_EQ(fields[2], "z");
}

TEST(ParseCsvLineTest, EmptyFields) {
  const auto fields = ParseCsvLineStrict(",,").value();
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(ParseCsvLineTest, QuotedWithCommaAndEscapedQuote) {
  const auto fields = ParseCsvLineStrict("\"a,b\",\"c\"\"d\"").value();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "c\"d");
}

TEST(ParseCsvLineTest, IgnoresCarriageReturn) {
  const auto fields = ParseCsvLineStrict("a,b\r").value();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(ParseCsvLineTest, RoundTripThroughWriter) {
  std::ostringstream os;
  CsvWriter w(&os);
  const std::vector<std::string> original{"plain", "with,comma", "q\"uote"};
  w.WriteRow(original);
  std::string line = os.str();
  line.pop_back();  // strip trailing newline
  EXPECT_EQ(ParseCsvLineStrict(line).value(), original);
}

TEST(ParseCsvLineStrictTest, AcceptsWellFormedLines) {
  auto fields = ParseCsvLineStrict("\"a,b\",\"c\"\"d\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a,b", "c\"d"}));
}

TEST(ParseCsvLineStrictTest, RejectsUnterminatedQuote) {
  auto fields = ParseCsvLineStrict("a,\"runs,to,end");
  ASSERT_FALSE(fields.ok());
  EXPECT_EQ(fields.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvFileTest, MalformedLineFailsReadWithLineNumber) {
  const std::string path = testing::TempDir() + "/comx_csv_bad.csv";
  {
    std::ofstream out(path);
    out << "a,b\nok,row\nbad,\"open\n";
  }
  auto read = ReadCsvFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("line 3"), std::string::npos)
      << read.status().ToString();
  std::remove(path.c_str());
}

TEST(CsvFileTest, WriteThenRead) {
  const std::string path = testing::TempDir() + "/comx_csv_test.csv";
  const std::vector<std::vector<std::string>> rows{{"h1", "h2"},
                                                   {"1", "two"},
                                                   {"3", "four,ish"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, ReadMissingFileErrors) {
  auto read = ReadCsvFile("/nonexistent/dir/file.csv");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(CsvFileTest, WriteToBadPathErrors) {
  const Status s = WriteCsvFile("/nonexistent/dir/file.csv", {{"a"}});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CsvFileTest, SkipsEmptyLines) {
  const std::string path = testing::TempDir() + "/comx_csv_gaps.csv";
  {
    std::ofstream out(path);
    out << "a,b\n\n\nc,d\n";
  }
  auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace comx
