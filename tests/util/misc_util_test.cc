#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/arg_parser.h"
#include "util/csv.h"
#include "util/table_printer.h"

namespace epfis {
namespace {

TEST(TablePrinterTest, AlignsColumnsAndPrintsHeader) {
  TablePrinter table({"name", "value"});
  table.AddRow().Cell("alpha").Cell(int64_t{42});
  table.AddRow().Cell("b").Cell(3.14159, 2);
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, DoublePrecisionControl) {
  TablePrinter table({"v"});
  table.AddRow().Cell(1.23456, 4);
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("1.2346"), std::string::npos);
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  std::string path = testing::TempDir() + "/epfis_csv_test.csv";
  {
    CsvWriter writer;
    ASSERT_TRUE(CsvWriter::Open(path, {"a", "b"}, &writer).ok());
    writer.WriteRow(std::vector<std::string>{"1", "hello"});
    writer.WriteRow(std::vector<double>{2.5, 3.0});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,hello");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "2.5,3");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  std::string path = testing::TempDir() + "/epfis_csv_quote.csv";
  {
    CsvWriter writer;
    ASSERT_TRUE(CsvWriter::Open(path, {"x"}, &writer).ok());
    writer.WriteRow(std::vector<std::string>{"a,b"});
    writer.WriteRow(std::vector<std::string>{"say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, OpenFailsOnBadPath) {
  CsvWriter writer;
  Status s = CsvWriter::Open("/nonexistent-dir-xyz/file.csv", {"a"}, &writer);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(ArgParserTest, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--scale=0.5", "--verbose", "input.txt",
                        "--count=12", "--name=test"};
  ArgParser args(6, const_cast<char**>(argv));
  EXPECT_TRUE(args.Has("scale"));
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(args.GetInt("count", 0), 12);
  EXPECT_EQ(args.GetString("name", ""), "test");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

TEST(ArgParserTest, Defaults) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.GetDouble("d", 2.5), 2.5);
  EXPECT_EQ(args.GetString("s", "dflt"), "dflt");
  EXPECT_FALSE(args.GetBool("b", false));
  EXPECT_TRUE(args.GetBool("b", true));
}

TEST(ArgParserTest, BoolForms) {
  const char* argv[] = {"prog", "--yes", "--on=true", "--one=1",
                        "--off=false"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.GetBool("yes", false));
  EXPECT_TRUE(args.GetBool("on", false));
  EXPECT_TRUE(args.GetBool("one", false));
  EXPECT_FALSE(args.GetBool("off", true));
}

// Check passes only once every flag given was read and parsed, and no
// positional argument was given; otherwise its message names the first
// bad argument.
void ExpectCheckNames(const ArgParser& args, const std::string& needle) {
  Status status = args.Check();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();
}

TEST(ArgParserTest, CheckPassesWhenEveryFlagIsRead) {
  const char* argv[] = {"prog", "--gate", "--refs=12", "--rates=1,0.5"};
  ArgParser args(4, const_cast<char**>(argv));
  EXPECT_TRUE(args.GetBool("gate", false));
  EXPECT_EQ(args.GetInt("refs", 0), 12);
  EXPECT_EQ(args.GetDoubleList("rates", {}), (std::vector<double>{1, 0.5}));
  EXPECT_FALSE(args.Has("absent"));
  EXPECT_TRUE(args.Check().ok());
}

TEST(ArgParserTest, CheckRejectsAnUnknownFlag) {
  const char* argv[] = {"prog", "--gaet"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_FALSE(args.GetBool("gate", false));
  ExpectCheckNames(args, "--gaet");
}

TEST(ArgParserTest, CheckRejectsASpaceSeparatedValue) {
  // `--scale 1` gives --scale no value and leaves `1` positional.
  const char* argv[] = {"prog", "--scale", "1"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.5), 0.5);
  ExpectCheckNames(args, "--scale");

  const char* stray[] = {"prog", "--gate", "1"};
  ArgParser positional(3, const_cast<char**>(stray));
  EXPECT_TRUE(positional.GetBool("gate", false));
  ExpectCheckNames(positional, "'1'");
}

TEST(ArgParserTest, CheckRejectsMalformedValues) {
  struct Probe {
    const char* arg;
    const char* needle;
  };
  for (Probe probe : {Probe{"--refs=12x", "--refs=12x"},
                      Probe{"--refs=", "--refs needs a value"},
                      Probe{"--refs=99999999999999999999", "--refs="},
                      Probe{"--scale=0.5.1", "--scale=0.5.1"},
                      Probe{"--gate=yes", "--gate=yes"},
                      Probe{"--rates=1,x", "--rates=1,x"},
                      Probe{"--rates=,", "--rates=,"}}) {
    SCOPED_TRACE(probe.arg);
    const char* argv[] = {"prog", probe.arg};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EQ(args.GetInt("refs", 7), 7);
    EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.5), 0.5);
    EXPECT_FALSE(args.GetBool("gate", false));
    EXPECT_EQ(args.GetDoubleList("rates", {2.0}), std::vector<double>{2.0});
    ExpectCheckNames(args, probe.needle);
  }
}

}  // namespace
}  // namespace epfis
