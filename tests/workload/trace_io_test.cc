#include "workload/trace_io.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generator.h"
#include "workload/standard_workloads.h"

namespace cdpd {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  Schema schema_ = MakePaperSchema();
};

TEST_F(TraceIoTest, RoundTripsStatementsExactly) {
  WorkloadGenerator gen(schema_, 1000, 31);
  Workload original = MakeScaledPaperWorkload("W1", 10, &gen).value();
  const std::string text = WriteTrace(schema_, original);
  auto parsed = ReadTrace(schema_, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements, original.statements);
  EXPECT_EQ(parsed->block_mix_names, original.block_mix_names);
  EXPECT_EQ(parsed->block_size, original.block_size);
}

TEST_F(TraceIoTest, RoundTripsAllStatementKinds) {
  Workload workload;
  workload.statements = {
      BoundStatement::SelectPoint(0, 1, 42),
      BoundStatement::UpdatePoint(2, -5, 3, 7),
      BoundStatement::Insert({1, 2, 3, 4}),
  };
  auto parsed = ReadTrace(schema_, WriteTrace(schema_, workload));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->statements, workload.statements);
}

TEST_F(TraceIoTest, IgnoresCommentsAndBlankLines) {
  auto parsed = ReadTrace(schema_,
                          "-- a comment\n\n"
                          "SELECT a FROM t WHERE a = 1;\n"
                          "   \n-- another\n"
                          "SELECT b FROM t WHERE b = 2;\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(parsed->block_mix_names.empty());
}

TEST_F(TraceIoTest, ReportsLineNumbersOnParseErrors) {
  const auto status =
      ReadTrace(schema_, "SELECT a FROM t WHERE a = 1;\nNOT SQL;\n")
          .status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST_F(TraceIoTest, ReportsBindErrorsWithLineNumbers) {
  const auto status =
      ReadTrace(schema_, "SELECT zz FROM t WHERE a = 1;\n").status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 1"), std::string::npos);
}

TEST_F(TraceIoTest, RejectsDdlInTraces) {
  const auto status =
      ReadTrace(schema_, "CREATE INDEX ON t (a);\n").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(TraceIoTest, BlockMarkersNumberTheBlocksInOrder) {
  auto parsed = ReadTrace(schema_,
                          "-- block 0 mix A\n"
                          "SELECT a FROM t WHERE a = 1;\n"
                          "SELECT a FROM t WHERE a = 2;\n"
                          "-- block 1 mix C\n"
                          "SELECT b FROM t WHERE b = 3;\n"
                          "-- block 1 mix D\n"  // Relabels block 1.
                          "-- block 2\n"
                          "SELECT c FROM t WHERE c = 4;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 4u);
  EXPECT_EQ(parsed->block_size, 2u);
  EXPECT_EQ(parsed->block_mix_names,
            (std::vector<std::string>{"A", "D", ""}));
}

TEST_F(TraceIoTest, BlockMarkerBeyondTheNextBlockIsAParseError) {
  // Each would once have grown the mix-name table up to the marker's
  // number (-1 wrapped to SIZE_MAX).
  for (const std::string marker :
       {"-- block -1", "-- block 5000000", "-- block 2 mix B",
        "-- block 99999999999999999999", "-- block -9223372036854775808"}) {
    const std::string text =
        "-- block 0 mix A\nSELECT a FROM t WHERE a = 1;\n" + marker +
        "\nSELECT a FROM t WHERE a = 2;\n";
    const Status status = ReadTrace(schema_, text).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << marker;
    EXPECT_EQ(status.message().rfind("line 3: block marker ", 0), 0u)
        << status;
  }
  EXPECT_EQ(ReadTrace(schema_, "-- block 1\n").status().message(),
            "line 1: block marker 1 is out of order (the next block is 0)");
}

TEST_F(TraceIoTest, BlockWithoutADecimalIsAnOrdinaryComment) {
  for (const std::string comment :
       {"-- block party", "-- block", "-- block 1x", "-- block +1",
        "-- block  1", "-- blocked 1", "-- block\t1"}) {
    auto parsed =
        ReadTrace(schema_, comment + "\nSELECT a FROM t WHERE a = 1;\n");
    ASSERT_TRUE(parsed.ok()) << comment << ": " << parsed.status();
    EXPECT_EQ(parsed->size(), 1u) << comment;
    EXPECT_TRUE(parsed->block_mix_names.empty()) << comment;
    EXPECT_EQ(parsed->block_size, 0u) << comment;
  }
}

TEST_F(TraceIoTest, FileRoundTrip) {
  WorkloadGenerator gen(schema_, 1000, 32);
  Workload original = MakeScaledPaperWorkload("W2", 5, &gen).value();
  const std::string path = ::testing::TempDir() + "/cdpd_trace_test.sql";
  ASSERT_TRUE(WriteTraceFile(path, schema_, original).ok());
  auto parsed = ReadTraceFile(path, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->statements, original.statements);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadTraceFile("/nonexistent/trace.sql", schema_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TraceIoTest, EmptyTraceIsEmptyWorkload) {
  auto parsed = ReadTrace(schema_, "");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 0u);
}

TEST_F(TraceIoTest, ReservesOneStatementPerNewlineCappedByLength) {
  // ReadTrace reserves min(newlines, bytes / 24) + 1 statements.
  const std::string line = "SELECT a FROM t WHERE a = 1;\n";  // 29 bytes.
  const std::string crlf = "SELECT a FROM t WHERE a = 1;\r\n";
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"", 1},
      {line, 2},
      {line + line + "SELECT b FROM t WHERE b = 2;", 3},
      {crlf + crlf + crlf, 4},
      {std::string(240, '\n'), 11},
      {"\n\n" + line, 2},
  };
  for (const auto& [text, reserved] : cases) {
    auto parsed = ReadTrace(schema_, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->statements.capacity(), reserved)
        << text.size() << " bytes";
  }
}

}  // namespace
}  // namespace cdpd
