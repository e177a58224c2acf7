// SQL front-end fuzzing: (a) every valid bound statement round-trips
// through print -> parse -> bind unchanged, and every blocked workload
// through WriteTrace -> ReadTrace; (b) arbitrary byte soup, shuffled
// token soup and multi-line trace soup never crash the lexer, parser
// or trace reader — they return a Status or a legitimate parse.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/statement.h"
#include "workload/trace_io.h"

namespace cdpd {
namespace {

class SqlRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

BoundStatement RandomStatement(Rng* rng, const Schema& schema) {
  const auto col = [&] {
    return static_cast<ColumnId>(
        rng->NextBounded(static_cast<uint64_t>(schema.num_columns())));
  };
  const auto value = [&] { return rng->UniformInt(-1'000'000, 1'000'000); };
  switch (rng->NextBounded(4)) {
    case 0:
      return BoundStatement::SelectPoint(col(), col(), value());
    case 1: {
      const Value lo = value();
      return BoundStatement::SelectRange(col(), col(), lo,
                                         lo + rng->UniformInt(0, 10'000));
    }
    case 2:
      return BoundStatement::UpdatePoint(col(), value(), col(), value());
    default: {
      std::vector<Value> values;
      for (int32_t i = 0; i < schema.num_columns(); ++i) {
        values.push_back(value());
      }
      return BoundStatement::Insert(std::move(values));
    }
  }
}

TEST_P(SqlRoundTripFuzz, BoundStatementsSurvivePrintParseBind) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const BoundStatement original = RandomStatement(&rng, schema);
    const std::string sql = original.ToString(schema);
    auto ast = ParseStatement(sql);
    ASSERT_TRUE(ast.ok()) << sql << " -> " << ast.status();
    auto bound = BindStatement(schema, ast.value());
    ASSERT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    EXPECT_EQ(*bound, original) << sql;
  }
}

TEST_P(SqlRoundTripFuzz, BlockedTracesSurviveWriteRead) {
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0x7ace);
  for (int round = 0; round < 20; ++round) {
    Workload original;
    original.block_size = 1 + rng.NextBounded(12);
    const size_t blocks = 2 + rng.NextBounded(5);
    // The last block may be partial.
    const size_t total = (blocks - 1) * original.block_size + 1 +
                         rng.NextBounded(original.block_size);
    for (size_t i = 0; i < total; ++i) {
      original.statements.push_back(RandomStatement(&rng, schema));
    }
    for (size_t b = 0; b < blocks; ++b) {
      original.block_mix_names.push_back(
          std::string(1, static_cast<char>('A' + rng.NextBounded(4))));
    }
    // Interleave comments and blank lines, and vary the line endings,
    // indentation and final newline.
    const std::string written = WriteTrace(schema, original);
    std::string text;
    size_t begin = 0;
    while (begin < written.size()) {
      const size_t end = written.find('\n', begin);
      switch (rng.NextBounded(5)) {
        case 0:
          text += "-- note " + std::to_string(rng.NextBounded(100)) + "\n";
          break;
        case 1:
          text += rng.NextBounded(2) == 0 ? "\n" : " \t\r\n";
          break;
        case 2:
          text += '\t';
          break;
        default:
          break;
      }
      text.append(written, begin, end - begin);
      const bool last = end + 1 == written.size();
      if (!last || rng.NextBounded(2) == 0) {
        text += rng.NextBounded(3) == 0 ? "\r\n" : "\n";
      }
      begin = end + 1;
    }
    auto parsed = ReadTrace(schema, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    EXPECT_EQ(parsed->statements, original.statements) << text;
    EXPECT_EQ(parsed->block_mix_names, original.block_mix_names) << text;
    EXPECT_EQ(parsed->block_size, original.block_size) << text;
  }
}

TEST_P(SqlRoundTripFuzz, ByteSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xf00d);
  const std::string alphabet =
      "SELECTUPDAINRTOVWHBFMXabcd0123456789 ()=,;*-\t\n_";
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const size_t length = rng.NextBounded(60);
    for (size_t j = 0; j < length; ++j) {
      soup += alphabet[rng.NextBounded(alphabet.size())];
    }
    // Must not crash; outcome (ok or error) is irrelevant.
    auto result = ParseStatement(soup);
    if (result.ok()) {
      // Whatever parsed must print back to something parseable.
      EXPECT_TRUE(ParseStatement(AstToString(result.value())).ok());
    }
  }
}

TEST_P(SqlRoundTripFuzz, TokenSoupNeverCrashes) {
  Rng rng(GetParam() ^ 0xbeef);
  const std::vector<std::string> tokens = {
      "SELECT", "UPDATE", "INSERT", "INTO",  "VALUES", "FROM", "WHERE",
      "SET",    "BETWEEN", "AND",   "CREATE", "DROP",  "INDEX", "ON",
      "t",      "a",      "b",      "(",     ")",      ",",    "=",
      "42",     "-7",     ";"};
  for (int i = 0; i < 2000; ++i) {
    std::string soup;
    const size_t length = rng.NextBounded(12);
    for (size_t j = 0; j < length; ++j) {
      soup += tokens[rng.NextBounded(tokens.size())];
      soup += ' ';
    }
    auto result = ParseStatement(soup);
    (void)result;
  }
}

TEST_P(SqlRoundTripFuzz, LexerHandlesArbitraryBytes) {
  Rng rng(GetParam() ^ 0xcafe);
  std::vector<Token> tokens;
  for (int i = 0; i < 500; ++i) {
    std::string bytes;
    const size_t length = rng.NextBounded(40);
    for (size_t j = 0; j < length; ++j) {
      bytes += static_cast<char>(rng.NextBounded(127) + 1);  // No NUL.
    }
    if (Tokenize(bytes, &tokens).ok()) {
      EXPECT_EQ(tokens.back().type, TokenType::kEnd);
    }
  }
}

TEST_P(SqlRoundTripFuzz, TraceSoupNeverCrashes) {
  // Multi-line soup of statements (some malformed), blank lines, CRLF
  // endings and block markers with arbitrary int64 numbers. A marker
  // adds at most one block, whatever its number, so a trace never holds
  // more blocks than markers.
  const Schema schema = MakePaperSchema();
  Rng rng(GetParam() ^ 0xb10c);
  const std::vector<std::string> lines = {
      "SELECT a FROM t WHERE a = 1;", "UPDATE t SET b = 2 WHERE c = 3;",
      "INSERT INTO t VALUES (1, 2, 3, 4);",
      "SELECT b FROM t WHERE b BETWEEN 1 AND 9;", "SELEC a FROM t;",
      "SELECT zz FROM t WHERE a = 1;", "-- a comment", "", "  \t",
      "-- block party"};
  for (int i = 0; i < 300; ++i) {
    std::string text;
    size_t markers = 0;
    const size_t length = 1 + rng.NextBounded(30);
    const size_t minus_one_at = rng.NextBounded(length);
    for (size_t j = 0; j < length; ++j) {
      if (j == minus_one_at) {
        text += "-- block -1";
        ++markers;
      } else if (rng.NextBounded(3) == 0) {
        const int64_t block = rng.NextBounded(2) == 0
                                  ? static_cast<int64_t>(rng.Next())
                                  : rng.UniformInt(-2, 4);
        text += "-- block " + std::to_string(block);
        if (rng.NextBounded(2) == 0) text += " mix B";
        ++markers;
      } else {
        text += lines[rng.NextBounded(lines.size())];
      }
      text += rng.NextBounded(4) == 0 ? "\r\n" : "\n";
    }
    auto parsed = ReadTrace(schema, text);
    if (parsed.ok()) {
      EXPECT_LE(parsed->block_mix_names.size(), markers) << text;
    } else {
      EXPECT_NE(parsed.status().message().rfind("line ", 0), std::string::npos)
          << parsed.status();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTripFuzz,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cdpd
